import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obw.expr
from obw.expr import (
    _FUNCTIONS,
    _NAMESPACE,
    _NP_NAMESPACE,
    BinOp,
    Call,
    Neg,
    Num,
    ParseError,
    Var,
    _bind,
    _code,
    as_fn1d,
    compile_expr,
    parse,
)


def evaluate(e, t):
    """Oracle: walk the tree at t, children first, left before right."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Neg):
        return -evaluate(e.operand, t)
    if isinstance(e, BinOp):
        lv = evaluate(e.left, t)
        rv = evaluate(e.right, t)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lv * rv
        if e.op == "/":
            return lv / rv
        return math.pow(lv, rv)
    return _FUNCTIONS[e.fn](evaluate(e.arg, t))


def dual(e, t):
    """Oracle for the derivative: (value, derivative) at t from a walk of
    the tree on dual numbers, each rule's float operations in its order.
    It computes every node's value, where `_d` computes only those a rule
    reads, so it raises wherever `_d` does, and maybe elsewhere too."""
    if isinstance(e, Num):
        return e.value, 0.0
    if isinstance(e, Var):
        return t, 1.0
    if isinstance(e, Neg):
        u, du = dual(e.operand, t)
        return -u, -du
    if isinstance(e, BinOp):
        (u, du), (v, dv) = dual(e.left, t), dual(e.right, t)
        if e.op == "+":
            return u + v, du + dv
        if e.op == "-":
            return u - v, du - dv
        if e.op == "*":
            return u * v, du * v + u * dv
        if e.op == "/":
            return u / v, (du * v - u * dv) / math.pow(v, 2.0)
        y = math.pow(u, v)
        if isinstance(e.right, Num):  # power rule
            return y, v * math.pow(u, v - 1.0) * du
        return y, y * (dv * math.log(u) + v * du / u)
    u, du = dual(e.arg, t)
    y = _FUNCTIONS[e.fn](u)
    outer = {
        "sin": lambda: math.cos(u), "cos": lambda: -math.sin(u), "exp": lambda: y,
        "log": lambda: 1.0 / u, "sqrt": lambda: 0.5 / y, "abs": lambda: u / y,
    }[e.fn]()
    return y, outer * du


def emitted_derivative(tree):
    """`_d`, the derivative `_code` emits, for a float t."""
    return _bind(_code(tree), _NAMESPACE)["_d"]


def value(source, t):
    return compile_expr(parse(source))(t)


def evaluated(d, t):
    return compile_expr(d)(t)


class TestParseEval:
    def test_power(self):
        assert value("t^2", 0.5) == pytest.approx(0.25)

    def test_mixed(self):
        assert value("2*t - sin(t)", 0.0) == pytest.approx(0.0)

    def test_unary_minus_binds_looser_than_power(self):
        assert value("-t^2", 2.0) == pytest.approx(-4.0)

    def test_power_right_associative(self):
        assert value("2^3^2", 1.0) == pytest.approx(512.0)

    def test_precedence(self):
        assert value("1 + 2 * 3 ^ 2", 0.0) == pytest.approx(19.0)
        assert value("(1 + 2) * 3", 0.0) == pytest.approx(9.0)

    def test_functions(self):
        assert value("sqrt(abs(-4))", 0.0) == pytest.approx(2.0)
        assert value("exp(log(3))", 0.0) == pytest.approx(3.0)
        assert value("cos(0)", 0.0) == pytest.approx(1.0)

    def test_constants(self):
        assert value("sin(pi)", 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_scientific_literals(self):
        assert value("1.5e-3 + t", 0.0) == pytest.approx(0.0015)


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_identifier_with_offset(self):
        with pytest.raises(ParseError) as err:
            parse("2 + bogus")
        assert err.value.offset == 4

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse("2 + * 3")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("1 2")

    def test_missing_call_parens(self):
        with pytest.raises(ParseError, match="parenthesized"):
            parse("sin t")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("(1 + 2")

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 + $")
        assert err.value.offset == 4


# Each source with the grouping it must parse to, written in Python.
GROUPING_CASES = [
    ("t^2", lambda t: t**2),
    ("-t^2", lambda t: -(t**2)),
    ("2*t - sin(t)", lambda t: 2 * t - math.sin(t)),
    ("exp(-t)*t", lambda t: math.exp(-t) * t),
    ("1/(1+t^2)", lambda t: 1 / (1 + t**2)),
    ("sqrt(t) + abs(t - 0.5)", lambda t: math.sqrt(t) + abs(t - 0.5)),
    ("-(t + 1)", lambda t: -(t + 1)),
    ("2^3^t", lambda t: 2 ** (3**t)),
    ("t - -t", lambda t: t - (-t)),
]


class TestGrouping:
    @pytest.mark.parametrize(
        "source, reference", GROUPING_CASES, ids=[source for source, _ in GROUPING_CASES]
    )
    def test_tree_and_compiled_form_group_as_written(self, source, reference):
        tree = parse(source)
        for t in (0.1, 0.45, 0.9):
            assert evaluate(tree, t) == pytest.approx(reference(t), rel=1e-14, abs=1e-15)
            assert evaluated(tree, t) == pytest.approx(reference(t), rel=1e-14, abs=1e-15)


def finite_difference(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2 * h)


class TestDerivative:
    """as_fn1d's derivative: forward mode, with finite differences where it fails."""

    def test_power_rule(self):
        assert as_fn1d("t^2").derivative(3.0) == pytest.approx(6.0)

    def test_sine(self):
        assert as_fn1d("sin(t)").derivative(0.7) == pytest.approx(math.cos(0.7))

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_product_vs_finite_differences(self, t):
        tree = parse("exp(-t)*t")
        assert as_fn1d("exp(-t)*t").derivative(t) == pytest.approx(
            finite_difference(lambda u: evaluate(tree, u), t), abs=1e-6
        )

    @pytest.mark.parametrize(
        "source",
        ["t^3 - 2*t", "sin(2*t)*cos(t)", "1/(1+t)", "sqrt(t+1)", "log(t+2)", "t^t"],
    )
    @pytest.mark.parametrize("t", [0.15, 0.55, 0.85])
    def test_corpus_grid(self, source, t):
        tree = parse(source)
        expected = finite_difference(lambda u: evaluate(tree, u), t)
        assert as_fn1d(source).derivative(t) == pytest.approx(expected, rel=1e-6, abs=1e-6)

    def test_abs_away_from_zero(self):
        d = as_fn1d("abs(t - 0.5)").derivative
        assert d(0.8) == 1.0
        assert d(0.2) == -1.0

    def test_abs_at_kink_falls_back(self):
        f = as_fn1d("abs(t)")
        # the forward-mode derivative is 0/0 at the kink; fallback must return finite
        assert math.isfinite(f.derivative(0.0))

    def test_constant_folding_only(self):
        # 2*1.0 folds; 0.0*t stays, as the walk computes it
        d = as_fn1d("2*t").derivative
        assert d(123.0) == 2.0
        assert math.isnan(emitted_derivative(parse("2*t"))(math.inf))

    def test_compiled_once(self, monkeypatch):
        sources = []

        def counting(source, *args, **kwargs):
            sources.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(obw.expr, "compile", counting, raising=False)
        f = as_fn1d("exp(-t)*sin(3*t)")
        assert len(sources) == 1
        assert f(0.4) == math.exp(-0.4) * math.sin(1.2)
        assert f.derivative(0.4) == pytest.approx(
            math.exp(-0.4) * (3 * math.cos(1.2) - math.sin(1.2)), rel=1e-15
        )


class TestAsFn1d:
    def test_evaluator_and_derivative(self):
        f = as_fn1d("t^2 + sin(t)")
        assert f(0.5) == pytest.approx(0.25 + math.sin(0.5))
        assert f.derivative(0.5) == pytest.approx(1.0 + math.cos(0.5))

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_derivative_matches_differences(self, t):
        f = as_fn1d("exp(-t)*sin(3*t)")
        assert f.derivative(t) == pytest.approx(
            finite_difference(f.fn, t), rel=1e-5, abs=1e-6
        )

    # the fallback's step, h = eps^(1/3) max(1, |t|)
    FD_STEP = (2.0 ** -52) ** (1.0 / 3.0)

    def test_forward_stencil_where_central_leaves_the_domain(self):
        # d/dt sqrt(t)^3 reads 0.5 / sqrt(0) at t = 0, and sqrt(-h) has no real value
        f = as_fn1d("sqrt(t)^3")
        h = self.FD_STEP
        d = f.derivative(0.0)
        assert math.isfinite(d) and abs(d) < 2e-3
        assert d == (-3.0 * f(0.0) + 4.0 * f(h) - f(2 * h)) / (2 * h)

    def test_central_stencil_at_a_kink(self):
        # the symbolic derivative of abs(t - 0.5)^3 is 0/0 at t = 0.5
        f = as_fn1d("abs(t-0.5)^3")
        t, h = 0.5, self.FD_STEP
        forward = (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2 * h)) / (2 * h)
        assert f.derivative(t) == (f(t + h) - f(t - h)) / (2 * h) != forward


def _bits(v):
    # CPython's float paths may order a sum's operands either way, so which
    # NaN operand propagates is not defined: every NaN compares as one value
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def outcome(fn, *args):
    """The exact bits of fn's value, or the type of the exception it raised."""
    try:
        v = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    if isinstance(v, complex):
        return ("complex", _bits(v.real), _bits(v.imag))
    return ("float", _bits(v))


_LEAVES = st.one_of(
    st.just(Var()),
    st.builds(Num, st.floats()),
    st.builds(Num, st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 3.0, 1e308, math.nan, -math.nan])),
)
TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), kids, kids),
        st.builds(Call, st.sampled_from(sorted(_FUNCTIONS)), kids),
    ),
    max_leaves=40,
)
POINTS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0]))


def nested(kind, depth):
    """A tree `depth` levels deep of one node kind, and a loop computing it."""
    e, steps = Var(), []
    for k in range(depth):
        c = 1.0 / (k + 2)
        if kind == "call":
            e, step = Call("sin", e), math.sin
        elif kind == "neg":
            e, step = Neg(e), lambda v: -v
        elif kind == "left":
            e, step = BinOp("+", e, Num(c)), lambda v, c=c: v + c
        else:
            e, step = BinOp("^", Num(1.0 + c), e), lambda v, c=c: (1.0 + c) ** v
        steps.append(step)

    def loop(t):
        for step in steps:
            t = step(t)
        return t

    return e, loop


class TestCompile:
    @given(TREES, POINTS)
    @settings(max_examples=400, deadline=None)
    def test_matches_tree_walk(self, tree, t):
        assert outcome(compile_expr(tree), t) == outcome(evaluate, tree, t)

    @given(TREES, POINTS)
    @settings(max_examples=400, deadline=None)
    def test_derivative_matches_dual_number_walk(self, tree, t):
        # constants folded when the code is emitted, or left to raise, give
        # the walk's bits wherever the walk raises nothing
        try:
            _, expected = dual(tree, t)
        except (ArithmeticError, ValueError):
            return
        assert outcome(emitted_derivative(tree), t) == ("float", _bits(expected))

    @pytest.mark.parametrize("source, t, kind", [
        ("1/(t-0.5)", 0.5, ZeroDivisionError),
        ("log(t-2)", 0.3, ValueError),
        ("exp(1000*t)", 1.0, OverflowError),
        ("sqrt(t) - log(t) + 1/t", -1.0, ValueError),
    ])
    def test_same_exception(self, source, t, kind):
        tree = parse(source)
        assert outcome(compile_expr(tree), t) is kind
        assert outcome(evaluate, tree, t) is kind

    def test_folded_inf_constant(self):
        # 1e308*10 folds to inf; cos(0.5*inf) is a domain error either way
        tree = parse("sin(t*(1e308*10))")
        d = emitted_derivative(tree)
        assert "inf" in d.__code__.co_names
        assert outcome(d, 0.5) is ValueError
        assert outcome(dual, tree, 0.5) is ValueError

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -math.nan, -0.0, -1.5])
    def test_special_literals(self, value):
        fn = compile_expr(BinOp("+", Num(value), Num(0.0)))
        assert outcome(fn, 0.0) == outcome(lambda t: value + 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["call", "neg", "left", "right"])
    def test_deep_trees_compile(self, kind):
        # deeper than any tree the recursive parser can build
        tree, loop = nested(kind, 3 * sys.getrecursionlimit())
        assert outcome(compile_expr(tree), -0.25) == outcome(loop, -0.25)

    def test_deep_derivative_is_shared(self):
        f = as_fn1d("sin(" * 400 + "t" + ")" * 400)
        v, dv = 0.3, 1.0
        for _ in range(400):
            v, dv = math.sin(v), math.cos(v) * dv
        assert f(0.3) == v
        assert f.derivative(0.3) == pytest.approx(dv, rel=1e-12)

    def test_no_builtins_reachable(self):
        fn = compile_expr(parse("abs(t) + 1"))
        assert fn.__globals__["__builtins__"] == {}
        assert set(fn.__code__.co_names) == {"abs"}


@pytest.mark.parametrize("tree", [
    Call("__import__", Var()),
    BinOp("**", Var(), Num(2.0)),
])
def test_compile_rejects_names_outside_the_language(tree):
    with pytest.raises((ValueError, KeyError)):
        compile_expr(tree)


_FINITE_LEAVES = st.one_of(
    st.just(Var()),
    st.builds(Num, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(Num, st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 3.0, 1e308])),
)
FINITE_TREES = st.recursive(
    _FINITE_LEAVES,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), kids, kids),
        st.builds(Call, st.sampled_from(sorted(_FUNCTIONS)), kids),
    ),
    max_leaves=40,
)


class TestGrid:
    """The compiled source run on numpy's functions, over an array of t."""

    TS = np.array([0.05, 0.3, 0.5, 0.77, 0.95])

    @pytest.mark.parametrize("source", [
        "sin(3*t) + cos(5*t)^2", "exp(1.3*t) * log(t + 0.7)", "sqrt(t + 0.4) / (t + 2)",
        "abs(t - 0.37)^3", "(t + 0.2)^2.5 - (t + 1)^-3", "(t + 0.5)^t",
    ])
    def test_grid_matches_the_scalar_derivative(self, source):
        # numpy's exp, log and pow may round differently from math's
        d = as_fn1d(source).derivative
        np.testing.assert_allclose(d.grid(self.TS), [d(t) for t in self.TS], rtol=1e-13)

    def test_constant_derivative_has_the_shape_of_t(self):
        grid = as_fn1d("3*t - 1").derivative.grid(self.TS)
        assert grid.shape == self.TS.shape
        assert (grid == 3.0).all()

    def test_ieee_values_where_the_scalar_derivative_falls_back(self):
        # 0.5 / sqrt(0) raises for a float t; the scalar derivative then
        # takes a forward difference
        d = as_fn1d("sqrt(t)").derivative
        with np.errstate(divide="ignore"):
            grid = d.grid(np.array([0.0, 0.25]))
        assert grid.tolist() == [math.inf, 1.0]
        assert math.isfinite(d(0.0))

    @given(FINITE_TREES, POINTS)
    @settings(max_examples=300, deadline=None)
    def test_clean_array_run_means_a_finite_scalar_value(self, tree, t):
        # norm_inf's grid path rests on this for _d: with finite literals, an
        # array run that raises no floating-point error and ends finite is a
        # point where the scalar function raises nothing and is finite
        code = _code(tree)
        scalar, array = _bind(code, _NAMESPACE), _bind(code, _NP_NAMESPACE)
        for name in ("_f", "_d"):
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                try:
                    v = np.asarray(array[name](np.array([t])))
                except ArithmeticError:  # a constant subtree is a Python float
                    continue
            if np.isfinite(v).all():
                assert math.isfinite(scalar[name](t))
