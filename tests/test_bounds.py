import math
import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from obw.bounds import (
    _hat_fn,
    _paper_factors,
    audit_paper_vs_exact,
    bound_set,
    bounds_cerone,
    bounds_dragomir,
    bounds_exact,
    bounds_paper,
    corollary_bounds,
    kernel_norms,
    sharpness_search,
    sign_kernel_fn,
)
from obw.corpus import corpus_functions, corpus_weights
from obw.expr import compile_expr, parse
from obw.functionals import tau
from obw.kernel import TauParams, kernel_l1, kernel_sup, peano_kernel
from obw.norms import Triple, norm_triple
from obw.quadrature import Fn1D
from obw.weights import Weight, builtin_weight, tabulated_weight


def unit_norms():
    return Triple(inf=1.0, p=1.0, one=1.0)


def params_at(x, alpha=1.0, beta=1.0):
    return TauParams(a=0.0, b=1.0, x=x, alpha=alpha, beta=beta)


class TestPaperBounds:
    def test_reduces_to_unweighted_value(self, uniform):
        triple = bounds_paper(params_at(0.3), uniform, unit_norms(), 2.0)
        assert triple.inf == pytest.approx(0.25, abs=1e-12)

    def test_one_branch_equal_coefficients(self, expdecay):
        triple = bounds_paper(params_at(0.4), expdecay, unit_norms(), 2.0)
        assert triple.one == pytest.approx(0.5, abs=1e-14)

    def test_dominates_quadratic_deviation(self, uniform, quadratic):
        norms = Triple(inf=2.0, p=2 / math.sqrt(3), one=1.0)
        triple = bounds_paper(params_at(0.5), uniform, norms, 2.0)
        assert triple.inf == pytest.approx(0.5, abs=1e-12)
        assert abs(tau(quadratic, uniform, params_at(0.5))) <= triple.inf


class TestExactBounds:
    def test_uniform_weight_coincides_with_paper(self, uniform):
        for x in (0.3, 0.5, 0.8):
            for coeffs in ((1.0, 1.0), (2.0, 1.0)):
                params = params_at(x, *coeffs)
                paper = bounds_paper(params, uniform, unit_norms(), 2.0)
                exact = bounds_exact(kernel_norms(params, uniform, 2.0), unit_norms())
                assert exact.inf == pytest.approx(paper.inf, abs=1e-9)
                assert exact.p == pytest.approx(paper.p, abs=1e-9)
                assert exact.one == pytest.approx(paper.one, abs=1e-9)

    def test_decreasing_weight_gap(self, decreasing):
        params = params_at(0.9)
        paper = bounds_paper(params, decreasing, unit_norms(), 2.0)
        exact = bounds_exact(kernel_norms(params, decreasing, 2.0), unit_norms())
        assert exact.inf == pytest.approx(0.303030303, abs=1e-8)
        assert paper.inf == pytest.approx(0.090909091, abs=1e-8)

    def test_zero_function(self, uniform):
        f = Fn1D(fn=lambda t: 0.0, derivative=lambda t: 0.0)
        result = bound_set(f, uniform, params_at(0.5), 2.0)
        assert result.deviation == pytest.approx(0.0, abs=1e-12)
        assert all(v >= 0 for v in result.exact)

    def test_holder_chain_composition(self, expdecay):
        from obw.kernel import kernel_l1

        params = params_at(0.3, alpha=2.0, beta=1.0)
        norms = Triple(inf=7.0, p=1.0, one=1.0)
        exact = bounds_exact(kernel_norms(params, expdecay, 2.0), norms)
        assert exact.inf == pytest.approx(7.0 * kernel_l1(params, expdecay), abs=1e-12)

    def test_norm_homogeneity(self, uniform):
        params = params_at(0.4)
        base = bounds_exact(kernel_norms(params, uniform, 2.0), unit_norms())
        scaled_norms = Triple(inf=3.0, p=3.0, one=3.0)
        scaled = bounds_exact(kernel_norms(params, uniform, 2.0), scaled_norms)
        for b0, b1 in zip(base, scaled):
            assert b1 == pytest.approx(3.0 * b0, abs=1e-10)

    def test_bound_set_is_kernel_norms_times_derivative_norms(self):
        # the product the paper states, taken as it is
        for w in corpus_weights():
            for f in corpus_functions()[3:5]:
                for p in (1.5, 3.0):
                    params = params_at(0.3, alpha=2.0, beta=1.0)
                    result = bound_set(f, w, params, p)
                    assert result.exact == bounds_exact(kernel_norms(params, w, p), result.norms)


class TestKernelNorms:
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_norms_of_rho_at_the_conjugate_exponent(self, p):
        # (||rho||_1, ||rho||_q, ||rho||_inf), q = p / (p - 1), against
        # 40-point Gauss-Legendre on each branch and rho on both sides of x
        nodes, gl_weights = leggauss(40)
        q = p / (p - 1.0)
        params = params_at(0.3, alpha=2.0, beta=1.0)
        for w in corpus_weights():
            def branch_integral(fn):
                total = 0.0
                for lo, hi in ((0.0, 0.3), (0.3, 1.0)):
                    half = 0.5 * (hi - lo)
                    total += half * sum(
                        wk * fn(lo + half * (nk + 1.0)) for nk, wk in zip(nodes, gl_weights)
                    )
                return total

            rho = partial(peano_kernel, params, w)
            kernel = kernel_norms(params, w, p)
            assert kernel.inf == pytest.approx(branch_integral(lambda t: abs(rho(t))), rel=1e-10)
            assert kernel.p == pytest.approx(
                branch_integral(lambda t: abs(rho(t)) ** q) ** (1.0 / q), rel=1e-7
            )
            assert kernel.one == pytest.approx(max(abs(rho(0.3)), abs(rho(0.3 + 1e-12))), rel=1e-9)


class TestLegacyBounds:
    def test_two_coefficient_value(self):
        triple = bounds_cerone(0.3, 2.0, 1.0, 0, 1, unit_norms(), 2.0)
        assert triple.inf == pytest.approx(0.2166666667, abs=1e-9)

    def test_equal_coefficients_x_independent(self):
        v1 = bounds_cerone(0.2, 1.0, 1.0, 0, 1, unit_norms(), 2.0).inf
        v2 = bounds_cerone(0.7, 1.0, 1.0, 0, 1, unit_norms(), 2.0).inf
        assert v1 == pytest.approx(0.25, abs=1e-14)
        assert v2 == pytest.approx(0.25, abs=1e-14)

    def test_one_sided_l1_branch(self):
        triple = bounds_cerone(0.5, 1.0, 0.0, 0, 1, unit_norms(), 2.0)
        assert triple.one == pytest.approx(1.0, abs=1e-14)

    def test_single_point_midpoint(self):
        triple = bounds_dragomir(0.5, 0, 1, unit_norms(), 2.0)
        assert triple.inf == pytest.approx(0.25, abs=1e-14)
        assert triple.one == pytest.approx(0.5, abs=1e-14)

    def test_single_point_endpoint(self):
        triple = bounds_dragomir(0.0, 0, 1, unit_norms(), 2.0)
        assert triple.one == pytest.approx(1.0, abs=1e-14)

    def test_classic_sup_bound(self):
        # the original Ostrowski bound, sharp constant 1/4 at the midpoint
        assert bounds_dragomir(0.5, 0, 1, unit_norms(), 2.0).inf == pytest.approx(0.25)
        assert bounds_dragomir(0.0, 0, 1, unit_norms(), 2.0).inf == pytest.approx(0.5)
        zero = Triple(inf=0.0, p=1.0, one=1.0)
        assert bounds_dragomir(0.3, 0, 1, zero, 2.0).inf == 0.0


class TestCorollaries:
    def test_equal_coeffs_is_substitution(self, expdecay, sine):
        lhs, triple = corollary_bounds("equal_coeffs", sine, expdecay, 2.0, 0, 1, x=0.3)
        params = params_at(0.3)
        norms = norm_triple(sine, 2.0, 0, 1)
        general = bounds_paper(params, expdecay, norms, 2.0)
        for got, want in zip(triple, general):
            assert got == pytest.approx(want, abs=1e-12)
        assert lhs == pytest.approx(abs(tau(sine, expdecay, params)), abs=1e-12)

    def test_midpoint_uniform_value(self, uniform, sine):
        _, triple = corollary_bounds(
            "midpoint", sine, uniform, 2.0, 0, 1, alpha=2.0, beta=1.0
        )
        norms = norm_triple(sine, 2.0, 0, 1)
        assert triple.inf == pytest.approx(0.25 * norms.inf, abs=1e-10)

    def test_midpoint_equal_agrees_with_single_point(self, uniform, quadratic):
        lhs, triple = corollary_bounds("midpoint_equal", quadratic, uniform, 2.0, 0, 1)
        norms = norm_triple(quadratic, 2.0, 0, 1)
        legacy = bounds_dragomir(0.5, 0, 1, norms, 2.0)
        assert triple.inf == pytest.approx(legacy.inf, abs=1e-12)
        assert lhs <= triple.inf

    def test_unknown_mode(self, uniform, quadratic):
        with pytest.raises(ValueError, match="unknown corollary mode"):
            corollary_bounds("nope", quadratic, uniform, 2.0, 0, 1)


class TestSharpness:
    def test_sign_kernel_attains_uniform(self, uniform):
        best, _ = sharpness_search(uniform, [0.5], [(1.0, 1.0)])
        assert best.ratio == pytest.approx(1.0, abs=1e-3)

    def test_sign_kernel_attains_any_weight(self, expdecay):
        best, _ = sharpness_search(expdecay, [0.3], [(2.0, 1.0)])
        assert best.ratio == pytest.approx(1.0, abs=1e-3)

    def test_tie_break_toward_smaller_x(self, uniform):
        best, rows = sharpness_search(uniform, [0.3, 0.5, 0.7], [(1.0, 1.0)])
        # all ratios are ~1 here, so the tie resolves to the smallest x
        assert best.x == 0.3

    def test_l1_kind_reported_below_one(self, uniform):
        best, _ = sharpness_search(uniform, [0.5], [(1.0, 1.0)], kind="exact_one")
        assert 0.5 < best.ratio <= 1.0 + 1e-9

    def test_unknown_kind(self, uniform):
        with pytest.raises(ValueError, match="unknown sharpness kind"):
            sharpness_search(uniform, [0.5], [(1.0, 1.0)], kind="bogus")

    @pytest.mark.parametrize("xs, pairs, name", [
        ([], [(1.0, 1.0)], "x_grid"), ([0.5], [], "coeff_grid"), ([], [], "x_grid"),
    ])
    def test_empty_grid_is_named(self, uniform, xs, pairs, name):
        with pytest.raises(ValueError, match=rf"^sharpness_search: {name} is empty$"):
            sharpness_search(uniform, iter(xs), iter(pairs))

    @pytest.mark.parametrize("pair", [(1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("p, q", [(-0.55, 0.58), (-0.37, -0.36)])
    def test_sign_kernel_ratio_is_one_on_power_weights(self, p, q, pair):
        # the sign kernel attains the bound, |tau| = ||rho||_1, on both shapes
        # of the corpus-sweep power weights; a branch integral off by 1e-11
        # would be divided by a mass m(x, b) of about 3e-3 near b
        w = builtin_weight("power", 0, 1, p=p, q=q)
        _, rows = sharpness_search(w, [k / 30 for k in range(1, 30)], [pair], kind="exact_inf")
        assert max(abs(row.ratio - 1.0) for row in rows) <= 1e-12


class TestAudit:
    def test_uniform_rows_unflagged(self, uniform):
        rows = audit_paper_vs_exact([uniform], [0.25, 0.5, 0.75], [(1.0, 1.0)])
        assert all(not r.flagged for r in rows)
        assert all(r.ratio == pytest.approx(1.0, abs=1e-8) for r in rows)

    def test_decreasing_flagged_with_witness(self, decreasing):
        rows = audit_paper_vs_exact([decreasing], [0.9], [(1.0, 1.0)])
        (row,) = rows
        assert row.flagged
        assert row.ratio == pytest.approx(0.3, abs=1e-6)
        assert row.paper_inf_factor == pytest.approx(0.0909091, abs=1e-5)
        assert row.exact_inf_factor == pytest.approx(0.3030303, abs=1e-5)
        # the sign-kernel witness (unit sup-norm derivative) exceeds the printed bound
        params = params_at(0.9)
        assert abs(tau(sign_kernel_fn(params), decreasing, params)) > row.paper_inf_factor

    def test_increasing_near_right_end_looser_unflagged(self, increasing):
        rows = audit_paper_vs_exact([increasing], [0.95], [(1.0, 1.0)])
        (row,) = rows
        assert row.ratio > 1.0
        assert not row.flagged

    @pytest.mark.parametrize("name, kwargs", [
        ("decreasing", {}), ("arcsine", {}), ("power", {"p": -0.3}),
        ("exponential", {}), ("truncnorm", {}),
    ], ids=["decreasing", "arcsine", "power:p=-0.3", "exponential", "truncnorm"])
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_witness_checks_out(self, name, kwargs, x):
        # Hoelder's equality: |tau(sign kernel)| is the exact factor the audit reports
        w = builtin_weight(name, 0.0, 1.0, **kwargs)
        params = params_at(x)
        dev = abs(tau(sign_kernel_fn(params), w, params))
        (row,) = audit_paper_vs_exact([w], [x], [(1.0, 1.0)])
        assert dev == pytest.approx(kernel_l1(params, w), abs=1e-8)
        assert dev == pytest.approx(row.exact_inf_factor, abs=1e-8)


class TestSoundnessSweep:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_exact_bounds_dominate(self, p):
        for w in corpus_weights()[:3]:
            for f in corpus_functions()[1::2]:
                params = params_at(0.7, alpha=2.0, beta=1.0)
                result = bound_set(f, w, params, p)
                dev = abs(result.deviation)
                for bound in result.exact:
                    assert dev <= bound * (1 + 1e-9) + 1e-12


def sweep_weights():
    return [
        builtin_weight("uniform", 0.0, 1.0),
        builtin_weight("exponential", 0.0, 1.0, lam=1.7),
        builtin_weight("truncnorm", 0.0, 1.0, sigma=0.3),
        builtin_weight("power", 0.0, 1.0, p=-0.3),
        builtin_weight("arcsine", 0.0, 1.0),
        tabulated_weight("1 + t^2", compile_expr(parse("1 + t^2")), 0.0, 1.0),
    ]


def sweep_pairs():
    rng = random.Random(15)
    return [(1.0, 0.0), (0.0, 1.0), *((rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)) for _ in "ab")]


SWEEP_XS = (0.05, 0.37, 0.5, 0.93)


def row_reference(sweep, w):
    """The numbers of one sweep row, computed on their own in the sweep's order."""
    if sweep == "audit":
        return lambda params: (
            float(_paper_factors(params, w, 2.0).inf), float(kernel_l1(params, w))
        )
    if sweep == "exact_inf":
        return lambda params: (
            kernel_l1(params, w), abs(tau(sign_kernel_fn(params), w, params))
        )
    return lambda params: (kernel_sup(params, w), abs(tau(_hat_fn(params), w, params)))


def run_sweep(sweep, w, xs, pairs):
    if sweep == "audit":
        return audit_paper_vs_exact([w], xs, pairs)
    return sharpness_search(w, xs, pairs, kind=sweep)[1]


@pytest.mark.parametrize("sweep", ["audit", "exact_inf", "exact_one"])
@pytest.mark.parametrize("w", sweep_weights(), ids=lambda w: w.name)
class TestSweepRows:
    """Each sweep row is bit-equal to the same row computed on its own."""

    def test_rows_equal_their_reference(self, w, sweep):
        reference = row_reference(sweep, w)
        rows = run_sweep(sweep, w, SWEEP_XS, sweep_pairs())
        assert [(r.x, r.alpha, r.beta) for r in rows] == [
            (x, *pair) for x in SWEEP_XS for pair in sweep_pairs()
        ]
        for row in rows:
            first, second = reference(params_at(row.x, row.alpha, row.beta))
            if sweep == "audit":
                assert (row.paper_inf_factor, row.exact_inf_factor) == (first, second)
                assert row.ratio == first / second
                assert row.flagged == (first / second < 1.0 - 1e-9)
            else:
                assert row.ratio == second / first

    @pytest.mark.parametrize("x, before, bad", [
        (0.5, sweep_pairs(), (-1.0, 2.0)),
        (5e-324, [(0.0, 1.0), (0.0, 2.0)], (1.0, 1.0)),
    ], ids=["negative-alpha", "left-branch-without-mass"])
    def test_bad_pair_raises_as_its_row_does(self, w, sweep, x, before, bad):
        # the pairs before it take the quantities that the bad pair reads again
        with pytest.raises((ValueError, ArithmeticError)) as expected:
            row_reference(sweep, w)(params_at(x, *bad))
        with pytest.raises(type(expected.value)) as got:
            run_sweep(sweep, w, [x], [*before, bad])
        assert str(got.value) == str(expected.value)


@st.composite
def sharpness_sweeps(draw):
    """A built-in weight of every family on a random domain, an x grid with
    points within 1e-12 of a and of b, and pairs with zero coefficients."""
    a = draw(st.sampled_from([0.0, -1.5, 2.0]))
    b = a + draw(st.sampled_from([1.0, 0.3, 4.0]))
    name, kwargs = draw(st.sampled_from([
        ("uniform", {}), ("increasing", {}), ("decreasing", {}), ("arcsine", {}),
        ("power", {"p": draw(st.floats(-0.9, 2.0)), "q": draw(st.floats(-0.9, 2.0))}),
        ("exponential", {"lam": draw(st.floats(-5.0, 5.0))}),
        ("truncnorm", {"mu": a + (b - a) * draw(st.floats(-0.5, 1.5)),
                       "sigma": (b - a) * draw(st.floats(0.02, 1.0))}),
    ]))
    near = st.floats(0.0, 1e-12)
    inside = st.floats(a, b)
    x = st.one_of(inside, inside, inside, near.map(lambda d: a + d), near.map(lambda d: b - d))
    coef = st.one_of(st.just(0.0), st.floats(0.1, 5.0))
    pair = st.tuples(coef, coef).filter(lambda pair: pair != (0.0, 0.0))
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    return builtin_weight(name, a, b, **kwargs), draw(st.lists(x, min_size=1, max_size=4)), pairs


@pytest.mark.parametrize("sweep", ["exact_inf", "exact_one"])
@given(case=sharpness_sweeps())
@settings(max_examples=60, deadline=None)
def test_sharpness_rows_are_their_row_references(sweep, case):
    # every ratio is bit-equal to kernel_l1 or kernel_sup against tau of the
    # witness, computed on its own; where a row fails, the sweep raises what
    # the first failing row raises
    w, xs, pairs = case
    reference = row_reference(sweep, w)
    expected = []
    try:
        for x in xs:
            for alpha, beta in pairs:
                bound, dev = reference(TauParams(w.a, w.b, x, alpha, beta))
                expected.append(dev / bound if bound > 0 else 0.0)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            sharpness_search(w, xs, pairs, kind=sweep)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    _, rows = sharpness_search(w, xs, pairs, kind=sweep)
    assert [(r.x, r.alpha, r.beta) for r in rows] == [(x, *pair) for x in xs for pair in pairs]
    assert [repr(r.ratio) for r in rows] == [repr(ratio) for ratio in expected]


class TestHatWitness:
    @pytest.mark.parametrize("name, kwargs", [
        ("uniform", {}), ("arcsine", {}), ("power", {"p": -0.4, "q": 0.3}),
    ], ids=["uniform", "arcsine", "power:p=-0.4,q=0.3"])
    @pytest.mark.parametrize("x", [0.25, 0.5, 0.75])
    def test_tau_is_its_sweep_row(self, name, kwargs, x):
        # the hat carries its kinks, so tau splits where the sweep splits;
        # unsplit, tau read 1 on the uniform weight at x = 0.25, not 0.998
        w = builtin_weight(name, 0.0, 1.0, **kwargs)
        pairs = [(1.0, 0.0), (0.0, 1.0)]
        _, rows = sharpness_search(w, [x], pairs, kind="exact_one")
        for row, pair in zip(rows, pairs):
            params = params_at(x, *pair)
            assert abs(tau(_hat_fn(params), w, params)) / kernel_sup(params, w) == row.ratio

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.75])
    def test_ratio_sees_the_ramp(self, uniform, x):
        # on [a, x] the hat's f is 0, then a ramp of width delta up to 1 at x,
        # so its left mean is delta / (2 x): the ratio is 1 - delta / (2 x);
        # mirrored, 1 - delta / (2 (1 - x))
        _, rows = sharpness_search(uniform, [x], [(1.0, 0.0), (0.0, 1.0)], kind="exact_one")
        assert rows[0].ratio == pytest.approx(1.0 - 1e-3 / (2 * x), abs=1e-13)
        assert rows[1].ratio == pytest.approx(1.0 - 1e-3 / (2 * (1 - x)), abs=1e-13)


def column_weights():
    """Every built-in family and an expression weight."""
    return [
        builtin_weight("uniform", 0.0, 1.0),
        builtin_weight("exponential", 0.0, 1.0, lam=2.3),
        builtin_weight("truncnorm", 0.0, 1.0, mu=0.2, sigma=0.15),
        builtin_weight("power", 0.0, 1.0, p=-0.49, q=0.7),
        builtin_weight("increasing", 0.0, 1.0),
        builtin_weight("decreasing", 0.0, 1.0),
        builtin_weight("arcsine", 0.0, 1.0),
        tabulated_weight("2 + sin(5*t)", compile_expr(parse("2 + sin(5*t)")), 0.0, 1.0),
    ]


COLUMN_XS = [k / 100 for k in range(1, 100)]
COLUMN_PAIRS = [(1.0, 0.0), (0.0, 1.0), (1e-200, 1.0), (1.0, 1.0), (2.91, 0.37)]


class TestAuditColumns:
    """The audit's columns against each row's factors computed on their own."""

    @pytest.mark.parametrize("w", column_weights(), ids=lambda w: w.name)
    def test_rows_bit_equal_to_their_reference(self, w):
        rows = audit_paper_vs_exact([w], COLUMN_XS, COLUMN_PAIRS)
        assert len(rows) == len(COLUMN_XS) * len(COLUMN_PAIRS)
        for row in rows:
            paper, exact = audit_row_alone(w, row.x, (row.alpha, row.beta))
            assert (row.paper_inf_factor, row.exact_inf_factor) == (paper, exact)
            assert row.ratio == paper / exact
            assert row.flagged is (paper / exact < 1.0 - 1e-9)

    def test_every_weight_in_order(self):
        ws = column_weights()[:3]
        rows = audit_paper_vs_exact(ws, COLUMN_XS[:2], COLUMN_PAIRS[:2])
        assert [(r.weight_name, r.x, r.alpha, r.beta) for r in rows] == [
            (w.name, x, *pair) for w in ws for x in COLUMN_XS[:2] for pair in COLUMN_PAIRS[:2]
        ]
        assert all(type(v) is float for r in rows for v in (r.paper_inf_factor, r.ratio))
        assert audit_paper_vs_exact(ws, [2.0], []) == []  # no row reads w(2)

    @pytest.mark.parametrize("w", column_weights()[:4], ids=lambda w: w.name)
    def test_lp_bracket_overflow_raises_as_its_row(self, w):
        # coef ** q of the L_p bracket overflows; no audit column reads it
        with pytest.raises(OverflowError) as expected:
            _paper_factors(params_at(COLUMN_XS[0], 0.0, 1e200), w, 2.0)
        with pytest.raises(OverflowError) as got:
            audit_paper_vs_exact([w], COLUMN_XS, [*COLUMN_PAIRS, (0.0, 1e200)])
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("xs, pairs, error", [
        # a branch without mass at the first x, a coefficient error at the second
        ([5e-324, 0.5], [(1.0, 1.0), (-1.0, 2.0)], "zero weight mass on [0.0, 5e-324]"),
        ([0.5, 5e-324], [(1.0, 1.0), (-1.0, 2.0)], "coefficients must be finite"),
        # a branch error at the last x, after a row that needs no left branch
        ([0.5, 1.0], [(0.0, 1.0), (1.0, 0.0)], "beta > 0 requires x < b"),
        ([0.5, 5e-324], [(0.0, 1.0), (1.0, 0.0)], "zero weight mass on [0.0, 5e-324]"),
        # the L_p overflow and a coefficient error in the same x, either way round
        ([0.5], [(0.0, 1e200), (-1.0, 2.0)], "Numerical result out of range"),
        ([0.5], [(-1.0, 2.0), (0.0, 1e200)], "coefficients must be finite"),
        # a coefficient error before the first row that weights a massless side
        ([5e-324], [(0.0, 1.0), (-1.0, 2.0), (1.0, 1.0)], "coefficients must be finite"),
    ], ids=["mass-then-coef", "coef-then-mass", "branch-rule", "mass-at-last-x",
            "overflow-then-coef", "coef-then-overflow", "coef-before-mass"])
    def test_first_failing_row_raises(self, xs, pairs, error):
        w = builtin_weight("decreasing", 0.0, 1.0)
        with pytest.raises((ValueError, ArithmeticError)) as got:
            audit_paper_vs_exact([w], xs, pairs)
        assert error in str(got.value)
        for x in xs:
            for pair in pairs:
                try:
                    audit_row_alone(w, x, pair)
                except (ValueError, ArithmeticError) as alone:
                    assert (type(got.value), str(got.value)) == (type(alone), str(alone))
                    return
        pytest.fail("no row fails on its own")

    def test_unweighted_side_never_taken(self, monkeypatch):
        taken = []
        w = builtin_weight("power", 0.0, 1.0, p=0.5)

        def counted_l1(anchor, x, cfg, moment_l1=w.moment_l1):
            taken.append(("l1", anchor, x))
            return moment_l1(anchor, x, cfg)

        w = replace(w, moment_l1=counted_l1)
        mass = Weight.mass

        def counted_mass(self, c, d):
            taken.append(("mass", c, d))
            return mass(self, c, d)

        monkeypatch.setattr(Weight, "mass", counted_mass)
        audit_paper_vs_exact([w], [0.25, 0.75], [(1.0, 0.0), (2.0, 0.0)])
        assert taken == [
            ("mass", 0.0, 0.25), ("l1", 0.0, 0.25), ("mass", 0.0, 0.75), ("l1", 0.0, 0.75)
        ]


def audit_row_alone(w, x, pair):
    """The numbers of one audit row, each computed on its own."""
    params = TauParams(a=w.a, b=w.b, x=x, alpha=pair[0], beta=pair[1])
    return float(_paper_factors(params, w, 2.0).inf), float(kernel_l1(params, w))
