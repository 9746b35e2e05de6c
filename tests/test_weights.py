import math
import random
from dataclasses import replace
from functools import cache, partial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obw.bounds import _hat
from obw.quadrature import (
    DegenerateIntervalError,
    Fn1D,
    QuadConfig,
    QuadratureError,
    cumulative,
    integrate,
    weighted_mean,
)
from obw.weights import (
    DomainError,
    Weight,
    WeightSpecError,
    _phi,
    builtin_weight,
    tabulated_weight,
)


def numeric_moment(w, c, d):
    """Independent oracle: moment without the closed form."""
    return w.integrate_against(lambda t: 1.0, c, d)


class TestEval:
    def test_uniform(self):
        w = builtin_weight("uniform", 0, 1)
        assert w.eval(0.3) == 1.0

    def test_boundary_vanishing(self):
        w = builtin_weight("decreasing", 0, 1)
        assert w.eval(1.0) == 0.0

    def test_exponential(self):
        w = builtin_weight("exponential", 0, 1, lam=1.0)
        assert w.eval(0.5) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_outside_domain(self):
        w = builtin_weight("uniform", 0, 1)
        with pytest.raises(DomainError):
            w.eval(1.5)


class TestMoment:
    def test_uniform_unit(self):
        w = builtin_weight("uniform", 0, 1)
        assert w.moment(0, 1) == pytest.approx(1.0, abs=1e-14)

    def test_exponential_closed_form(self):
        w = builtin_weight("exponential", 0, 1, lam=1.0)
        assert w.moment(0, 1) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_oriented_sign_flip(self):
        w = builtin_weight("decreasing", 0, 1)
        assert w.moment(1.0, 0.9) == pytest.approx(-0.005, abs=1e-12)

    def test_antisymmetry(self):
        w = builtin_weight("increasing", 0, 1)
        assert w.moment(0.2, 0.7) == pytest.approx(-w.moment(0.7, 0.2), abs=1e-14)

    def test_point_moment_exact_zero(self):
        for name in ("uniform", "increasing", "exponential"):
            w = builtin_weight(name, 0, 1)
            assert w.moment(0.37, 0.37) == 0.0

    @given(
        c=st.floats(0.0, 1.0),
        mid=st.floats(0.0, 1.0),
        d=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, c, mid, d):
        w = builtin_weight("exponential", 0, 1, lam=2.0)
        total = w.moment(c, d)
        assert w.moment(c, mid) + w.moment(mid, d) == pytest.approx(total, abs=1e-10)

    @given(c=st.floats(0.0, 1.0), d=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_uniform_is_length(self, c, d):
        w = builtin_weight("uniform", 0, 1)
        assert w.moment(c, d) == pytest.approx(d - c, abs=1e-14)


def _exponential_reference(lam, c, d, x=None):
    """mpmath's int_c^d e^(-lam s) ds at 40 digits, or with x the L1
    branch int |x - s| e^(-lam s) ds over the same stretch."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        if x is None:
            return mpmath.quad(lambda s: mpmath.exp(-lam * s), [c, d])
        return mpmath.quad(lambda s: abs(x - s) * mpmath.exp(-lam * s), [c, d])


class TestExponentialExtremeRates:
    """Where lam h or (lam h)^2 is not a normal float, the masses and L1
    branches take their leading term; elsewhere they are the closed forms."""

    @pytest.mark.parametrize("lam", [2e-154, 1e-170, -1e-200, 1e-310, 1e-320, 5e-324])
    def test_masses_and_branches_against_mpmath(self, lam):
        w = builtin_weight("exponential", 0, 1, lam=lam)
        for x in (1e-3, 0.3, 0.5, 0.97):
            cases = [(w.mass(0.0, x), _exponential_reference(lam, 0, x)),
                     (w.mass(x, 1.0), _exponential_reference(lam, x, 1)),
                     (w.moment_l1(0.0, x, QuadConfig()), _exponential_reference(lam, 0, x, x)),
                     (w.moment_l1(1.0, x, QuadConfig()), _exponential_reference(lam, x, 1, x))]
            for got, ref in cases:
                assert abs(got - ref) <= 1e-15 * abs(ref), (x, got, ref)

    @pytest.mark.parametrize("lam", [1e-150, 1e-3, 1.35, 30.0, -2.0])
    def test_normal_rates_keep_the_closed_forms(self, lam):
        w = builtin_weight("exponential", 0, 1, lam=lam)
        rng = random.Random(38)
        for x in (rng.uniform(1e-3, 1 - 1e-3) for _ in range(50)):
            for c, d in ((0.0, x), (x, 1.0)):
                closed = -math.exp(-lam * c) * math.expm1(-lam * (d - c)) / lam
                assert w.moment(c, d).hex() == closed.hex()
            for anchor in (0.0, 1.0):
                l1 = math.exp(-lam * anchor) * _phi(lam * (x - anchor)) / (lam * lam)
                assert w.moment_l1(anchor, x, QuadConfig()).hex() == l1.hex()

    def test_long_domain_with_a_subnormal_square_rate(self):
        # lam^2 = 0 while (lam h)^2 = 1e-300 is normal: the branch is still
        # h^2 / 2 to double precision
        w = builtin_weight("exponential", 0, 1e20, lam=1e-170)
        assert w.moment_l1(0.0, 1e20, QuadConfig()) == pytest.approx(5e39, rel=1e-15)
        assert w.mass(0.0, 1e20) == pytest.approx(1e20, rel=1e-15)

    @pytest.mark.parametrize("a, b, lam", [(0, 1, -1000.0), (0, 1, -710.0), (-1, 0, 710.0),
                                           (0.5, 0.72, -1000.0)])
    def test_overflow_names_the_weight_and_domain(self, a, b, lam):
        with pytest.raises(ValueError, match=rf"exponential\(lam={lam:g}\) on \[{a:g}, {b:g}\]"):
            builtin_weight("exponential", a, b, lam=lam)


class TestBuiltins:
    def test_uniform_closed(self):
        w = builtin_weight("uniform", 0, 1)
        assert w.closed_moment(0.2, 0.9) == pytest.approx(0.7, abs=1e-14)

    def test_power_linear(self):
        w = builtin_weight("power", 0, 1, p=1, q=0)
        assert w.eval(0.4) == pytest.approx(0.4, abs=1e-12)
        assert w.closed_moment(0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_arcsine_moment_is_pi(self):
        w = builtin_weight("power", 0, 1, p=-0.5, q=-0.5)
        assert w.moment(0, 1) == pytest.approx(math.pi, abs=1e-10)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown weight"):
            builtin_weight("nope", 0, 1)

    def test_nonintegrable_power(self):
        with pytest.raises(ValueError, match="integrability"):
            builtin_weight("power", 0, 1, p=-1.0, q=0.0)

    @pytest.mark.parametrize("p, q, named", [
        (math.nan, 0.0, "p=nan"), (math.inf, 0.0, "p=inf"), (-math.inf, 0.0, "p=-inf"),
        (0.5, math.nan, "q=nan"), (0.5, math.inf, "q=inf"),
    ])
    def test_non_finite_power_exponent(self, p, q, named):
        # NaN and inf pass `p <= -1`; the check names the exponent and its value
        with pytest.raises(ValueError, match=f"finite exponent, got {named}$"):
            builtin_weight("power", 0, 1, p=p, q=q)

    @pytest.mark.parametrize("name, params, named", [
        ("exponential", {"lam": math.nan}, "lam=nan"),
        ("exponential", {"lam": math.inf}, "lam=inf"),
        ("exp", {"lam": -math.inf}, "lam=-inf"),
        ("truncnorm", {"sigma": math.nan}, "sigma=nan"),
        ("truncnorm", {"sigma": math.inf}, "sigma=inf"),
        ("truncnorm", {"mu": math.nan, "sigma": 0.2}, "mu=nan"),
    ])
    def test_non_finite_parameter(self, name, params, named):
        # NaN passes `sigma <= 0`, and a NaN lam gave "zero weight mass"
        with pytest.raises(ValueError, match=f"^{name} weight requires a finite parameter, "
                                             f"got {named}$"):
            builtin_weight(name, 0, 1, **params)

    def test_unknown_parameter_comes_before_its_value(self):
        # a usage error (WeightSpecError), whatever the value
        with pytest.raises(WeightSpecError, match="unknown parameter 'foo'"):
            builtin_weight("exponential", 0, 1, foo=math.nan)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("uniform", {}),
            ("increasing", {}),
            ("decreasing", {}),
            ("exponential", {"lam": 1.0}),
            ("truncnorm", {}),
            ("arcsine", {}),
        ],
    )
    def test_closed_matches_numeric(self, name, params):
        w = builtin_weight(name, 0, 1, **params)
        for c, d in [(0.0, 1.0), (0.1, 0.8), (0.5, 0.6), (0.9, 0.2)]:
            assert w.closed_moment(c, d) == pytest.approx(
                numeric_moment(w, c, d), abs=1e-9
            )

    def test_nonnegative_on_samples(self):
        for name in ("uniform", "increasing", "decreasing", "exponential", "truncnorm"):
            w = builtin_weight(name, 0, 1)
            assert all(w.eval(k / 100) >= 0 for k in range(101))


class TestSingularIntegration:
    def test_arcsine_against_smooth_function(self):
        # int_0^1 t / sqrt(t(1-t)) dt = pi / 2
        w = builtin_weight("arcsine", 0, 1)
        val = w.integrate_against(lambda t: t, 0, 1)
        assert val == pytest.approx(math.pi / 2, abs=1e-9)

    def test_left_singular_only(self):
        # int_0^1 t^(-1/2) dt = 2
        w = builtin_weight("power", 0, 1, p=-0.5, q=0.0)
        assert numeric_moment(w, 0, 1) == pytest.approx(2.0, abs=1e-9)


def _power_integrals(p, q):
    """int_0^x s^k s^p (1-s)^q ds for k = 0, 1, by the regularized beta function."""
    from scipy.special import beta, betainc

    return (
        lambda x: beta(p + 1, q + 1) * betainc(p + 1, q + 1, x),
        lambda x: beta(p + 2, q + 1) * betainc(p + 2, q + 1, x),
    )


def _closed_integrals(name, params):
    """(int_0^x w, int_0^x s w(s) ds) on [0, 1], from closed forms."""
    if name == "uniform":
        return lambda x: x, lambda x: x * x / 2
    if name == "increasing":
        return lambda x: x * x / 2, lambda x: x**3 / 3
    if name == "decreasing":
        return lambda x: x - x * x / 2, lambda x: x * x / 2 - x**3 / 3
    if name == "exponential":
        lam = params["lam"]
        return (
            lambda x: -math.expm1(-lam * x) / lam,
            lambda x: (1 - math.exp(-lam * x) * (lam * x + 1)) / lam**2,
        )
    if name == "truncnorm":
        mu, sigma = params["mu"], params["sigma"]
        amp, s2 = sigma * math.sqrt(math.pi / 2), sigma * math.sqrt(2)
        w = lambda x: math.exp(-0.5 * ((x - mu) / sigma) ** 2)  # noqa: E731
        m0 = lambda x: amp * (math.erf((x - mu) / s2) + math.erf(mu / s2))  # noqa: E731
        return m0, lambda x: mu * m0(x) - sigma**2 * (w(x) - w(0.0))
    if name == "arcsine":
        return _power_integrals(-0.5, -0.5)
    return _power_integrals(params["p"], params["q"])


class TestCumulative:
    """Weight.cumulative against closed forms, every query within abs_tol."""

    WEIGHTS = [
        ("uniform", {}),
        ("increasing", {}),
        ("decreasing", {}),
        ("exponential", {"lam": 1.7}),
        ("truncnorm", {"mu": 0.45, "sigma": 0.3}),
        ("arcsine", {}),
        ("power", {"p": -0.4, "q": 0.0}),
        ("power", {"p": -0.49, "q": 0.7}),
        ("power", {"p": 0.5, "q": -0.3}),
    ]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("g_index", [0, 1], ids=["g=1", "g=t"])
    @pytest.mark.parametrize("c, d", [(0.0, 1.0), (0.15, 0.85)])
    @pytest.mark.parametrize("name, params", WEIGHTS, ids=[f"{n}{p}" for n, p in WEIGHTS])
    def test_against_closed_forms(self, name, params, c, d, g_index, tol):
        w = builtin_weight(name, 0, 1, **params)
        g = (lambda t: 1.0, lambda t: t)[g_index]
        primitive = _closed_integrals(name, params)[g_index]
        table = w.cumulative(g, c, d, QuadConfig(abs_tol=tol))
        for k in range(61):
            x = c + (d - c) * k / 60
            assert abs(table(x) - (primitive(x) - primitive(c))) <= tol, x

    def test_matches_integrate_against(self):
        w = builtin_weight("arcsine", 0, 1)
        g = lambda t: math.exp(t) * math.cos(3 * t)  # noqa: E731
        table = w.cumulative(g, 0.0, 1.0)
        for x in (0.01, 0.3, 0.5, 0.77, 0.999):
            assert table(x) == pytest.approx(w.integrate_against(g, 0.0, x), abs=2e-10)

    def test_outside_is_rejected(self):
        table = builtin_weight("uniform", 0, 1).cumulative(lambda t: 1.0, 0.2, 0.6)
        with pytest.raises(ValueError, match="outside"):
            table(0.7)

    def test_empty_interval(self):
        table = builtin_weight("arcsine", 0, 1).cumulative(lambda t: 1.0, 0.4, 0.4)
        assert table(0.4) == 0.0


def _area_reference(name, params, g):
    """mpmath's int_0^1 (1 - s) g(s) w(s) ds, the integral of t -> int_0^t g w
    over [0, 1]; a power weight's halves are taken in u = s^(1+p) and
    v = (1-s)^(1+q), where the integrand is smooth enough for mpmath."""
    with mpmath.workdps(30):
        if name == "truncnorm":
            w = lambda s: mpmath.exp(-0.5 * ((s - 0.5) / 0.25) ** 2)  # noqa: E731
            return float(mpmath.quad(lambda s: (1 - s) * g(s) * w(s), [0, 0.5, 1]))
        p, q = {"uniform": (0, 0), "increasing": (1, 0), "arcsine": (-0.5, -0.5)}.get(
            name, (params.get("p", 1.0), params.get("q", 0.0))
        )
        p, q = mpmath.mpf(p), mpmath.mpf(q)

        def left(u):
            s = u ** (1 / (1 + p))
            return (1 - s) * g(s) * (1 - s) ** q / (1 + p)

        def right(v):
            s = 1 - v ** (1 / (1 + q))
            return (1 - s) * g(s) * s**p / (1 + q)

        half = mpmath.mpf(0.5)
        return float(mpmath.quad(left, [0, half ** (1 + p)])
                     + mpmath.quad(right, [0, half ** (1 + q)]))


class TestCumulativeArea:
    """Weight.cumulative(g, a, b).area() = int_a^b of the table, from its leaves."""

    WEIGHTS = [
        ("arcsine", {}),
        ("power", {"p": -0.4}),
        ("power", {"p": -0.4, "q": 0.3}),
        ("power", {"p": 0.5, "q": -0.3}),
        ("power", {"p": -0.8, "q": -0.7}),
        ("uniform", {}),
        ("increasing", {}),
        ("truncnorm", {}),
    ]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("name, params", WEIGHTS, ids=[f"{n}{p}" for n, p in WEIGHTS])
    def test_against_mpmath(self, name, params, tol):
        # every query is within tol, so the area over [0, 1] is too
        w = builtin_weight(name, 0, 1, **params)
        cfg = QuadConfig(abs_tol=tol)
        table = w.cumulative(lambda t: math.exp(t) * math.cos(3 * t), 0.0, 1.0, cfg)
        ref = _area_reference(name, params, lambda t: mpmath.exp(t) * mpmath.cos(3 * t))
        assert abs(table.area() - ref) <= tol

    def test_end_leaf_at_d_only(self):
        # [0.2, 1] reaches the algebraic end at 1 only: int_0.2^1 m(0.2, t) dt
        # = int_0.2^1 (1 - s) w(s) ds
        table = builtin_weight("arcsine", 0, 1).cumulative(lambda t: 1.0, 0.2, 1.0)
        with mpmath.workdps(30):
            ref = mpmath.quad(lambda s: (1 - s) / mpmath.sqrt(s * (1 - s)), [0.2, 1])
        assert abs(table.area() - float(ref)) <= 1e-10

    def test_plain_pieces_on_a_subinterval(self):
        # int_0.2^0.7 (t - 0.2) dt on the uniform weight
        table = builtin_weight("uniform", 0, 1).cumulative(lambda t: 1.0, 0.2, 0.7)
        assert table.area() == pytest.approx(0.125, abs=1e-15)

    def test_empty_interval(self):
        assert builtin_weight("arcsine", 0, 1).cumulative(lambda t: 1.0, 0.4, 0.4).area() == 0.0


# Positive terms on [0, 1], each in the functions of a module m (math for the
# table, mpmath for the reference) and a parameter k drawn from its range.
# "kink" is not smooth at t = k, which the reference takes as a break; it is
# not drawn, as a kink in the sliver between a leaf's outermost node and its
# end is invisible to the leaf's values (ROADMAP item 6).
_TEMPLATES = {
    "exp": ((-3.0, 3.0), lambda m, k: lambda t: m.exp(k * t)),
    "reciprocal": ((0.05, 1.0), lambda m, k: lambda t: 1 / (t + k)),
    "sqrt": ((0.01, 1.0), lambda m, k: lambda t: m.sqrt(t + k)),
    "trig": ((1.0, 15.0), lambda m, k: lambda t: 1.5 + m.sin(k * t)),
    "power": ((-2.0, 3.0), lambda m, k: lambda t: (t + 0.5) ** k),
    "kink": ((0.1, 0.9), lambda m, k: lambda t: abs(t - k) + 0.1),
}
_TERMS = st.lists(
    st.one_of(*(
        st.tuples(st.just(kind), st.floats(*bounds), st.floats(0.2, 2.0))
        for kind, (bounds, _) in _TEMPLATES.items() if kind != "kink"
    )),
    min_size=1,
    max_size=3,
)


def _sum_of_terms(terms, m):
    parts = [(coef, _TEMPLATES[kind][1](m, k)) for kind, k, coef in terms]
    return lambda t: sum(coef * part(t) for coef, part in parts)


def _cumulative_reference(name, params, g, ts, breaks):
    """mpmath's int_0^t g w at each t of ts (ascending from 0 to 1, through
    0.5); `breaks` are points of t where g is not smooth. A power weight's
    halves are taken in u = t^(1+p) and v = (1-t)^(1+q), where the integrand
    has no singular end and is smooth enough for mpmath."""
    refs, acc = [0.0], mpmath.mpf(0)
    with mpmath.workdps(20):
        if name in ("arcsine", "power"):
            p, q = (-0.5, -0.5) if name == "arcsine" else (params["p"], params["q"])
            ep, eq = mpmath.mpf(1 + p), mpmath.mpf(1 + q)

            def left(u):
                s = u ** (1 / ep)
                return g(s) * (1 - s) ** q / ep

            def right(v):
                s = 1 - v ** (1 / eq)
                return g(s) * s**p / eq

        else:
            w = {
                "uniform": lambda t: 1,
                "truncnorm": lambda t: mpmath.exp(
                    -0.5 * ((t - params["mu"]) / params["sigma"]) ** 2),
                "exponential": lambda t: mpmath.exp(-params["lam"] * t),
            }[name]
        for lo, hi in zip(ts, ts[1:]):
            points = [mpmath.mpf(t) for t in (lo, *(b for b in breaks if lo < b < hi), hi)]
            # tanh-sinh where a substituted variable meets its end, which
            # Gauss-Legendre would resolve slowly
            method = "tanh-sinh" if lo == 0 or hi == 1 else "gauss-legendre"
            if name not in ("arcsine", "power"):
                acc += mpmath.quad(lambda t: g(t) * w(t), points, method=method)
            elif hi <= 0.5:
                acc += mpmath.quad(left, [t**ep for t in points], method=method)
            else:
                acc += mpmath.quad(right, [(1 - t) ** eq for t in reversed(points)], method=method)
            refs.append(float(acc))
    return refs


class TestCumulativeAccuracy:
    """Weight.cumulative of random sums of smooth terms, every query on 201
    points within abs_tol of mpmath: the leaves' tail-coefficient estimate
    is a heuristic, and this is its check."""

    WEIGHTS = [
        ("uniform", {}),
        ("arcsine", {}),
        ("power", {"p": -0.4, "q": 0.0}),
        ("power", {"p": 0.5, "q": -0.3}),
        ("power", {"p": -0.4, "q": 0.3}),
        ("power", {"p": -0.8, "q": -0.7}),
        ("truncnorm", {"mu": 0.2, "sigma": 0.05}),
        ("exponential", {"lam": 30.0}),
    ]

    @pytest.mark.parametrize("name, params", WEIGHTS, ids=[f"{n}{p}" for n, p in WEIGHTS])
    @given(terms=_TERMS)
    @example(terms=[("kink", 0.437, 1.0)])
    @settings(max_examples=4, deadline=None)
    def test_queries_against_mpmath(self, name, params, terms):
        w = builtin_weight(name, 0, 1, **params)
        ts = [k / 200 for k in range(201)]
        breaks = [k for kind, k, _ in terms if kind == "kink"]
        refs = _cumulative_reference(name, params, _sum_of_terms(terms, mpmath), ts, breaks)
        g = _sum_of_terms(terms, math)
        for tol in (1e-9, 1e-12):
            table = w.cumulative(g, 0.0, 1.0, QuadConfig(abs_tol=tol))
            worst = max(abs(table(t) - ref) for t, ref in zip(ts, refs))
            assert worst <= tol, (tol, worst)


class TestEndLeaves:
    """A table's leaves at the power family's algebraic ends: queries next
    to each end, inside those leaves, within abs_tol of mpmath."""

    WEIGHTS = [
        ("arcsine", {}, (0, -1)),
        ("power", {"p": -0.4, "q": 0.0}, (0,)),
        ("power", {"p": -0.4, "q": 0.3}, (0, -1)),
        ("power", {"p": 0.5, "q": -0.3}, (0, -1)),
        ("power", {"p": -0.8, "q": -0.7}, (0, -1)),
    ]
    TS = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.02, 0.1, 0.5, 0.9, 0.98, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9,
          1.0]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("name, params, leaves", WEIGHTS,
                             ids=[f"{n}{p}" for n, p, _ in WEIGHTS])
    def test_queries_next_to_the_ends(self, name, params, leaves, tol):
        g = lambda t: math.exp(t) * math.cos(3 * t)  # noqa: E731
        refs = _cumulative_reference(
            name, params, lambda t: mpmath.exp(t) * mpmath.cos(3 * t), self.TS, [])
        table = builtin_weight(name, 0, 1, **params).cumulative(g, 0.0, 1.0, QuadConfig(abs_tol=tol))
        last = len(table._lefts) - 1
        assert set(table._ends) == {last if i < 0 else i for i in leaves}
        for t, ref in zip(self.TS, refs):
            assert abs(table(t) - ref) <= tol, t
        # the points next to the ends lie in the end leaves
        assert table._lefts[1] > 1e-3 and table._lefts[last] < 1 - 1e-3


class TestWeightedMeanNextToTheEnds:
    """weighted_mean on power weights within 1e-13 relative of mpmath, on
    ranges that reach an end, lie within 1e-9 of one, or cross the middle."""

    EXPONENTS = [(-0.5, -0.5), (-0.4, 0.3), (0.5, -0.3), (-0.8, -0.7), (-0.49, 0.7), (1.5, 0.58)]
    RANGES = [(0.0, 1e-9), (0.0, 1e-3), (1e-9, 0.3), (0.0, 0.3), (1 - 1e-9, 1.0), (0.7, 1.0),
              (0.2, 0.8), (0.0, 1.0), (1e-9, 1.0), (0.3, 0.5 + 1e-9), (0.7, 1 - 1e-9),
              (1e-9, 1 - 1e-9), (0.7, 1 - 1e-6), (1 - 5e-9, 1 - 1e-9), (1 - 3e-6, 1 - 1e-6)]
    # f = 1 + s - 2 s^2 + s^3, s = t - a: its mean is a sum of incomplete Beta integrals
    COEFFICIENTS = (1.0, 1.0, -2.0, 1.0)

    def mean_and_reference(self, p, q, c, d, a=0.0):
        """On [a, a + 1]; c and d are offsets from a."""
        w = builtin_weight("power", a, a + 1, p=p, q=q)
        c, d = a + c, a + d
        terms = list(enumerate(self.COEFFICIENTS))
        f = lambda t: sum(coef * (t - a) ** n for n, coef in terms)  # noqa: E731
        with mpmath.workdps(40):
            def beta(n):
                return mpmath.betainc(p + 1 + n, q + 1, mpmath.mpf(c) - a, mpmath.mpf(d) - a)

            mass = float(beta(0))
            ref = float(sum(coef * beta(n) for n, coef in terms) / beta(0))
        if mass < 1e-13 * w.total:  # a positive exponent leaves no mass next to its end
            with pytest.raises(DegenerateIntervalError):
                weighted_mean(f, w, c, d)
            return None, None
        return weighted_mean(f, w, c, d, QuadConfig(abs_tol=1e-15 * mass)), ref

    @pytest.mark.parametrize("c, d", RANGES)
    @pytest.mark.parametrize("p, q", EXPONENTS)
    def test_against_mpmath(self, p, q, c, d):
        mean, ref = self.mean_and_reference(p, q, c, d)
        if mean is not None:
            assert abs(mean - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("c, d", [(1e-9, 0.3), (1e-9, 5e-9), (0.7, 1 - 1e-9),
                                      (1 - 5e-9, 1 - 1e-9)])
    @pytest.mark.parametrize("p, q", [(-0.5, -0.5), (-0.8, 0.58)])
    def test_on_a_domain_away_from_zero(self, p, q, c, d):
        # on [1, 2] a float next to either end is placed no finer than
        # ulp(1) / 2, a large share of a distance of 1e-9
        mean, ref = self.mean_and_reference(p, q, c, d, a=1.0)
        if mean is not None:
            assert abs(mean - ref) <= 1e-13 * abs(ref)


# The largest Kronrod abscissa on [-1, 1]: a kink between it and a panel's
# end is seen by none of the panel's nodes.
_LAST_NODE = 0.991455371120812639206854697526329


def _sliver_kink(lo, hi):
    """The middle of the sliver between the panel [lo, hi]'s last node and
    hi: a point of t that none of the panel's 15 nodes sees. For an end
    panel, whose nodes are mapped from the end lo, it is the same sliver."""
    half = 0.5 * (hi - lo)
    return lo + half + half * (1 + _LAST_NODE) / 2


class TestKinks:
    """`integrate_against` splits at an `Fn1D`'s kinks inside [c, d]."""

    # (name, params, the first panel of int_0^1 g w): both ends of arcsine and
    # of the power weight are algebraic, so their first panel is the end
    # panel on [0, 0.5]
    WEIGHTS = [("uniform", {}, 1.0), ("arcsine", {}, 0.5), ("power", {"p": -0.4, "q": 0.3}, 0.5)]

    @pytest.mark.parametrize("name, params, hi", WEIGHTS, ids=[w[0] for w in WEIGHTS])
    def test_kink_in_the_sliver_against_mpmath(self, name, params, hi):
        k = _sliver_kink(0.0, hi)
        w = builtin_weight(name, 0, 1, **params)
        g = lambda t: abs(t - k) + 0.1  # noqa: E731
        ref = _cumulative_reference(
            name, params, lambda t: abs(t - k) + mpmath.mpf(0.1), [0.0, 0.5, 1.0], [k]
        )[-1]
        cfg = QuadConfig(abs_tol=1e-12)
        assert abs(w.integrate_against(Fn1D(fn=g, kinks=(k,)), 0.0, 1.0, cfg) - ref) <= 1e-12
        # unsplit, no node of the first panel sees the kink
        assert abs(w.integrate_against(g, 0.0, 1.0, cfg) - ref) > 1e-8

    def test_one_integral_with_the_kinks_as_breaks(self):
        w = builtin_weight("arcsine", 0, 1)
        # a repeated kink, and kinks at or outside [c, d], are no breaks
        f = Fn1D(fn=lambda t: abs(t - 0.3) + abs(t - 0.8),
                 kinks=(-1.0, 0.1, 0.3, 0.3, 0.8, 0.9, 1.0))
        g = lambda t: f.fn(t) * w.fn(t)  # noqa: E731
        expected = integrate(g, 0.1, 0.9, breaks=(0.3, 0.8), ends=w.ends)[0]
        assert w.integrate_against(f, 0.1, 0.9) == expected
        # reversed, the kinks are kept
        assert w.integrate_against(f, 0.9, 0.1) == -expected



def _stepped(fn):
    """f = 2 up to 0.3, fn on [0.3, 0.6] and -1.5 past it, with its levels."""
    return Fn1D(fn=lambda t: 2.0 if t < 0.3 else -1.5 if t > 0.6 else fn(t),
                kinks=(0.3, 0.6), levels=(2.0, None, -1.5))


class TestLevels:
    """`integrate_against` takes an `Fn1D`'s constant spans from the
    weight's moments and integrates only the rest."""

    @pytest.mark.parametrize("name, params", [("uniform", {}), ("arcsine", {}),
                                              ("exponential", {"lam": 2.0})])
    def test_moments_plus_the_quadrature_of_the_rest(self, name, params):
        w = builtin_weight(name, 0, 1, **params)
        f = _stepped(math.sin)
        ramp = integrate(lambda t: math.sin(t) * w.fn(t), 0.3, 0.6, ends=w.ends)[0]
        expected = 0.0 + 2.0 * w.moment(0.1, 0.3) + ramp + -1.5 * w.moment(0.6, 0.9)
        assert w.integrate_against(f, 0.1, 0.9) == expected
        assert w.integrate_against(f, 0.9, 0.1) == -expected  # reversed
        # [c, d] inside one span: a constant reads its moment alone
        assert w.integrate_against(f, 0.65, 0.8) == -1.5 * w.moment(0.65, 0.8)
        assert w.integrate_against(f, 0.35, 0.5) == integrate(
            lambda t: math.sin(t) * w.fn(t), 0.35, 0.5, ends=w.ends)[0]

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_hat_is_evaluated_on_its_ramp_only(self, up):
        # the uniform weight's hat at x = 0.25: one G7/K15 panel on the ramp
        hat = _hat(0.0, 1.0, 0.25, up)
        seen = []
        counted = replace(hat, fn=lambda t: seen.append(t) or hat.fn(t))
        lo, hi = hat.kinks
        value = builtin_weight("uniform", 0, 1).integrate_against(counted, 0.0, 1.0)
        assert len(seen) == 15 and all(lo < t < hi for t in seen)
        # +-(delta / 2 on the ramp, and the plateau's mass m(0.25, 1) or m(0.251, 1))
        assert value == pytest.approx(0.0005 + 0.75 if up else -0.0005 - 0.749, abs=1e-15)

    def test_two_runs_within_abs_tol_of_mpmath(self, monkeypatch):
        # f is smooth on [0, 0.3] and [0.6, 1] and 0.5 between: two runs,
        # each with half of abs_tol, on a weight with two algebraic ends
        name, params = "power", {"p": -0.4, "q": 0.3}
        w = builtin_weight(name, 0, 1, **params)
        f = Fn1D(fn=lambda t: math.cos(3 * t) if t < 0.3 else 0.5 if t <= 0.6 else math.exp(t),
                 kinks=(0.3, 0.6), levels=(None, 0.5, None))
        g = lambda t: mpmath.cos(3 * t) if t < 0.3 else 0.5 if t <= 0.6 else mpmath.exp(t)  # noqa: E731
        ref = _cumulative_reference(name, params, g, [0.0, 0.5, 1.0], [0.3, 0.6])[-1]
        calls = []

        def recorded(g, c, d, cfg, **kwargs):
            calls.append((c, d, cfg.abs_tol))
            return integrate(g, c, d, cfg, **kwargs)

        monkeypatch.setattr("obw.weights.integrate", recorded)
        cfg = QuadConfig(abs_tol=1e-12)
        assert abs(w.integrate_against(f, 0.0, 1.0, cfg) - ref) <= 1e-12
        assert calls == [(0.0, 0.3, 5e-13), (0.6, 1.0, 5e-13)]

    def test_adjacent_non_constant_spans_are_one_run(self, monkeypatch):
        calls = []

        def recorded(g, c, d, cfg, breaks=(), **kwargs):
            calls.append((c, d, tuple(breaks), cfg.abs_tol))
            return integrate(g, c, d, cfg, breaks, **kwargs)

        monkeypatch.setattr("obw.weights.integrate", recorded)
        f = Fn1D(fn=lambda t: abs(t - 0.5) if t > 0.2 else 0.0, kinks=(0.2, 0.5, 0.5),
                 levels=(0.0, None, 1.0, None))
        builtin_weight("uniform", 0, 1).integrate_against(f, 0.0, 1.0)
        # a zero level adds nothing; the empty span [0.5, 0.5] parts no run
        assert calls == [(0.2, 1.0, (0.5,), 1e-10)]

    def test_quadrature_error_names_the_callers_interval(self):
        f = _stepped(lambda t: math.sin(1000 * t))
        with pytest.raises(QuadratureError, match=r"^integral of f\*w on \[0\.1, 0\.9\]: "):
            builtin_weight("uniform", 0, 1).integrate_against(
                f, 0.1, 0.9, QuadConfig(abs_tol=1e-14, max_subdivisions=2))

    def test_without_levels_is_one_integrate(self):
        # every span a run: one integrate over [c, d] at cfg, with the
        # kinks inside it as breaks, its value bit for bit
        w = builtin_weight("power", 0, 1, p=-0.4, q=0.3)
        f = Fn1D(fn=math.cos, kinks=(-0.5, 0.3, 0.6, 2.0))
        cfg = QuadConfig(abs_tol=1e-12)
        expected = integrate(lambda t: math.cos(t) * w.fn(t), 0.1, 0.9, cfg, breaks=[0.3, 0.6],
                             ends=w.ends)[0]
        assert w.integrate_against(f, 0.1, 0.9, cfg) == expected
        assert w.integrate_against(f, 0.4, 0.4, cfg) == 0.0

    def test_a_tabulated_weights_plateau_reads_its_table(self):
        # a constant span has the accuracy of the weight's moment: a table
        # built to 1e-8 is read as it is, whatever the caller's abs_tol
        w = tabulated_weight("1 + t", lambda t: 1 + t, 0.0, 1.0, QuadConfig(abs_tol=1e-8))
        f = Fn1D(fn=lambda t: 1.0, kinks=(0.5,), levels=(None, 1.0))
        cfg = QuadConfig(abs_tol=1e-14)
        head = integrate(lambda t: 1 + t, 0.2, 0.5, cfg)[0]
        assert w.integrate_against(f, 0.2, 0.9, cfg) == head + w.moment(0.5, 0.9)

    @pytest.mark.parametrize("kinks, levels", [((0.5,), (1.0,)), ((), (1.0, None)),
                                               ((0.2, 0.4), (1.0, None, 2.0, 3.0))])
    def test_levels_of_the_wrong_length_are_rejected(self, kinks, levels):
        with pytest.raises(ValueError, match=r"^levels must hold len\(kinks\) \+ 1 = "):
            Fn1D(fn=lambda t: t, kinks=kinks, levels=levels)


def _kink_primitive(t):
    # int_0^t (|s - 0.37| + 0.1) ds
    return 0.1 * t + ((t - 0.37) * abs(t - 0.37) + 0.37 * 0.37) / 2


class TestTabulatedWeight:
    CASES = [
        ("1 + t", lambda t: 1 + t, lambda t: t + t * t / 2),
        ("exp(t)", math.exp, math.exp),
        ("abs(t - 0.37) + 0.1", lambda t: abs(t - 0.37) + 0.1, _kink_primitive),
    ]
    PAIRS = [(0.0, 1.0), (1.0, 0.0), (0.0, 0.37), (0.37, 1.0), (0.2, 0.9), (0.9, 0.2),
             (0.61, 0.05), (0.5, 0.5)]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("name, fn, primitive", CASES, ids=[c[0] for c in CASES])
    def test_moments_match_closed_forms(self, name, fn, primitive, tol):
        w = tabulated_weight(name, fn, 0.0, 1.0, QuadConfig(abs_tol=tol))
        for c, d in self.PAIRS:
            assert abs(w.moment(c, d) - (primitive(d) - primitive(c))) <= tol, (c, d)
        assert abs(w.total - (primitive(1.0) - primitive(0.0))) <= tol

    def test_requires_a_below_b(self):
        with pytest.raises(ValueError, match="a < b"):
            tabulated_weight("one", lambda t: 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)])
    def test_requires_finite_domain(self, a, b):
        with pytest.raises(ValueError, match=rf"finite a < b, got \[{a:g}, {b:g}\]"):
            tabulated_weight("one", lambda t: 1.0, a, b)


@pytest.mark.parametrize("name", ["uniform", "decreasing", "exponential", "truncnorm"])
@pytest.mark.parametrize("a, b", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
                                  (0.0, math.nan)])
def test_builtin_weight_requires_finite_domain(name, a, b):
    with pytest.raises(ValueError, match=r"weight domain requires finite a < b"):
        builtin_weight(name, a, b)


_BUILDERS = {
    **{name: partial(builtin_weight, name) for name in
       ("uniform", "decreasing", "arcsine", "power", "exponential", "truncnorm")},
    "tabulated": partial(tabulated_weight, "one", lambda t: 1.0),
}


@pytest.mark.parametrize("maker", _BUILDERS.values(), ids=list(_BUILDERS))
@pytest.mark.parametrize("a, b", [(0.0, 1e-300), (-1e-160, 1e-160), (0.0, 1.49e-154)])
def test_domain_whose_squared_length_underflows_is_rejected(maker, a, b):
    # (b - a)^2 below the smallest normal float: a branch's integral of t
    # underflows, so a weighted mean would read 0 where it is about x
    with pytest.raises(ValueError, match=r"weight domain \[.*\] is too short: \(b - a\)\^2 underflows"):
        maker(a, b)


# where p + q = 1, the L1 branch's scale (b - a)^3 = 3.4e-462 underflows: the
# decreasing weight printed exact_inf = 0 below |tau| on this domain
_SHORTEST_REFUSED = {"decreasing": "p=0, q=1", "power": "p=1, q=0"}


@pytest.mark.parametrize("name", list(_BUILDERS))
def test_shortest_domain_is_accepted(name):
    if name in _SHORTEST_REFUSED:
        with pytest.raises(ValueError) as error:
            _BUILDERS[name](0.0, 1.5e-154)
        assert str(error.value) == (f"weight domain [0, 1.5e-154] is too short for "
                                    f"{_SHORTEST_REFUSED[name]}: (b - a)^3 underflows")
        return
    w = _BUILDERS[name](0.0, 1.5e-154)  # (b - a)^2 = 2.25e-308, just above 2.2250738585072014e-308
    assert w.b - w.a == 1.5e-154


@pytest.mark.parametrize("maker", _BUILDERS.values(), ids=list(_BUILDERS))
@pytest.mark.parametrize("a, b", [(-1e200, 1e200), (0.0, 1.35e154)])
def test_domain_whose_squared_length_overflows_is_rejected(maker, a, b):
    # (b - a)^2 above the largest float: the uniform weight's moment_l1 raised
    # an unnamed OverflowError
    with pytest.raises(ValueError, match=r"weight domain \[.*\] is too long: \(b - a\)\^2 overflows"):
        maker(a, b)


def test_longest_domain_is_accepted():
    w = builtin_weight("uniform", 0.0, 1.3e154)  # (b - a)^2 = 1.69e308, below the largest float
    assert w.moment_l1(0.0, w.b, None) == 0.5 * 1.3e154**2


@pytest.mark.parametrize("name, params, b, message", [
    ("decreasing", {}, 1e110, "too long for p=0, q=1: (b - a)^3 overflows"),
    ("power", {"p": 2.0, "q": 1.0}, 1e110, "too long for p=2, q=1: (b - a)^4 overflows"),
    ("power", {"p": 200.0, "q": 0.0}, 100.0, "too long for p=200, q=0: (b - a)^201 overflows"),
    ("power", {"p": 200.0, "q": 0.0}, 0.01, "too short for p=200, q=0: (b - a)^201 underflows"),
    ("power", {"p": 3.0, "q": 3.0}, 1e-100, "too short for p=3, q=3: (b - a)^7 underflows"),
    ("power", {"p": 300.0, "q": 0.5}, 0.05, "too short for p=300, q=0.5: (b - a)^301.5 underflows"),
    ("power", {"p": 150.0, "q": 150.0}, 0.1,
     "too short for p=150, q=150: the mass (b - a)^301 B(151, 151) underflows"),
    ("power", {"p": 200.0, "q": 0.0}, 0.03,
     "too short for p=200, q=0: the mass (b - a)^201 B(201, 1) underflows"),
    ("decreasing", {}, 1.5e-154, "too short for p=0, q=1: (b - a)^3 underflows"),
], ids=["decreasing-long", "p2q1-long", "p200-long", "p200-short", "p3q3-short", "p300-short",
        "p150q150-total", "p200-subnormal-total", "decreasing-l1-short"])
def test_power_moment_scale_out_of_range_is_rejected(name, params, b, message):
    # (b - a)^(p + q + 1) scales every moment and (b - a)^(p + q + 2) the L1
    # branch: an overflow was an unnamed OverflowError, an underflow of the
    # first a zero mass on a domain that has one, and of the second an L1
    # branch of 0 (exact_inf = 0 below |tau|); so was the total's underflow,
    # where (b - a)^301 = 1e-301 is normal but B(151, 151) = 1e-92 takes it to
    # 0, and a subnormal total, 1.2e-308 on [0, 0.03] at p = 200, made a
    # branch's 1 / mass overflow (tau = -inf)
    with pytest.raises(ValueError) as error:
        builtin_weight(name, 0.0, b, **params)
    assert str(error.value) == f"weight domain [0, {b:g}] is {message}"


@pytest.mark.parametrize("name, params, b, refused", [
    ("decreasing", {}, 5e102, None),  # (b - a)^3 = 1.25e308
    ("arcsine", {}, 1e110, None),  # (b - a)^1
    ("power", {"p": 200.0, "q": 0.0}, 30.0, None),  # (b - a)^202 = 3.1e298
    # (b - a)^201 = 2.5e-306 is normal, but the total, that over 201, is not
    ("power", {"p": 200.0, "q": 0.0}, 0.03,
     "too short for p=200, q=0: the mass (b - a)^201 B(201, 1) underflows"),
    ("power", {"p": -0.9, "q": -0.9}, 1e-150, None),  # (b - a)^-0.8
], ids=["decreasing", "arcsine", "p200-long", "p200-short", "negative-power"])
def test_power_moment_scale_in_range_is_accepted(name, params, b, refused):
    if refused:
        with pytest.raises(ValueError) as error:
            builtin_weight(name, 0.0, b, **params)
        assert str(error.value) == f"weight domain [0, {b:g}] is {refused}"
        return
    w = builtin_weight(name, 0.0, b, **params)
    assert 0 < w.total < math.inf
    assert 0 < w.mass(0.5 * b, b) <= w.total


@cache
def _end_leaf_weight():
    """t^-0.4 (1 - t)^0.3 on [0, 1] read from a table whose leaves at 0 and
    at 1 take the algebraic end rule, as a tabulated weight reads its table."""
    fn = lambda t: t**-0.4 * (1.0 - t) ** 0.3  # noqa: E731
    table = cumulative(fn, 0.0, 1.0, QuadConfig(abs_tol=1e-12), ends=((0.0, -0.4), (1.0, 0.3)))
    assert set(table._ends) == {0, len(table._lefts) - 1}
    return Weight("ends", 0.0, 1.0, fn, lambda c, d: table(d) - table(c), None, table=table)


class TestMomentFrom:
    """`Weight.moment_from(anchor)`, the reader a kernel branch integrates, is
    closed_moment(anchor, t) bit for bit: for a table, one read less T(anchor)."""

    TABLES = {
        "1+t": (lambda t: 1.0 + t, 0.0, 1.0),
        "kink": (lambda t: abs(t - 0.37) + 0.1, 0.0, 1.0),
        "sqrt": (math.sqrt, 0.0, 1.0),
        "steep": (lambda t: math.exp(-100.0 * t), 0.0, 1.0),
        "wide": (lambda t: 1.0 + t, 0.0, 2.0),  # anchor 1.0 lies inside the table
    }

    @staticmethod
    def points(w):
        lefts = w.table._lefts
        rights = [*lefts[1:], w.b]
        mids = [0.5 * (u + v) for u, v in zip(lefts, rights)]
        near = [w.a + 1e-300, w.a + 1e-9, w.b - 1e-9, math.nextafter(w.b, w.a)]
        return [w.a, w.b, *lefts, *mids, *near]

    @staticmethod
    def weights():
        for name, (fn, a, b) in TestMomentFrom.TABLES.items():
            yield name, tabulated_weight(name, fn, a, b, QuadConfig(abs_tol=1e-12))
        yield "ends", _end_leaf_weight()

    def test_tables(self):
        for name, w in self.weights():
            anchors = (w.a, w.b, 1.0) if name == "wide" else (w.a, w.b)
            for anchor in anchors:
                read = w.moment_from(anchor)
                for t in [*self.points(w), anchor]:
                    assert read(t).hex() == w.closed_moment(anchor, t).hex(), (name, anchor, t)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_random_points_on_end_leaves(self, share):
        w = _end_leaf_weight()
        t = w.a + share * (w.b - w.a)
        for anchor in (w.a, w.b):
            assert w.moment_from(anchor)(t).hex() == w.closed_moment(anchor, t).hex()

    def test_outside_the_table_is_rejected(self):
        w = tabulated_weight("1+t", lambda t: 1.0 + t, 0.0, 1.0)
        with pytest.raises(ValueError, match="outside the table"):
            w.moment_from(0.0)(1.5)

    @pytest.mark.parametrize("name, params", [
        ("uniform", {}), ("arcsine", {}), ("power", {"p": -0.4, "q": 0.3}),
        ("exponential", {"lam": 1.7}), ("truncnorm", {"mu": 0.45, "sigma": 0.3}),
    ])
    def test_builtin_weights(self, name, params):
        w = builtin_weight(name, 0.0, 1.0, **params)
        for anchor in (0.0, 1.0):
            read = w.moment_from(anchor)
            for t in (0.0, 1e-9, 0.3, 0.5, 0.999, 1.0):
                assert read(t) == w.closed_moment(anchor, t)


class TestMass:
    def test_degenerate_branch_is_rejected(self):
        w = builtin_weight("decreasing", 0, 1)
        with pytest.raises(DegenerateIntervalError):
            w.mass(1 - 1e-8, 1)

    def test_mass_is_the_moment(self):
        w = builtin_weight("decreasing", 0, 1)
        assert w.mass(0.2, 0.7) == w.moment(0.2, 0.7)
        assert w.total == w.moment(0, 1)

    def test_zero_total_is_rejected(self):
        w = tabulated_weight("zero", lambda t: 0.0, 0, 1)
        with pytest.raises(DegenerateIntervalError):
            w.mass(0.2, 0.7)


# the power family's reference integrals at 60 digits, each read from its own
# end: int_0^z and int_z^1 of u^p (1-u)^q, and the L1 branches
# int_0^z (z - u) u^p (1-u)^q du and int_z^1 (u - z) u^p (1-u)^q du
def _power_references(p, q, z, a=0.0, b=1.0):
    """At t = z on [0, 1], or at t = z on [a, b] (then scaled to [0, 1])."""
    with mpmath.workdps(60):
        P, Q = mpmath.mpf(p), mpmath.mpf(q)
        Z, ZB = (z - mpmath.mpf(a)) / (b - a), (b - mpmath.mpf(z)) / (b - a)
        left = mpmath.betainc(P + 1, Q + 1, 0, Z)
        right = mpmath.betainc(Q + 1, P + 1, 0, ZB)
        return (float(left), float(right),
                float(Z * left - mpmath.betainc(P + 2, Q + 1, 0, Z)),
                float(ZB * right - mpmath.betainc(Q + 2, P + 1, 0, ZB)))


_NEAR = (1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.1, 0.15, 0.3, 0.49, 0.5)
_POWER_ZS = sorted({*_NEAR, *(1.0 - z for z in _NEAR), 0.17, 0.51, 0.7, 0.835, 0.84})


class TestBetaSeries:
    """The power family's moments from the incomplete Beta series, against
    mpmath at 60 digits."""

    WEIGHTS = [("increasing", 1.0, 0.0), ("decreasing", 0.0, 1.0), ("arcsine", -0.5, -0.5),
               ("power", -0.4, 0.0), ("power", 0.0, -0.38), ("power", 1.0, -0.33),
               ("power", -0.49, 0.7), ("power", 2.5, -0.31)]

    @pytest.mark.parametrize("name, p, q", WEIGHTS, ids=[f"{n}({p:g},{q:g})" for n, p, q in WEIGHTS])
    def test_against_mpmath_at_both_anchors(self, name, p, q):
        w = builtin_weight(name, 0.0, 1.0, **({"p": p, "q": q} if name == "power" else {}))
        for z in _POWER_ZS:
            left, right, l1_left, l1_right = _power_references(p, q, z)
            assert w.closed_moment(0.0, z) == pytest.approx(left, rel=2e-14, abs=0), z
            assert w.closed_moment(z, 1.0) == pytest.approx(right, rel=2e-14, abs=0), z
            assert w.moment_l1(0.0, z, None) == pytest.approx(l1_left, rel=2e-14, abs=0), z
            assert w.moment_l1(1.0, z, None) == pytest.approx(l1_right, rel=2e-14, abs=0), z

    @given(
        p=st.floats(-1.0, 3.0, exclude_min=True),
        q=st.floats(-1.0, 3.0, exclude_min=True),
        ts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        z=st.floats(1e-9, 1.0 - 1e-9),
    )
    @example(p=-0.5, q=-0.5, ts=[0.0, 0.5, 1.0], z=0.5)
    @example(p=3.0, q=-0.99, ts=[0.0, 0.9, 1.0], z=0.9)
    @settings(max_examples=60, deadline=None)
    def test_additive_and_l1_against_mpmath(self, p, q, ts, z):
        w = builtin_weight("power", 0.0, 1.0, p=p, q=q)
        c, d, e = sorted(ts)
        assert w.moment(c, d) + w.moment(d, e) == pytest.approx(w.moment(c, e), rel=0, abs=1e-14 * w.total)
        # an exponent near -1 puts a mass of about 1 / (1 + exponent) next to
        # its end, and a moment read past the split is that mass less the
        # integral from the other end: the relative error grows with it
        rel = 2e-14 + 2e-15 / (1.0 + min(p, q, 0.0))
        _, _, l1_left, l1_right = _power_references(p, q, z)
        assert w.moment_l1(0.0, z, None) == pytest.approx(l1_left, rel=rel, abs=0)
        assert w.moment_l1(1.0, z, None) == pytest.approx(l1_right, rel=rel, abs=0)

    def test_large_exponents_total(self):
        # G(201) overflows a double; B(201, 31) is the sum of the two series
        w = builtin_weight("power", 0.0, 1.0, p=200.0, q=30.0)
        with mpmath.workdps(60):
            expected = float(mpmath.beta(201, 31))
        assert w.total == pytest.approx(expected, rel=2e-15, abs=0)

    @pytest.mark.parametrize("p, q", [(200.0, 30.0), (12.0, 7.0), (0.5, 8.5), (8.5, 0.5)])
    def test_large_far_exponent(self, p, q):
        # the alternating series would cancel: the all-positive one is summed
        w = builtin_weight("power", 0.0, 1.0, p=p, q=q)
        for z in (1e-3, 0.1, 0.3, 0.5, 0.7, 0.86, 0.9, 0.99):
            for got, expected in zip(
                (w.closed_moment(0.0, z), w.closed_moment(z, 1.0),
                 w.moment_l1(0.0, z, None), w.moment_l1(1.0, z, None)),
                _power_references(p, q, z),
            ):
                if expected > 1e-290:  # not a subnormal
                    assert got == pytest.approx(expected, rel=1e-13, abs=0), z

    def test_stretched_interval(self):
        # m scales as L^(p+q+1), the L1 branch as L^(p+q+2)
        p, q, a, b = -0.49, 0.7, -1.0, 2.0
        w = builtin_weight("power", a, b, p=p, q=q)
        for t in (-1.0 + 1e-7, -0.997, 0.5, 1.99, 2.0 - 1e-7):
            left, right, l1_left, l1_right = _power_references(p, q, t, a, b)
            assert w.closed_moment(a, t) == pytest.approx(3 ** (p + q + 1) * left, rel=2e-14, abs=0)
            assert w.closed_moment(t, b) == pytest.approx(3 ** (p + q + 1) * right, rel=2e-14, abs=0)
            assert w.moment_l1(a, t, None) == pytest.approx(3 ** (p + q + 2) * l1_left, rel=2e-14, abs=0)
            assert w.moment_l1(b, t, None) == pytest.approx(3 ** (p + q + 2) * l1_right, rel=2e-14, abs=0)


class TestTruncnormShortMass:
    @pytest.mark.parametrize("mu, sigma", [(0.5, 0.25), (0.2, 0.1), (0.9, 0.3)])
    def test_against_mpmath(self, mu, sigma):
        # below sigma / 4 the mass is its Taylor series about c: the erfc
        # difference lost 3.3e-11 relative at h = 1e-6 and 3.0e-10 at 1e-8.
        # w(c) = exp(-z^2 / 2) itself is good to about z^2 ulps
        w = builtin_weight("truncnorm", 0.0, 1.0, mu=mu, sigma=sigma)
        for c in (0.0, 0.3, 0.5, 0.97):
            rel = 4e-15 * (1.0 + ((c - mu) / sigma) ** 2)
            for h in (1e-8, 1e-6, -1e-6, 1e-4, 0.2 * sigma, -0.2 * sigma):
                if not 0.0 <= c + h <= 1.0:
                    continue
                with mpmath.workdps(60):
                    expected = float(mpmath.quad(
                        lambda t: mpmath.exp(-((t - mu) / mpmath.mpf(sigma)) ** 2 / 2), [c, c + h]))
                assert w.moment(c, c + h) == pytest.approx(expected, rel=rel, abs=0), (c, h)
