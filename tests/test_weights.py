import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obw.quadrature import DegenerateIntervalError, QuadConfig, integrate
from obw.weights import DomainError, builtin_weight, tabulated_weight


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
