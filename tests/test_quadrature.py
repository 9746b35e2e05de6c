import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obw.corpus import corpus_functions
from obw import quadrature
from obw.quadrature import (
    DegenerateIntervalError,
    Fn1D,
    QuadConfig,
    QuadratureError,
    cumulative,
    derivative_callable,
    integrate,
    weighted_mean,
)
from obw.weights import builtin_weight

# Closed-form antiderivatives of the corpus functions: integration oracles.
ANTIDERIVATIVES = {
    "linear": lambda t: t * t / 2,
    "quadratic": lambda t: t**3 / 3,
    "cubic": lambda t: t**4 / 4,
    "quartic": lambda t: t**5 / 5,
    "sine": lambda t: -math.cos(t),
    "exponential": math.exp,
}


def unweighted_mean(f, c, d):
    return integrate(f, c, d)[0] / (d - c)


class TestIntegrate:
    def test_zero(self):
        value, err = integrate(lambda t: 0.0, 0, 1)
        assert value == 0.0
        assert err <= 1e-14

    def test_polynomial(self):
        value, err = integrate(lambda t: t * t, 0, 1)
        assert value == pytest.approx(1 / 3, abs=1e-10)
        assert err <= 1e-10

    def test_sine(self):
        value, err = integrate(math.sin, 0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-10)
        assert err <= 1e-10

    def test_oriented_flip(self):
        w = builtin_weight("uniform", 0, 1)
        assert w.integrate_against(lambda t: t, 1, 0) == pytest.approx(-0.5, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda t: 1.0, 0.5, 0.5) == (0.0, 0.0)

    def test_non_convergence(self):
        cfg = QuadConfig(abs_tol=1e-14, max_subdivisions=1)
        with pytest.raises(QuadratureError, match="no convergence"):
            integrate(lambda t: math.sin(40 * t) * t**0.1, 0, 1, cfg)

    def test_non_finite_interior(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(lambda t: math.inf if t > 0.5 else 1.0, 0.4999, 0.5001)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 1, 0)


class TestKronrodConstants:
    """The G7/K15 pair at full precision: the K15 rule is exact to degree 22."""

    def k15(self, g):
        """The K15 rule on [-1, 1] with g's values summed exactly."""
        xs = quadrature._XGK[:7]
        return math.fsum(
            [quadrature._WGK[7] * g(0.0)]
            + [w * (g(-x) + g(x)) for w, x in zip(quadrature._WGK, xs)]
        )

    def test_weights_sum_to_two(self):
        assert abs(self.k15(lambda t: 1.0) - 2.0) <= 4 * math.ulp(2.0)
        gauss = math.fsum([quadrature._WG[3]] + [2 * w for w in quadrature._WG[:3]])
        assert abs(gauss - 2.0) <= 4 * math.ulp(2.0)

    @pytest.mark.parametrize("k", [2, 10, 22])
    def test_exact_to_degree_22(self, k):
        exact = 2.0 / (k + 1)
        assert abs(self.k15(lambda t: t**k) - exact) <= 4 * math.ulp(exact)


class TestCumulative:
    CASES = [
        ("exp", math.exp, lambda t: math.exp(t), 0.0, 1.0),
        ("sin", lambda t: math.sin(10 * t), lambda t: -math.cos(10 * t) / 10, 0.0, 2.0),
        ("sqrt", math.sqrt, lambda t: t**1.5 / 1.5, 0.0, 1.0),
        ("runge", lambda t: 1 / (1 + 25 * t * t), lambda t: math.atan(5 * t) / 5, -1.0, 1.0),
    ]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("name, g, antiderivative, c, d", CASES, ids=[c[0] for c in CASES])
    def test_queries_within_tolerance(self, name, g, antiderivative, c, d, tol):
        table = cumulative(g, c, d, QuadConfig(abs_tol=tol))
        assert table.error <= tol
        for k in range(201):
            t = c + (d - c) * k / 200
            assert abs(table(t) - (antiderivative(t) - antiderivative(c))) <= tol
        assert table.total == pytest.approx(antiderivative(d) - antiderivative(c), abs=tol)

    def test_endpoints(self):
        table = cumulative(math.cos, 0.2, 1.7)
        assert table(0.2) == pytest.approx(0.0, abs=1e-15)
        assert table(1.7) == pytest.approx(table.total, abs=1e-15)

    def test_ends_are_exact(self):
        table = cumulative(lambda t: math.exp(3 * t) * math.sin(7 * t) + 2, -0.3, 1.1)
        assert table(-0.3) == 0.0
        assert table(1.1) == table.total

    def test_empty_interval(self):
        table = cumulative(math.exp, 0.5, 0.5)
        assert table(0.5) == 0.0
        assert (table.total, table.error) == (0.0, 0.0)

    def test_outside_is_rejected(self):
        table = cumulative(math.exp, 0.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            table(1.5)

    def test_budget_exhausted(self):
        cfg = QuadConfig(abs_tol=1e-14, max_subdivisions=4)
        with pytest.raises(QuadratureError, match="no convergence"):
            cumulative(lambda t: math.sin(40 * t) * t**0.1, 0, 1, cfg)

    def test_built_inside_one_integrate_call(self, monkeypatch):
        calls = []
        original = quadrature.integrate

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counted)
        evals = [0]

        def g(t):
            evals[0] += 1
            return math.exp(t)

        table = cumulative(g, 0.0, 1.0, QuadConfig(abs_tol=1e-12))
        assert calls == [(0.0, 1.0)]
        built = evals[0]
        table(0.3), table(0.7)
        assert evals[0] == built  # queries do not evaluate g


class TestWeightedIntegral:
    def test_unit_mass(self):
        w = builtin_weight("uniform", 0, 1)
        assert w.integrate_against(lambda t: 1.0, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_linear_times_linear(self):
        w = builtin_weight("increasing", 0, 1)
        assert w.integrate_against(lambda t: t, 0, 1) == pytest.approx(1 / 3, abs=1e-10)

    def test_subinterval(self):
        w = builtin_weight("uniform", 0, 1)
        assert w.integrate_against(lambda t: t * t, 0, 0.5) == pytest.approx(
            1 / 24, abs=1e-10
        )


class TestMeans:
    def test_constant(self):
        w = builtin_weight("exponential", 0, 1)
        assert weighted_mean(lambda t: 5.0, w, 0.2, 0.8) == pytest.approx(5.0, abs=1e-10)

    def test_linear_weight(self):
        w = builtin_weight("increasing", 0, 1)
        assert weighted_mean(lambda t: t, w, 0, 1) == pytest.approx(2 / 3, abs=1e-10)

    def test_quadratic_right_half(self):
        w = builtin_weight("uniform", 0, 1)
        assert weighted_mean(lambda t: t * t, w, 0.5, 1) == pytest.approx(
            7 / 12, abs=1e-10
        )

    def test_degenerate_interval(self):
        w = builtin_weight("uniform", 0, 1)
        with pytest.raises(DegenerateIntervalError):
            weighted_mean(lambda t: t, w, 0.3, 0.3)

    def test_unweighted(self):
        assert unweighted_mean(lambda t: 1.0, 2, 7) == pytest.approx(1.0, abs=1e-12)
        assert unweighted_mean(lambda t: t, 0, 1) == pytest.approx(0.5, abs=1e-12)
        assert unweighted_mean(lambda t: t * t, 0, 1) == pytest.approx(1 / 3, abs=1e-10)

    def test_uniform_weight_equals_unweighted(self):
        w = builtin_weight("uniform", 0, 1)
        f = lambda t: math.exp(t) * math.sin(3 * t)
        assert weighted_mean(f, w, 0.1, 0.9) == pytest.approx(
            unweighted_mean(f, 0.1, 0.9), abs=1e-12
        )

    def test_mean_value_property(self):
        w = builtin_weight("truncnorm", 0, 1)
        f = lambda t: math.cos(2 * t)
        mean = weighted_mean(f, w, 0.1, 0.9)
        samples = [f(0.1 + 0.8 * k / 200) for k in range(201)]
        assert min(samples) - 1e-12 <= mean <= max(samples) + 1e-12

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b):
        w = builtin_weight("exponential", 0, 1)
        f = lambda t: math.sin(t)
        g = lambda t: t * t
        combined = weighted_mean(lambda t: a * f(t) + b * g(t), w, 0, 1)
        separate = a * weighted_mean(f, w, 0, 1) + b * weighted_mean(g, w, 0, 1)
        assert combined == pytest.approx(separate, abs=1e-9)


class TestDerivativeFallback:
    def test_no_derivative_raises(self):
        with pytest.raises(ValueError, match="sine"):
            derivative_callable(Fn1D(fn=math.sin, name="sine"))

    def test_closed_form_preferred(self):
        f = Fn1D(fn=lambda t: t, derivative=lambda t: 42.0)
        assert derivative_callable(f)(0.5) == 42.0

    def test_antiderivative_consistency(self):
        for f in corpus_functions():
            antiderivative = ANTIDERIVATIVES[f.name]
            numeric = integrate(f.fn, 0.2, 0.9)[0]
            assert antiderivative(0.9) - antiderivative(0.2) == pytest.approx(
                numeric, abs=1e-10
            )
