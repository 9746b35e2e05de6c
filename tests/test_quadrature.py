import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obw.corpus import corpus_functions
from obw.quadrature import (
    DegenerateIntervalError,
    Fn1D,
    QuadConfig,
    QuadratureError,
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
    def test_central_difference(self):
        f = Fn1D(fn=lambda t: math.sin(3 * t))
        d = derivative_callable(f, 0, 1)
        assert d(0.4) == pytest.approx(3 * math.cos(1.2), abs=1e-8)

    def test_one_sided_at_endpoints(self):
        f = Fn1D(fn=lambda t: t * t)
        d = derivative_callable(f, 0, 1)
        assert d(0.0) == pytest.approx(0.0, abs=1e-7)
        assert d(1.0) == pytest.approx(2.0, abs=1e-7)

    def test_closed_form_preferred(self):
        f = Fn1D(fn=lambda t: t, derivative=lambda t: 42.0)
        assert derivative_callable(f, 0, 1)(0.5) == 42.0

    def test_antiderivative_consistency(self):
        for f in corpus_functions():
            antiderivative = ANTIDERIVATIVES[f.name]
            numeric = integrate(f.fn, 0.2, 0.9)[0]
            assert antiderivative(0.9) - antiderivative(0.2) == pytest.approx(
                numeric, abs=1e-10
            )
