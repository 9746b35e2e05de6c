import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obw.functionals import (
    deviation_S,
    sigma_w,
    tau,
    tau_combination,
    tau_decomposed,
)
from obw.kernel import TauParams
from obw.quadrature import DegenerateIntervalError, Fn1D, weighted_mean
from obw.weights import builtin_weight


def params_at(x, alpha=1.0, beta=1.0):
    return TauParams(a=0.0, b=1.0, x=x, alpha=alpha, beta=beta)


class TestDeviation:
    def test_constant(self, expdecay):
        f = Fn1D(fn=lambda t: 4.0)
        assert deviation_S(f, expdecay, 0.3, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_symmetry(self, uniform):
        f = Fn1D(fn=lambda t: t)
        assert deviation_S(f, uniform, 0.5, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_at_zero(self, uniform, quadratic):
        assert deviation_S(quadratic, uniform, 0.0, 0, 1) == pytest.approx(
            -1 / 3, abs=1e-10
        )


class TestTau:
    def test_linear_midpoint(self, uniform):
        f = Fn1D(fn=lambda t: t)
        assert tau(f, uniform, params_at(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_midpoint(self, uniform, quadratic):
        assert tau(quadratic, uniform, params_at(0.5)) == pytest.approx(
            -1 / 12, abs=1e-10
        )

    def test_beta_zero_reduces_to_one_sided(self, expdecay, quadratic):
        params = params_at(0.6, alpha=1.0, beta=0.0)
        assert tau(quadratic, expdecay, params) == pytest.approx(
            deviation_S(quadratic, expdecay, 0.6, 0, 0.6), abs=1e-12
        )

    def test_components_reproduce_value(self, expdecay, sine):
        params = params_at(0.3, alpha=2.0, beta=1.0)
        rebuilt = sine(0.3) - (
            2.0 * weighted_mean(sine, expdecay, 0, 0.3)
            + 1.0 * weighted_mean(sine, expdecay, 0.3, 1)
        ) / 3.0
        assert tau(sine, expdecay, params) == pytest.approx(rebuilt, abs=1e-14)


class TestSigma:
    def test_uniform(self, uniform):
        assert sigma_w(uniform, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_at_left_endpoint(self, expdecay):
        assert sigma_w(expdecay, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear_weight(self, increasing):
        assert sigma_w(increasing, 0.5) == pytest.approx(4 / 3, abs=1e-10)

    def test_degenerate(self, uniform):
        with pytest.raises(DegenerateIntervalError):
            sigma_w(uniform, 1.0)


class TestEquivalentForms:
    def test_beta_zero_trivial(self, uniform, quadratic):
        params = params_at(0.4, alpha=1.0, beta=0.0)
        assert tau_decomposed(quadratic, uniform, params) == pytest.approx(
            tau(quadratic, uniform, params), abs=1e-12
        )

    def test_decomposed_quadratic(self, uniform, quadratic):
        assert tau_decomposed(quadratic, uniform, params_at(0.5)) == pytest.approx(
            -1 / 12, abs=1e-10
        )

    def test_decomposed_general(self, expdecay, sine):
        params = params_at(0.3, alpha=2.0, beta=1.0)
        assert tau_decomposed(sine, expdecay, params) == pytest.approx(
            tau(sine, expdecay, params), abs=1e-10
        )

    def test_combination_quadratic(self, uniform, quadratic):
        assert tau_combination(quadratic, uniform, params_at(0.5)) == pytest.approx(
            -1 / 12, abs=1e-10
        )

    def test_combination_beta_zero(self, uniform, quadratic):
        params = params_at(0.4, alpha=1.0, beta=0.0)
        assert tau_combination(quadratic, uniform, params) == pytest.approx(
            deviation_S(quadratic, uniform, 0.4, 0, 0.4), abs=1e-12
        )

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("coeffs", [(1.0, 1.0), (2.0, 1.0), (3.0, 5.0)])
    def test_three_forms_agree(self, x, coeffs, expdecay, sine):
        params = params_at(x, *coeffs)
        t0 = tau(sine, expdecay, params)
        assert tau_combination(sine, expdecay, params) == pytest.approx(t0, abs=1e-10)
        assert tau_decomposed(sine, expdecay, params) == pytest.approx(t0, abs=1e-10)


class TestAlgebraicProperties:
    @given(lam=st.floats(0.1, 10))
    @settings(max_examples=25, deadline=None)
    def test_coefficient_homogeneity(self, lam):
        w = builtin_weight("uniform", 0, 1)
        f = Fn1D(fn=lambda t: t * t, derivative=lambda t: 2 * t)
        base = params_at(0.3, alpha=2.0, beta=1.0)
        scaled = params_at(0.3, alpha=2.0 * lam, beta=1.0 * lam)
        assert tau(f, w, scaled) == pytest.approx(tau(f, w, base), abs=1e-10)

    @given(scale=st.floats(-5, 5), shift=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_scale_and_shift(self, scale, shift):
        w = builtin_weight("exponential", 0, 1, lam=1.0)
        params = params_at(0.6, alpha=1.0, beta=2.0)
        f = Fn1D(fn=math.sin)
        g = Fn1D(fn=lambda t: scale * math.sin(t) + shift)
        assert tau(g, w, params) == pytest.approx(
            scale * tau(f, w, params), abs=1e-9
        )
