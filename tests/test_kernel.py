import math

import pytest

from obw.corpus import corpus_functions, corpus_weights
from obw.kernel import (
    TauParams,
    identity_residual,
    kernel_l1,
    kernel_lq,
    kernel_sup,
    peano_kernel,
)
from obw.quadrature import Fn1D, integrate
from obw.weights import builtin_weight

# Both two-coefficient and one-branch (alpha or beta zero) configurations.
COEFF_PAIRS_EXTENDED = ((1.0, 1.0), (2.0, 1.0), (1.0, 0.0), (0.0, 1.0), (3.0, 5.0))


def mid_params(alpha=1.0, beta=1.0, x=0.5):
    return TauParams(a=0.0, b=1.0, x=x, alpha=alpha, beta=beta)


def brute_kernel_lq(params, w, q, n=20000):
    """Independent oracle: composite midpoint rule on |rho|^q, split at x."""
    total = 0.0
    for lo, hi in ((params.a, params.x), (params.x, params.b)):
        h = (hi - lo) / n
        for k in range(n):
            t = lo + (k + 0.5) * h
            total += abs(peano_kernel(params, w, t)) ** q * h
    return total ** (1.0 / q)


class TestPeanoKernel:
    def test_left_branch(self, uniform):
        assert peano_kernel(mid_params(), uniform, 0.25) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_right_branch_negative(self, uniform):
        assert peano_kernel(mid_params(), uniform, 0.75) == pytest.approx(
            -0.25, abs=1e-12
        )

    def test_vanishes_at_left_endpoint(self, expdecay):
        assert peano_kernel(mid_params(), expdecay, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_sign_structure(self):
        for w in corpus_weights():
            params = mid_params(alpha=2.0, beta=3.0, x=0.4)
            for k in range(1, 100):
                t = k / 100
                rho = peano_kernel(params, w, t)
                assert rho >= -1e-12 if t <= 0.4 else rho <= 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TauParams(a=0, b=1, x=0.5, alpha=0.0, beta=0.0)
        with pytest.raises(ValueError):
            TauParams(a=0, b=1, x=0.0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            TauParams(a=0, b=1, x=0.5, alpha=-1.0, beta=1.0)


class TestMontgomeryKernel:
    def test_reduction_from_weighted(self, uniform):
        # alpha = x - a, beta = b - x with constant weight recovers the
        # unweighted Montgomery kernel (t - a left of x, t - b right of it)
        # up to the interval-length factor
        for x in (0.3, 0.5, 0.8):
            params = TauParams(a=0, b=1, x=x, alpha=x, beta=1 - x)
            for k in range(0, 101):
                t = k / 100
                assert (1 - 0) * peano_kernel(params, uniform, t) == pytest.approx(
                    t - 0 if t <= x else t - 1, abs=1e-12
                )


class TestKernelNorms:
    def test_l1_uniform_midpoint(self, uniform):
        assert kernel_l1(mid_params(), uniform) == pytest.approx(0.25, abs=1e-10)

    def test_l1_decreasing_weight(self, decreasing):
        params = mid_params(x=0.9)
        assert kernel_l1(params, decreasing) == pytest.approx(0.303030303, abs=1e-8)

    def test_l1_left_only(self, uniform):
        params = mid_params(alpha=1.0, beta=0.0)
        assert kernel_l1(params, uniform) == pytest.approx(0.25, abs=1e-10)

    def test_lq_uniform_matches_brute_force(self, uniform):
        # Frozen from the midpoint-rule oracle, which gives sqrt(1/12)
        val = kernel_lq(mid_params(), uniform, 2.0)
        assert val == pytest.approx(0.288675135, abs=1e-8)
        assert val == pytest.approx(brute_kernel_lq(mid_params(), uniform, 2.0), abs=1e-6)

    def test_lq_one_branch(self, uniform):
        params = TauParams(a=0, b=1, x=1.0, alpha=1.0, beta=0.0)
        assert kernel_lq(params, uniform, 2.0) == pytest.approx(
            1 / math.sqrt(3), abs=1e-10
        )

    def test_lq_zero_right_branch(self, expdecay):
        left_only = TauParams(a=0, b=1, x=0.6, alpha=1.0, beta=0.0)
        both = TauParams(a=0, b=1, x=0.6, alpha=1.0, beta=1e-30)
        assert kernel_lq(left_only, expdecay, 2.0) > 0

    def test_lq_nonuniform_matches_brute_force(self, expdecay):
        params = mid_params(alpha=2.0, beta=1.0, x=0.3)
        assert kernel_lq(params, expdecay, 1.5) == pytest.approx(
            brute_kernel_lq(params, expdecay, 1.5), abs=1e-6
        )

    def test_sup_equal_coefficients(self, uniform):
        assert kernel_sup(mid_params(), uniform) == pytest.approx(0.5)

    def test_sup_unequal(self, expdecay):
        params = mid_params(alpha=1.0, beta=3.0)
        assert kernel_sup(params, expdecay) == pytest.approx(0.75)
        # grid maximization confirms the closed value
        grid_max = max(
            abs(peano_kernel(params, expdecay, k / 2000)) for k in range(2001)
        )
        assert grid_max <= 0.75 + 1e-9
        assert grid_max == pytest.approx(0.75, abs=1e-2)

    def test_sup_single_branch(self, uniform):
        params = mid_params(alpha=1.0, beta=0.0)
        assert kernel_sup(params, uniform) == pytest.approx(1.0)

    def test_sup_closed_form_all_registry_weights(self):
        for w in corpus_weights():
            for alpha, beta in COEFF_PAIRS_EXTENDED:
                params = TauParams(a=0, b=1, x=0.4, alpha=alpha, beta=beta)
                expected = max(alpha, beta) / (alpha + beta)
                assert kernel_sup(params, w) == pytest.approx(expected, abs=1e-9)


class TestIdentityResidual:
    def test_constant(self, uniform):
        f = Fn1D(fn=lambda t: 3.0, derivative=lambda t: 0.0)
        assert abs(identity_residual(f, mid_params(), uniform)) <= 1e-12

    def test_quadratic(self, uniform, quadratic):
        assert abs(identity_residual(quadratic, mid_params(), uniform)) <= 1e-8

    def test_sine_exponential_weight(self, expdecay, sine):
        params = mid_params(alpha=2.0, beta=1.0, x=0.3)
        assert abs(identity_residual(sine, params, expdecay)) <= 1e-8

    def test_quadratic_lhs_value(self, uniform, quadratic):
        # both sides of the representation equal -1/12 in this configuration
        params = mid_params()
        lhs = integrate(
            lambda t: peano_kernel(params, uniform, t) * 2 * t, 0, 0.5
        )[0] + integrate(
            lambda t: peano_kernel(params, uniform, t) * 2 * t, 0.5, 1
        )[0]
        assert lhs == pytest.approx(-1 / 12, abs=1e-9)

    def test_finite_difference_fallback(self, uniform):
        f = Fn1D(fn=lambda t: t**3)
        assert abs(identity_residual(f, mid_params(), uniform)) <= 1e-7

    def test_corpus_sweep_spot(self):
        fns = corpus_functions()
        for w in corpus_weights()[:3]:
            for f in (fns[0], fns[4]):
                for alpha, beta in ((1.0, 1.0), (3.0, 5.0)):
                    params = TauParams(a=0, b=1, x=0.7, alpha=alpha, beta=beta)
                    assert abs(identity_residual(f, params, w)) <= 1e-8
