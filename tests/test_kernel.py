import math
import re

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import beta as beta_fn
from scipy.special import betainc, hyp2f1

from obw.corpus import corpus_functions, corpus_weights
from obw.functionals import tau
from obw.kernel import (
    TauParams,
    kernel_integral,
    kernel_l1,
    kernel_lq,
    kernel_sup,
    peano_kernel,
)
from obw.quadrature import Fn1D, QuadConfig, derivative_callable, integrate
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

    def test_jump_point_of_one_sided_pairs(self, expdecay):
        # t = x belongs to the left branch: zero without it, alpha / (alpha + beta) with it
        assert peano_kernel(mid_params(alpha=0.0, beta=2.0, x=0.4), expdecay, 0.4) == 0.0
        assert peano_kernel(mid_params(alpha=2.0, beta=0.0, x=0.4), expdecay, 0.4) == (
            pytest.approx(1.0, abs=1e-14)
        )
        assert peano_kernel(mid_params(alpha=0.0, beta=2.0, x=0.0), expdecay, 0.0) == 0.0

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

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (0.0, math.inf),
        (-math.inf, 1.0), (1e308, 1e308),
    ])
    def test_non_finite_coefficients(self, alpha, beta):
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha:g}, beta={beta:g}")):
            TauParams(a=0, b=1, x=0.5, alpha=alpha, beta=beta)

    def test_largest_finite_coefficients(self):
        assert TauParams(a=0, b=1, x=0.5, alpha=1e308, beta=0.0).weight_sum == 1e308


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


POWER_EXPONENTS = (-0.5, -0.31, 0.0, 1.0, 2.5)
CLOSED_FORM_XS = (0.02, 0.3, 0.9)
CLOSED_FORM_TOLS = (1e-10, 1e-13)


def power_integral(p, q, k, c, d):
    """int_c^d s^(p+k) (1-s)^q ds on [0, 1], from the regularized betainc."""
    return beta_fn(p + 1 + k, q + 1) * (betainc(p + 1 + k, q + 1, d) - betainc(p + 1 + k, q + 1, c))


class TestKernelL1ClosedForms:
    """||rho||_1 of the power weights against exact values.

    The quadrature error of a branch integral is within abs_tol, and the
    branch is divided by its mass m, so 10 * abs_tol / m is allowed.
    """

    @pytest.mark.parametrize("tol", CLOSED_FORM_TOLS)
    @pytest.mark.parametrize("x", CLOSED_FORM_XS)
    @pytest.mark.parametrize("p", POWER_EXPONENTS)
    def test_left_branch(self, p, x, tol):
        # int_0^x (x - s) s^p ds / int_0^x s^p ds = x / (p + 2)
        w = builtin_weight("power", 0.0, 1.0, p=p, q=0.0)
        got = kernel_l1(mid_params(alpha=1.0, beta=0.0, x=x), w, QuadConfig(abs_tol=tol))
        mass = x ** (p + 1) / (p + 1)
        assert got == pytest.approx(x / (p + 2), rel=0, abs=10 * tol / mass)

    @pytest.mark.parametrize("tol", CLOSED_FORM_TOLS)
    @pytest.mark.parametrize("x", CLOSED_FORM_XS)
    @pytest.mark.parametrize("q", POWER_EXPONENTS)
    def test_right_branch(self, q, x, tol):
        w = builtin_weight("power", 0.0, 1.0, p=0.0, q=q)
        got = kernel_l1(mid_params(alpha=0.0, beta=1.0, x=x), w, QuadConfig(abs_tol=tol))
        mass = (1 - x) ** (q + 1) / (q + 1)
        assert got == pytest.approx((1 - x) / (q + 2), rel=0, abs=10 * tol / mass)

    @pytest.mark.parametrize("tol", CLOSED_FORM_TOLS)
    @pytest.mark.parametrize("x", CLOSED_FORM_XS)
    @pytest.mark.parametrize("alpha, beta", ((1.0, 1.0), (2.0, 1.0), (3.0, 5.0)))
    @pytest.mark.parametrize("name, p, q", (("arcsine", -0.5, -0.5), ("power", -0.5, 0.6)))
    def test_two_branches(self, name, p, q, alpha, beta, x, tol):
        w = builtin_weight(name, 0.0, 1.0, **({"p": p, "q": q} if name == "power" else {}))
        got = kernel_l1(mid_params(alpha, beta, x), w, QuadConfig(abs_tol=tol))
        m_left, m_right = power_integral(p, q, 0, 0, x), power_integral(p, q, 0, x, 1)
        left = x * m_left - power_integral(p, q, 1, 0, x)
        right = power_integral(p, q, 1, x, 1) - x * m_right
        expected = (alpha * left / m_left + beta * right / m_right) / (alpha + beta)
        slack = 10 * tol * (alpha / m_left + beta / m_right) / (alpha + beta)
        assert got == pytest.approx(expected, rel=1e-14, abs=slack)


def first_moment(p, q, z):
    """int_0^z (z - u) u^p (1-u)^q du: the Gauss series of hyp2f1 for z <= 1/2,
    else the full integral (beta functions) less the mirrored tail from z."""
    if z <= 0.5:
        return z ** (p + 2) * hyp2f1(-q, p + 1, p + 3, z) / ((p + 1) * (p + 2))
    return z * beta_fn(p + 1, q + 1) - beta_fn(p + 2, q + 1) + first_moment(q, p, 1 - z)


_NODES, _WEIGHTS = leggauss(40)


def first_moment_smooth(w, anchor, x):
    """int |x - s| w(s) ds between anchor and x by 40-point Gauss-Legendre,
    written about x so no node's distance to x is a difference of near values."""
    h = anchor - x
    u = 0.5 * (1 + _NODES)  # s = x + h u, |x - s| = |h| u
    return 0.5 * h * h * float(np.dot(_WEIGHTS, u * np.array([w.fn(x + h * ui) for ui in u])))


FIRST_MOMENT_XS = (1e-3, 4e-3, 0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98, 0.996, 0.999)


class TestKernelL1FirstMoments:
    """Each weight's moment_l1, the integral of |m(anchor, t)| between the
    anchor and x, against references that share no code with it."""

    @pytest.mark.parametrize("name, p, q", (
        ("power", -0.49, 0.7), ("power", -0.55, 0.58), ("power", -0.3, 0.2),
        ("power", 2.5, -0.31), ("arcsine", -0.5, -0.5), ("increasing", 1.0, 0.0),
        ("decreasing", 0.0, 1.0),
    ))
    def test_power_family(self, name, p, q):
        w = builtin_weight(name, 0.0, 1.0, **({"p": p, "q": q} if name == "power" else {}))
        for x in FIRST_MOMENT_XS:
            assert w.moment_l1(0.0, x, None) == pytest.approx(first_moment(p, q, x), rel=1e-13, abs=0)
            assert w.moment_l1(1.0, x, None) == pytest.approx(first_moment(q, p, 1 - x), rel=1e-13, abs=0)

    def test_power_on_a_stretched_interval(self):
        # L^(p+q+2) scaling: s = a + L u
        p, q, a, b = -0.49, 0.7, -1.0, 2.0
        w = builtin_weight("power", a, b, p=p, q=q)
        scale = (b - a) ** (p + q + 2)
        for x in (-0.997, 0.5, 1.99):
            left, right = w.moment_l1(a, x, None), w.moment_l1(b, x, None)
            assert left == pytest.approx(scale * first_moment(p, q, (x - a) / 3), rel=1e-13, abs=0)
            assert right == pytest.approx(scale * first_moment(q, p, (b - x) / 3), rel=1e-13, abs=0)

    @pytest.mark.parametrize("name, params, lo, hi, rel", (
        ("uniform", {}, 1e-3, 0.999, 1e-13),
        ("exponential", {"lam": 1.0}, 1e-3, 0.999, 1e-13),
        ("exponential", {"lam": -2.0}, 1e-3, 0.999, 1e-13),
        ("exponential", {"lam": 0.15}, 1e-3, 0.999, 1e-13),
        ("exponential", {"lam": 5.0}, 1e-3, 0.999, 1e-13),
        ("truncnorm", {}, 0.01, 0.99, 1e-11),
        ("truncnorm", {"mu": 0.2, "sigma": 0.1}, 0.01, 0.99, 1e-11),
    ))
    def test_smooth_weights(self, name, params, lo, hi, rel):
        w = builtin_weight(name, 0.0, 1.0, **params)
        for x in (lo, *(x for x in FIRST_MOMENT_XS if lo < x < hi), hi):
            for anchor in (0.0, 1.0):
                expected = first_moment_smooth(w, anchor, x)
                assert w.moment_l1(anchor, x, None) == pytest.approx(expected, rel=rel, abs=0)

    @pytest.mark.parametrize("mu, sigma", ((0.5, 0.25), (0.2, 0.1), (0.8, 0.35)))
    def test_truncnorm_short_branches(self, mu, sigma):
        # a branch shorter than sigma / 4 sums a Taylor series about its anchor:
        # the closed form cancels there (3e-9 relative at length 1e-4)
        w = builtin_weight("truncnorm", 0.0, 1.0, mu=mu, sigma=sigma)
        for length in (1e-4, 1e-3, 1e-2):
            for anchor, x in ((0.0, length), (1.0, 1.0 - length)):
                expected = first_moment_smooth(w, anchor, x)
                assert w.moment_l1(anchor, x, None) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_branch_next_to_a_non_smooth_end(self):
        # beta only at x = 29/30: (s - x) s^p (1-s)^0.7 over a branch of mass 0.0018
        p, q, x = -0.49, 0.7, 29 / 30
        w = builtin_weight("power", 0.0, 1.0, p=p, q=q)
        y = 1 - x
        mass = y ** (q + 1) * hyp2f1(-p, q + 1, q + 2, y) / (q + 1)
        got = kernel_l1(mid_params(alpha=0.0, beta=1.0, x=x), w)
        assert got == pytest.approx(first_moment(q, p, y) / mass, rel=1e-13, abs=0)

    def test_masses_ending_at_b_are_read_from_b(self):
        # the branch masses kernel_l1 divides by: m(x, b) from I_y, not 1 - I_z,
        # and the exponential's from expm1, not a difference of two exponentials
        p, q = -0.49, 0.7
        power = builtin_weight("power", 0.0, 1.0, p=p, q=q)
        exponential = builtin_weight("exponential", 0.0, 1.0, lam=1.0)
        for x in (0.9, 0.99, 0.999):
            y = 1 - x
            mass = y ** (q + 1) * hyp2f1(-p, q + 1, q + 2, y) / (q + 1)
            assert power.moment(x, 1.0) == pytest.approx(mass, rel=1e-14, abs=0)
            assert power.moment(1.0, x) == pytest.approx(-mass, rel=1e-14, abs=0)
            expected = math.exp(-1.0) * math.expm1(y)  # int_x^1 e^-s ds about 1
            assert exponential.moment(x, 1.0) == pytest.approx(expected, rel=1e-14, abs=0)


def gauss_legendre(fn, lo, hi, n=40):
    nodes, weights = leggauss(n)
    half = 0.5 * (hi - lo)
    return half * sum(wk * fn(lo + half * (nk + 1.0)) for nk, wk in zip(nodes, weights))


class TestKernelIntegral:
    @pytest.mark.parametrize("w", corpus_weights(), ids=lambda w: w.name)
    def test_matches_gauss_legendre_on_each_branch(self, w):
        # rho is smooth on [a, x] and on [x, b] for the corpus weights
        params = mid_params(alpha=2.0, beta=1.0, x=0.3)
        expected = sum(
            gauss_legendre(lambda t: peano_kernel(params, w, t) * math.cos(3 * t), lo, hi)
            for lo, hi in ((0.0, 0.3), (0.3, 1.0))
        )
        got = kernel_integral(lambda t: math.cos(3 * t), params, w)
        assert got == pytest.approx(expected, abs=1e-10)


def identity_residual(f, params, w):
    """int rho f' - tau(f): the kernel representation's residual."""
    fprime = derivative_callable(f)
    return kernel_integral(fprime, params, w) - tau(f, w, params)


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
        assert kernel_integral(lambda t: 2 * t, params, uniform) == pytest.approx(lhs, abs=1e-12)

    def test_cubic_closed_form(self, uniform):
        f = Fn1D(fn=lambda t: t**3, derivative=lambda t: 3 * t * t)
        assert abs(identity_residual(f, mid_params(), uniform)) <= 1e-7

    def test_corpus_sweep_spot(self):
        fns = corpus_functions()
        for w in corpus_weights()[:3]:
            for f in (fns[0], fns[4]):
                for alpha, beta in ((1.0, 1.0), (3.0, 5.0)):
                    params = TauParams(a=0, b=1, x=0.7, alpha=alpha, beta=beta)
                    assert abs(identity_residual(f, params, w)) <= 1e-8
