import math
from functools import partial

import pytest
from numpy.polynomial.legendre import leggauss

from obw.bounds import (
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
from obw.functionals import tau
from obw.kernel import TauParams, kernel_l1, peano_kernel
from obw.norms import NormTriple, norm_triple
from obw.quadrature import Fn1D, derivative_callable
from obw.weights import builtin_weight


def unit_norms(p=2.0):
    return NormTriple(inf=1.0, p_norm=1.0, one=1.0, p=p, c=0.0, d=1.0)


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
        norms = NormTriple(inf=2.0, p_norm=2 / math.sqrt(3), one=1.0, p=2.0, c=0, d=1)
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
        assert all(v >= 0 for v in result.exact.as_tuple())

    def test_holder_chain_composition(self, expdecay):
        from obw.kernel import kernel_l1

        params = params_at(0.3, alpha=2.0, beta=1.0)
        norms = NormTriple(inf=7.0, p_norm=1.0, one=1.0, p=2.0, c=0, d=1)
        exact = bounds_exact(kernel_norms(params, expdecay, 2.0), norms)
        assert exact.inf == pytest.approx(7.0 * kernel_l1(params, expdecay), abs=1e-12)

    def test_norm_homogeneity(self, uniform):
        params = params_at(0.4)
        base = bounds_exact(kernel_norms(params, uniform, 2.0), unit_norms())
        scaled_norms = NormTriple(inf=3.0, p_norm=3.0, one=3.0, p=2.0, c=0, d=1)
        scaled = bounds_exact(kernel_norms(params, uniform, 2.0), scaled_norms)
        for b0, b1 in zip(base.as_tuple(), scaled.as_tuple()):
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
        zero = NormTriple(inf=0.0, p_norm=1.0, one=1.0, p=2.0, c=0.0, d=1.0)
        assert bounds_dragomir(0.3, 0, 1, zero, 2.0).inf == 0.0


class TestCorollaries:
    def test_equal_coeffs_is_substitution(self, expdecay, sine):
        lhs, triple = corollary_bounds("equal_coeffs", sine, expdecay, 2.0, 0, 1, x=0.3)
        params = params_at(0.3)
        fprime = derivative_callable(sine)
        norms = norm_triple(fprime, 2.0, 0, 1)
        general = bounds_paper(params, expdecay, norms, 2.0)
        for got, want in zip(triple.as_tuple(), general.as_tuple()):
            assert got == pytest.approx(want, abs=1e-12)
        assert lhs == pytest.approx(abs(tau(sine, expdecay, params)), abs=1e-12)

    def test_midpoint_uniform_value(self, uniform, sine):
        _, triple = corollary_bounds(
            "midpoint", sine, uniform, 2.0, 0, 1, alpha=2.0, beta=1.0
        )
        fprime = derivative_callable(sine)
        norms = norm_triple(fprime, 2.0, 0, 1)
        assert triple.inf == pytest.approx(0.25 * norms.inf, abs=1e-10)

    def test_midpoint_equal_agrees_with_single_point(self, uniform, quadratic):
        lhs, triple = corollary_bounds("midpoint_equal", quadratic, uniform, 2.0, 0, 1)
        fprime = derivative_callable(quadratic)
        norms = norm_triple(fprime, 2.0, 0, 1)
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
                for bound in result.exact.as_tuple():
                    assert dev <= bound * (1 + 1e-9) + 1e-12
