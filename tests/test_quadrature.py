import heapq
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval

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


def reference_integrate(g, c, d, cfg):
    """`integrate` before breaks: one heap seeded with the panel [c, d]."""
    val, err = quadrature._gk15(g, c, d)
    heap = [(-err, 0, c, d, val, err)]
    total, total_err, n = val, err, 1
    while total_err > cfg.abs_tol:
        if n >= cfg.max_subdivisions:
            raise QuadratureError("no convergence")
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = quadrature._gk15(g, lo, mid)
        v2, e2 = quadrature._gk15(g, mid, hi)
        total += (v1 + v2) - v_old
        total_err += (e1 + e2) - e_old
        heapq.heappush(heap, (-e1, 2 * n, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, 2 * n + 1, mid, hi, v2, e2))
        n += 1
    return total, total_err


def kinked(t):
    """Kinks at 0.3 and 0.71, the breaks of BREAKS."""
    return abs(t - 0.3) + abs(math.sin(2.0 * (t - 0.71))) + math.exp(t)


BREAKS = (0.3, 0.71)


class TestBreaks:
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("g, c, d", [
        (kinked, 0.0, 1.0),
        (math.exp, -1.0, 2.5),
        (lambda t: math.sin(40 * t) * t**0.1, 0.0, 1.0),
    ])
    def test_no_breaks_is_the_single_heap(self, g, c, d, tol):
        cfg = QuadConfig(abs_tol=tol)
        expected = reference_integrate(g, c, d, cfg)
        assert integrate(g, c, d, cfg) == expected
        assert integrate(g, c, d, cfg, breaks=()) == expected
        assert integrate(g, c, d, cfg, breaks=[]) == expected
        assert integrate(g, c, d, cfg, ends=()) == expected
        # a named algebraic end that is neither c nor d is no end of [c, d]
        assert integrate(g, c, d, cfg, ends=[(c - 1.0, -0.5), (d + 1.0, 0.3)]) == expected

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_pieces_share_the_tolerance(self, tol):
        cfg = QuadConfig(abs_tol=tol)
        value, err = integrate(kinked, 0.0, 1.0, cfg, breaks=BREAKS)
        edges = (0.0, *BREAKS, 1.0)
        pieces = sum(integrate(kinked, lo, hi, cfg)[0] for lo, hi in zip(edges, edges[1:]))
        assert abs(value - pieces) <= tol
        assert err <= tol
        with mpmath.workdps(30):
            exact = mpmath.quad(lambda t: abs(t - 0.3) + abs(mpmath.sin(2 * (t - 0.71)))
                                + mpmath.exp(t), [0, *BREAKS, 1])
        assert abs(value - float(exact)) <= tol

    def test_breaks_spare_the_kinks(self):
        # the pieces are smooth, so splitting there takes fewer panels
        panels = []
        for breaks in ((), BREAKS):
            seen = []
            integrate(lambda t: seen.append(t) or kinked(t), 0.0, 1.0,
                      QuadConfig(abs_tol=1e-12), breaks=breaks)
            panels.append(len(seen) // 15)
        assert panels[1] < panels[0] / 2

    @pytest.mark.parametrize("breaks", [
        [0.0], [1.0], [-0.1], [1.5], [0.6, 0.3], [0.3, 0.3], [0.2, 0.4, 0.3],
    ])
    def test_bad_breaks_rejected(self, breaks):
        with pytest.raises(ValueError, match="breaks must increase strictly inside"):
            integrate(math.exp, 0.0, 1.0, breaks=breaks)

    def test_break_in_an_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="breaks"):
            integrate(math.exp, 0.5, 0.5, breaks=[0.5])

    def test_pieces_share_the_subdivision_budget(self):
        # four pieces take four of the budget's five panels before any bisection
        g = lambda t: math.sin(40 * t) * t**0.1
        cfg = QuadConfig(abs_tol=1e-14, max_subdivisions=5)
        with pytest.raises(QuadratureError,
                           match=r"no convergence after 5 subdivisions .* on \[0\.0, 1\.0\]"):
            integrate(g, 0.0, 1.0, cfg, breaks=[0.25, 0.5, 0.75])
        with pytest.raises(QuadratureError,
                           match=r"no convergence after 4 subdivisions .* on \[0\.0, 1\.0\]"):
            integrate(g, 0.0, 1.0, QuadConfig(abs_tol=1e-14, max_subdivisions=3),
                      breaks=[0.25, 0.5, 0.75])


def legendre(k):
    """P_k as a function."""
    return lambda u: legval(u, [0.0] * k + [1.0])


class TestEndRule:
    """The panel rule at an algebraic end: g = |t - e|^gamma H(t), H's
    interpolant through the 15 Kronrod nodes integrated against the moments
    of (1 + u)^gamma."""

    GAMMAS = [-0.9, -0.5, -0.4, 0.3, 0.58, 1.5]

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_exact_through_degree_14(self, gamma):
        # on [0, 2] from the end 0, and on [-2, 0] from the end 0, |t| is
        # exactly 1 + u of the node u that g is evaluated at; P_k by the
        # recurrence the rule is built from
        moments = quadrature._jacobi_moments(gamma, 15)
        node = dict(zip(quadrature._ONE_PLUS, quadrature._NODES))
        for k in range(15):
            p_k = lambda u: quadrature._legendre_rows([u], 14)[0][k]  # noqa: E731
            left = quadrature._end_panel(lambda t: t**gamma * p_k(node[t]), 0.0, 2.0, gamma,
                                         False, False)[0]
            right = quadrature._end_panel(lambda t: (-t) ** gamma * p_k(node[-t]), -2.0, 0.0,
                                          gamma, True, False)[0]
            assert abs(left - moments[k]) <= 1e-15 * moments[0], k
            assert abs(right - moments[k]) <= 1e-15 * moments[0], k

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_estimate_is_the_weighted_tail(self, gamma):
        # H of degree <= 10 has no P_11..P_14 terms, so the estimate is at
        # rounding level; a P_14 term of size eps reads 4 half |M_14| eps
        moments = quadrature._jacobi_moments(gamma, 15)
        half, eps = 0.25, 1e-6
        poly = lambda u: sum((-1) ** k * u**k / (k + 1) for k in range(11))  # noqa: E731
        p14 = legendre(14)
        g = lambda t: (t / half) ** gamma * poly(t / half - 1)  # noqa: E731
        _, err, _ = quadrature._end_panel(g, 0.0, 2 * half, gamma, False, False)
        assert err <= 1e-14 * moments[0]
        g = lambda t: (t / half) ** gamma * (poly(t / half - 1) + eps * p14(t / half - 1))  # noqa: E731
        _, err, _ = quadrature._end_panel(g, 0.0, 2 * half, gamma, False, False)
        assert err == pytest.approx(4 * half * abs(moments[14]) * eps, rel=1e-6)

    @pytest.mark.parametrize("gamma", [-0.5, 0.3])
    def test_only_the_end_half_keeps_the_rule(self, monkeypatch, gamma):
        # each panel that takes the end rule touches the end; the first ones are
        # [0, 1] and, with both ends named, the outer quarters of [0, 1]
        seen = []
        end_panel = quadrature._end_panel

        def spy(g, lo, hi, *args, **kwargs):
            seen.append((lo, hi))
            return end_panel(g, lo, hi, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_end_panel", spy)
        g = lambda t: math.sin(30 * t) * t**gamma * (1 - t) ** gamma  # noqa: E731
        integrate(g, 0.0, 1.0, QuadConfig(abs_tol=1e-12), ends=[(0.0, gamma), (1.0, gamma)])
        assert seen[:2] == [(0.0, 0.25), (0.75, 1.0)]
        assert len(seen) > 2
        assert all(lo == 0.0 or hi == 1.0 for lo, hi in seen)
        seen.clear()
        g = lambda t: math.sin(30 * t) * t**gamma  # noqa: E731
        integrate(g, 0.0, 1.0, QuadConfig(abs_tol=1e-12), ends=[(0.0, gamma)])
        assert seen[0] == (0.0, 1.0) and all(lo == 0.0 for lo, _ in seen)

    @pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.3, 1.5])
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_integral_against_mpmath(self, gamma, tol):
        # int_0^1 t^gamma (1 - t)^gamma e^(5it) dt = B(gamma+1, gamma+1)
        # 1F1(gamma+1; 2gamma+2; 5i), whose real part is the integral of cos
        with mpmath.workdps(30):
            ref = mpmath.beta(gamma + 1, gamma + 1) * mpmath.re(
                mpmath.hyp1f1(gamma + 1, 2 * gamma + 2, 5j))
        g = lambda t: t**gamma * (1 - t) ** gamma * math.cos(5 * t)  # noqa: E731
        value, err = integrate(g, 0.0, 1.0, QuadConfig(abs_tol=tol),
                               ends=[(0.0, gamma), (1.0, gamma)])
        assert err <= tol
        assert abs(value - float(ref)) <= tol

    def test_non_finite_value_is_named(self):
        with pytest.raises(QuadratureError, match="non-finite integrand value near t=0.0"):
            integrate(lambda t: math.inf, 0.0, 1.0, ends=[(0.0, -0.5)])


_TOL = QuadConfig(abs_tol=1e-12)
_WAVE = lambda t: 1.0 + math.sin(40.0 * t) ** 2  # noqa: E731


@pytest.mark.parametrize("make", [
    lambda: integrate(_WAVE, 0.0, 1.0, _TOL),
    lambda: integrate(lambda t: kinked(t) * _WAVE(t), 0.0, 1.0, _TOL, breaks=BREAKS),
    # a named end e = 2 outside [1, 1.99]: the panels next to it read exact distances
    lambda: integrate(lambda t: (2.0 - t) ** -0.5 * _WAVE(t), 1.0, 1.99, _TOL,
                      ends=[(2.0, -0.5)]),
    lambda: integrate(lambda t: (t * (1.0 - t)) ** -0.5 * _WAVE(t), 0.0, 1.0, _TOL,
                      ends=[(0.0, -0.5), (1.0, -0.5)]),
    lambda: cumulative(_WAVE, 0.0, 1.0, _TOL),
    lambda: cumulative(lambda t: t**-0.4 * _WAVE(t), 0.0, 1.0, _TOL, ends=[(0.0, -0.4)]),
], ids=["plain", "breaks", "near-end", "both-ends", "table", "table-ends"])
def test_panel_makes_every_panel(monkeypatch, make):
    # `_panel` is the one place a panel of `integrate` is made: every G7/K15
    # panel and every end panel goes through it, in the first pass and in
    # each bisection
    calls = {"_panel": 0, "_gk15": 0, "_end_panel": 0}

    def counted(name):
        fn = getattr(quadrature, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    for name in calls:
        monkeypatch.setattr(quadrature, name, counted(name))
    make()
    assert calls["_gk15"] > 10
    assert calls["_panel"] == calls["_gk15"] + calls["_end_panel"]


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

    def test_tail_estimate_of_polynomials(self):
        # the degree-14 interpolant of a polynomial of degree <= 10 has no
        # P_11..P_14 terms: one leaf of 15 values, its estimate at rounding
        # level; a P_14 term of size eps is read back as 4 (d - c) eps / 29
        c, d = 0.5, 2.0
        poly = lambda t: sum((-1) ** k * t**k / (k + 1) for k in range(11))  # noqa: E731
        evals = [0]

        def g(t):
            evals[0] += 1
            return poly(t)

        table = cumulative(g, c, d, QuadConfig(abs_tol=1e-13))
        assert evals[0] == 15
        peak = max(abs(poly(c + (d - c) * k / 100)) for k in range(101))
        assert table.error <= 1e-15 * (d - c) * peak
        eps = 1e-6
        p14 = [0.0] * 14 + [1.0]
        tail = lambda t: poly(t) + eps * legval((2 * t - c - d) / (d - c), p14)  # noqa: E731
        table = cumulative(tail, c, d, QuadConfig(abs_tol=1e-5))
        assert table.error == pytest.approx(4 * (d - c) * eps / 29, rel=1e-6)

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


class TestArea:
    """Cumulative.area() = int T(s) ds, read from the leaves."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_against_mpmath(self, tol):
        # the table of cos is sin within tol at every s, so its area is
        # within 1.3 tol of int_0^1.3 sin(s) ds
        table = cumulative(math.cos, 0.0, 1.3, QuadConfig(abs_tol=tol))
        with mpmath.workdps(30):
            ref = mpmath.quad(mpmath.sin, [0, 1.3])
        assert abs(table.area() - float(ref)) <= tol * 1.3

    def test_gamma_zero_is_the_integral_of_the_queries(self):
        table = cumulative(lambda t: math.exp(3 * t) * math.sin(7 * t) + 2, -0.3, 1.1)
        assert table.area() == pytest.approx(integrate(table, -0.3, 1.1)[0], abs=1e-13)

    @pytest.mark.parametrize("gamma", [1.0, 2 / 3, 0.25, -0.23, -1 / 3, 9.0, 4 / 3, 1.5, 3.0])
    def test_jacobi_moments_against_mpmath(self, gamma):
        # through degree 23: `_jacobi_rule` reads 24 of them
        moments = quadrature._jacobi_moments(gamma, 24)
        with mpmath.workdps(30):
            for k, m_k in enumerate(moments):
                ref = mpmath.quad(lambda u: (1 + u) ** gamma * mpmath.legendre(k, u), [-1, 1])
                assert abs(m_k - float(ref)) <= 4e-16 * moments[0], k

    def test_gauss_legendre_rule(self):
        # exact to degree 47: int_{-1}^1 u^k du
        nodes, weights, _ = quadrature._gauss_legendre()
        for k in range(0, 48, 3):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert math.fsum(w * x**k for x, w in zip(nodes, weights)) == pytest.approx(
                exact, abs=1e-15
            )

    def test_table_off_zero(self):
        table = cumulative(math.cos, 0.1, 1.3)
        # T(s) = sin(s) - sin(0.1)
        exact = math.cos(0.1) - math.cos(1.3) - 1.2 * math.sin(0.1)
        assert table.area() == pytest.approx(exact, abs=1e-10)

    def test_empty_table(self):
        assert cumulative(math.exp, 0.0, 0.0).area() == 0.0


def test_legendre_rows_through_degree_23():
    # the rows `_jacobi_rule` reads
    nodes, _, legendre = quadrature._gauss_legendre()
    assert legendre.shape == (24, 24)
    for k in range(24):
        column = legval(nodes, [0.0] * k + [1.0])
        assert max(abs(legendre[:, k] - column)) <= 1e-14, k


class TestGk15Estimate:
    """_gk15's estimate is min(diff, (200 diff)^1.5), diff = |K15 - G7|;
    the scaled form is skipped where it cannot be the smaller one."""

    @staticmethod
    def gauss(g, c, d):
        # G7 in _gk15's order of summation
        half, mid = 0.5 * (d - c), 0.5 * (c + d)
        resg = quadrature._WG[3] * g(mid)
        for j in range(1, 7, 2):
            dx = half * quadrature._XGK[j]
            resg += quadrature._WG[j // 2] * (g(mid - dx) + g(mid + dx))
        return resg * half

    @pytest.mark.parametrize("scale", [10.0**k for k in range(-12, 200, 7)])
    def test_unchanged_where_it_returned(self, scale):
        g = lambda t: scale * math.exp(3 * t) * math.sin(7 * t)  # noqa: E731
        for c, d in ((0.0, 1.0), (0.2, 0.21), (0.0, 3.0)):
            value, err = quadrature._gk15(g, c, d)
            diff = abs(value - self.gauss(g, c, d))
            assert err == min(diff, (200.0 * diff) ** 1.5)

    def test_no_overflow(self):
        g = lambda t: 1e300 * math.sin(7 * t)  # noqa: E731
        value, err = quadrature._gk15(g, 0.0, 3.0)
        assert err == abs(value - self.gauss(g, 0.0, 3.0)) > 1e200
        with pytest.raises(OverflowError):
            (200.0 * err) ** 1.5


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
