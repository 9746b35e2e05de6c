import functools
import math

import mpmath
import pytest

from obw.corpus import corpus_functions
from obw.expr import as_fn1d
from obw.norms import (
    _CHEB_UNIT,
    _N_PEAKS,
    Triple,
    _norm_lp,
    _scan,
    conjugate,
    norm_triple,
)
from obw.quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig


def norm_inf(g, c, d):
    """The sup norm that `norm_triple` reports: `_scan`'s refined maximum."""
    return _scan(g, c, d)[0]


def norm_p(g, p, c, d, cfg=DEFAULT_CONFIG):
    """The L_p norm that `norm_triple` reports, split at `_scan`'s roots."""
    return _norm_lp(g, p, c, d, cfg, _scan(g, c, d)[1])


class TestNormInf:
    def test_monotone_endpoint_max(self):
        assert norm_inf(lambda t: 2 * t, 0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_cosine(self):
        assert norm_inf(math.cos, 0, math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_interior_extremum_refinement(self):
        # sin(10 t) attains 1 near t = pi/20, between grid points
        assert norm_inf(lambda t: math.sin(10 * t), 0, 1) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_lower_bounds_samples(self):
        g = lambda t: math.sin(7 * t) + 0.3 * math.cos(19 * t)
        sup = norm_inf(g, 0, 1)
        assert all(sup >= abs(g(k / 500)) - 1e-12 for k in range(501))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            norm_inf(lambda t: math.nan if t < 0.1 else t, 0, 1)


class TestNormP:
    def test_l1(self):
        # the L1 norm is not integrated: norm_triple reads it from f
        f = Fn1D(fn=lambda t: t * t, derivative=lambda t: 2 * t)
        assert norm_triple(f, 2.0, 0, 1).one == pytest.approx(1.0, abs=1e-10)

    def test_l2(self):
        assert norm_p(lambda t: 2 * t, 2, 0, 1) == pytest.approx(
            2 / math.sqrt(3), abs=1e-10
        )

    def test_zero_function(self):
        assert norm_p(lambda t: 0.0, 2, 0, 1) == 0.0

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            norm_p(lambda t: t, 0.5, 0, 1)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError, match="finite p > 1, got p=1"):
            norm_p(lambda t: t, 1.0, 0, 1)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, p):
        # the zero function would give 0 ** (1 / inf) = 1 and a NaN bound
        with pytest.raises(ValueError, match=f"finite p > 1, got p={p:g}"):
            norm_p(lambda t: 0.0, p, 0, 1)


class TestProperties:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_monotonicity_on_unit_interval(self, p):
        # f' = e^t sin(5 t)
        f = Fn1D(fn=lambda t: math.exp(t) * (math.sin(5 * t) - 5 * math.cos(5 * t)) / 26,
                 derivative=lambda t: math.exp(t) * math.sin(5 * t))
        norms = norm_triple(f, p, 0, 1)
        assert norms.one <= norms.p + 1e-9
        assert norms.p <= norms.inf + 1e-9

    def test_subinterval_never_exceeds_full(self):
        g = lambda t: math.cos(9 * t)
        for c, d in [(0.0, 0.4), (0.3, 0.7), (0.5, 1.0)]:
            assert norm_inf(g, c, d) <= norm_inf(g, 0, 1) + 1e-12
            assert norm_p(g, 2, c, d) <= norm_p(g, 2, 0, 1) + 1e-9

    def test_conjugate(self):
        assert conjugate(2.0) == pytest.approx(2.0)
        assert conjugate(1.5) == pytest.approx(3.0)
        assert conjugate(3.0) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            conjugate(1.0)

    def test_triple_products_and_order(self):
        u = Triple(inf=2.0, p=3.0, one=5.0)
        assert u * Triple(inf=7.0, p=11.0, one=13.0) == Triple(inf=14.0, p=33.0, one=65.0)
        assert u * 0.5 == Triple(inf=1.0, p=1.5, one=2.5)
        assert tuple(u) == (2.0, 3.0, 5.0)

    def test_triple_bundle(self):
        triple = norm_triple(Fn1D(fn=lambda t: t * t, derivative=lambda t: 2 * t), 2.0, 0, 1)
        assert triple.inf == pytest.approx(2.0, abs=1e-10)
        assert triple.p == pytest.approx(2 / math.sqrt(3), abs=1e-10)
        assert triple.one == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("c, d", [(0.0, 1.0), (-3.7, 2.25), (0.31, 0.3100001)])
def test_norm_inf_samples_the_ascending_chebyshev_points(c, d):
    seen = []

    def g(t):
        seen.append(t)
        return t

    norm_inf(g, c, d)
    mid, half = 0.5 * (c + d), 0.5 * (d - c)
    expected = sorted(mid + half * math.cos(math.pi * k / 1023) for k in range(1024))
    assert seen[:1024] == expected


def reference_norm_inf(g, c, d):
    """norm_inf as first written: sort every sample, refine the first eight."""
    from obw.norms import _golden_max

    mid, half = 0.5 * (c + d), 0.5 * (d - c)
    ts = sorted(mid + half * math.cos(math.pi * k / 1023) for k in range(1024))
    vals = [abs(g(t)) for t in ts]
    best = max(vals)
    ranked = sorted(range(len(ts)), key=lambda i: (-vals[i], i))[:8]
    tol = 1e-12 * max(1.0, d - c)
    for i in ranked:
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
        if hi > lo:
            best = max(best, _golden_max(lambda t: abs(g(t)), lo, hi, tol))
    return best


@pytest.mark.parametrize("g", [
    lambda t: math.sin(37 * t),
    lambda t: min(abs(t - 0.3), 0.25),  # a plateau: many tied samples
    lambda t: 1.0 if 0.2 < t < 0.21 else 0.0,
    lambda t: math.exp(-((t - 0.61) / 1e-3) ** 2),
])
def test_norm_inf_matches_reference(g):
    assert norm_inf(g, 0.0, 1.0) == reference_norm_inf(g, 0.0, 1.0)
    assert norm_inf(g, -0.4, 1.3) == reference_norm_inf(g, -0.4, 1.3)


def outcome(fn, *args):
    """fn's value, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


# f whose derivatives use every function of the language, ^ with integral
# and fractional exponents, quotients, and a constant
GRID_FUNCTIONS = [
    "sin(3*t) + cos(5*t)^2",
    "exp(1.3*t)*sin(2*t + 0.3) + sqrt(t + 0.4)",
    "log(t + 0.7) / (t + 2) + abs(t - 0.37)^3",
    "(t + 0.2)^2.5 - (t + 1)^-3 + t^7",
    "(t + 0.5)^t + 2^t",
    "1/(t + 0.05) - exp(-t^2)",
    "3*t - 1",
]


def sample_reads(g, c, d):
    """`_scan(g, c, d)`, and its reads of the scalar g that fall on one of
    its samples, in order; g's `grid`, where it has one, is kept."""
    samples = set((0.5 * (c + d) + 0.5 * (d - c) * _CHEB_UNIT).tolist())
    reads = []

    def spy(t):
        reads.append(t)
        return g(t)

    if hasattr(g, "grid"):
        spy.grid = g.grid
    return _scan(spy, c, d), [t for t in reads if t in samples]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGridPath:
    """`_scan` samples an expression's derivative in one array call (its
    `grid`), with numpy's flags ignored, and reads the scalar g again only
    at the samples that come back not finite and at the peaks; a plain
    callable is read at every sample."""

    @pytest.mark.parametrize("source", GRID_FUNCTIONS)
    @pytest.mark.parametrize("c, d", [(0.0, 1.0), (0.13, 2.9), (0.31, 0.3100001)])
    def test_same_value_as_the_scalar_loop(self, source, c, d):
        g = as_fn1d(source).derivative
        (sup, _), reads = sample_reads(g, c, d)
        assert len(reads) <= _N_PEAKS  # the peaks' re-reads alone
        assert sup == norm_inf(lambda t: g(t), c, d)

    def test_only_the_flagged_sample_is_read_again(self):
        # the array call reads 0/0 at t = 0 alone, so the scalar f' is read
        # there and at the (up to) 8 peaks, not at all 1 024 samples
        g = as_fn1d("sqrt(t^2) + exp(-((t-0.61)/0.001)^2)").derivative
        result, reads = sample_reads(g, 0.0, 1.0)
        assert len(reads) <= 1 + _N_PEAKS
        assert result == _scan(lambda t: g(t), 0.0, 1.0)

    @pytest.mark.parametrize("source", [
        "sqrt(t)", "log(t)", "abs(t-0.5)", "exp(800*t)", "1/(t-0.5)",
        "((t-0.3)^2 - 1e-6)^0.5", "exp(-1/t)", "t*1e400",
    ])
    def test_edge_cases_end_as_in_the_scalar_loop(self, source):
        # a sample where the symbolic derivative is not finite, raises, or
        # falls back to differences; the scalar g decides each
        g = as_fn1d(source).derivative
        assert outcome(norm_inf, g, 0.0, 1.0) == outcome(norm_inf, lambda t: g(t), 0.0, 1.0)

    @pytest.mark.parametrize("source, sup", [
        # a peak 1e-3 wide: 1 + max |d/dt exp(-u^2)| = 1 + sqrt(2) e^(-1/2) / 1e-3
        ("t + exp(-((t-0.61)/0.001)^2)", 1.0 + math.sqrt(2.0) * math.exp(-0.5) / 1e-3),
        # f' = 2 on (0.2, 0.21), 1 elsewhere
        ("t + (abs(t-0.2) - abs(t-0.21))/2", 2.0),
    ], ids=["peak", "step"])
    def test_narrow_features_are_found(self, source, sup):
        # a sampler that resolves f' more coarsely than today's grid misses both
        assert norm_inf(as_fn1d(source).derivative, 0.0, 1.0) == pytest.approx(sup, rel=1e-12)

    def test_every_corpus_derivative_has_a_grid(self):
        # the registry functions are expressions, so verify's one scan per
        # function samples f' in one array call
        for f in corpus_functions():
            assert len(sample_reads(f.derivative, 0.0, 1.0)[1]) <= _N_PEAKS
        assert corpus_functions() is corpus_functions()  # compiled once

    def test_plain_callable_has_no_grid(self):
        # so it is read through the scalar g at every sample
        reads = sample_reads(math.cos, 0.0, 1.0)[1]
        assert set(reads) == set((0.5 + 0.5 * _CHEB_UNIT).tolist())


# f with roots of f' inside [c, d], where |f'|^p has a kink: benchmark-style
# densities with one and with two roots, and a sum of two waves on an
# offset interval
ROOT_CASES = [
    ("(t + 0.549)^1.17 + 1.13*(exp(-1.421*t) + 0.245)", 0.0, 1.0),
    ("1/(t + 0.468) + 1.27*(sqrt(t + 0.384))", 0.0, 1.0),
    ("sqrt(t + 0.228) + 0.88*(0.469 + sin(2.859*t)^2)", 0.0, 1.0),
    ("1/(t + 0.407) + 0.8*(0.505 + sin(2.173*t)^2)", 0.0, 1.0),
    ("0.567 + sin(2.746*t)^2 + 1.13*(1/(t + 0.571))", 0.0, 1.0),
    ("cos(5.58*t) + 0.9*sin(1.811*t + 0.098)", 0.317, 1.201),
]


@functools.cache
def mp_reference(source, c, d, p):
    """(L1 norm, L_p norm to the p) of f' on [c, d] with mpmath: the L1 norm
    in closed form, sum |f(r_k+1) - f(r_k)| over the roots r_k of f' and the
    ends, and the L_p integral split at the roots."""
    env = {name: getattr(mpmath, name) for name in ("sin", "cos", "exp", "log", "sqrt")}
    with mpmath.workdps(30):
        f = lambda t: eval(source.replace("^", "**"), env, {"t": t})  # noqa: S307
        df = lambda t: mpmath.diff(f, t)
        grid = [mpmath.mpf(c) + (mpmath.mpf(d) - c) * k / 400 for k in range(401)]
        signs = [df(t) > 0 for t in grid]
        roots = [mpmath.findroot(df, (lo, hi), solver="anderson")
                 for lo, hi, s, s_next in zip(grid, grid[1:], signs, signs[1:]) if s != s_next]
        assert roots  # every case has a kink to split at
        points = [mpmath.mpf(c), *roots, mpmath.mpf(d)]
        one = sum(abs(f(v) - f(u)) for u, v in zip(points, points[1:]))
        pth = mpmath.quad(lambda t: abs(df(t)) ** p, points)
        return float(one), float(pth)


class TestAccuracyAcrossRoots:
    """The L_p integral is split at the roots of f', and the L1 norm is f's
    variation over them, so both meet the tolerance there; an unsplit
    integral of |f'| missed it by up to 1.9e-7."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("source, c, d", ROOT_CASES)
    def test_within_tol_of_mpmath(self, source, c, d, p, tol):
        norms = norm_triple(as_fn1d(source), p, c, d, QuadConfig(abs_tol=tol))
        one, pth = mp_reference(source, c, d, p)
        assert abs(norms.one - one) <= tol
        assert abs(norms.p**p - pth) <= tol

    def test_roots_are_found(self):
        # both roots of f' = 2 sin(2.746 t) cos(2.746 t) 2.746 - 1.13 / (t + 0.571)^2
        g = as_fn1d(ROOT_CASES[4][0]).derivative
        _, roots = _scan(g, 0.0, 1.0)
        assert len(roots) == 2
        assert all(abs(g(r)) < 1e-9 for r in roots)

    def test_printed_digits(self):
        # the closed form gives 4.44841644e-01; the unsplit integral printed ...452e-01
        f = as_fn1d(ROOT_CASES[0][0])
        assert f"{norm_triple(f, 2.0, 0.0, 1.0).one:.8e}" == "4.44841644e-01"
        bump = as_fn1d("t + exp(-((t-0.61)/0.001)^2)")
        assert f"{norm_triple(bump, 2.0, 0.0, 1.0).inf:.8e}" == "8.58763885e+02"


# The outermost G7/K15 node on [-1, 1]. Past a panel's outermost node, a jump
# of f' is seen by none of the panel's nodes.
_XGK_OUTER = 0.991455371120812639206854697526329


class TestVariation:
    """The L1 norm of f' is f's total variation over the roots of f', exact
    where the integral of |f'| missed the tolerance."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_algebraic_end(self, tol):
        # f' = 1/(2 sqrt(t)); the integral read 1 - 6.8e-10 at 1e-10, 1 - 3.0e-11 at 1e-12
        norms = norm_triple(as_fn1d("sqrt(t)"), 1.5, 0.0, 1.0, QuadConfig(abs_tol=tol))
        assert norms.one == 1.0

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("s", [1.2, 1.8, 7.5])
    @pytest.mark.parametrize("share", [0.3, 0.9])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)])
    def test_jump_without_a_sign_change(self, lo, hi, share, s, tol):
        # f' jumps from s - 1 to s + 1 at k, a share of the way from the
        # panel's outermost node to its end: no root splits there, and the
        # integral of |f'| missed by up to 8e-3
        node = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _XGK_OUTER
        k = node + share * (hi - node)
        f = as_fn1d(f"abs(t - {k!r}) + {s!r}*t")
        one = norm_triple(f, 2.0, 0.0, 1.0, QuadConfig(abs_tol=tol)).one
        assert abs(one - ((s - 1) * k + (s + 1) * (1 - k))) <= tol

    @pytest.mark.parametrize("fails", [
        lambda t: t == 0.0, lambda t: abs(t - 0.5) < 1e-9, lambda t: t == 1.0,
    ], ids=["c", "root", "d"])
    @pytest.mark.parametrize("failure", [
        lambda: math.log(0.0), lambda: 1.0 / 0.0, lambda: math.inf,
    ], ids=["domain", "division", "non-finite"])
    def test_failure_of_f_is_named(self, fails, failure):
        # f' = t - 1/2 is finite everywhere, so only the variation reads the failure
        f = Fn1D(fn=lambda t: failure() if fails(t) else 0.5 * (t - 0.5) ** 2,
                 derivative=lambda t: t - 0.5)
        with pytest.raises(ValueError, match=r"^L1 norm of f' on \[0, 1\]: f fails at t=") as info:
            norm_triple(f, 2.0, 0.0, 1.0)
        assert fails(float(str(info.value).split("t=")[1].split(":")[0]))
