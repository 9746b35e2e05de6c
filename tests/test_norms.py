import math

import numpy as np
import pytest

from obw.expr import as_fn1d
from obw.norms import _CHEB_UNIT, Triple, _grid_abs, conjugate, norm_inf, norm_p, norm_triple


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
        assert norm_p(lambda t: 2 * t, 1, 0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_l2(self):
        assert norm_p(lambda t: 2 * t, 2, 0, 1) == pytest.approx(
            2 / math.sqrt(3), abs=1e-10
        )

    def test_zero_function(self):
        assert norm_p(lambda t: 0.0, 2, 0, 1) == 0.0

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            norm_p(lambda t: t, 0.5, 0, 1)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, p):
        # the zero function would give 0 ** (1 / inf) = 1 and a NaN bound
        with pytest.raises(ValueError, match=f"finite p >= 1, got p={p:g}"):
            norm_p(lambda t: 0.0, p, 0, 1)


class TestProperties:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_monotonicity_on_unit_interval(self, p):
        g = lambda t: math.exp(t) * math.sin(5 * t)
        one = norm_p(g, 1, 0, 1)
        mid = norm_p(g, p, 0, 1)
        top = norm_inf(g, 0, 1)
        assert one <= mid + 1e-9
        assert mid <= top + 1e-9

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
        triple = norm_triple(lambda t: 2 * t, 2.0, 0, 1)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGridPath:
    """norm_inf on an expression's derivative samples it in one array call
    (its `grid`); a plain callable takes the scalar loop."""

    @pytest.mark.parametrize("source", GRID_FUNCTIONS)
    @pytest.mark.parametrize("c, d", [(0.0, 1.0), (0.13, 2.9), (0.31, 0.3100001)])
    def test_same_value_as_the_scalar_loop(self, source, c, d):
        g = as_fn1d(source).derivative
        assert _grid_abs(g, 0.5 * (c + d) + 0.5 * (d - c) * _CHEB_UNIT) is not None
        assert norm_inf(g, c, d) == norm_inf(lambda t: g(t), c, d)

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

    def test_plain_callable_has_no_grid(self):
        assert _grid_abs(math.cos, np.linspace(0.0, 1.0, 5)) is None
