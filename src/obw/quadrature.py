"""Adaptive Gauss-Kronrod integration, cumulative integral tables and
weighted integral means.

`integrate` has the one refinement loop: it bisects the panel with the
largest estimate until the estimates sum to at most abs_tol. Every panel
of it, in its first pass and in each bisection, is made by `_panel`, which
picks one of three rules. The panel that touches an algebraic end point
named in `ends`, where g = |t - e|^gamma H(t) with H smooth, takes
`_end_panel`: it integrates (1 + u)^gamma times H's interpolant through
the 15 Kronrod nodes by the modified moments of (1 + u)^gamma, as
QUADPACK's QAWS does (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983). Every other panel takes G7/K15
(`_gk15`); next to a named end it reads each value as at its node before
rounding (`_exact_distances`). A cumulative table is built by that loop;
its G7/K15 panels record their 15 values, and only their estimate differs.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Fn1D",
    "QuadConfig",
    "QuadratureError",
    "DegenerateIntervalError",
    "DEFAULT_CONFIG",
    "integrate",
    "Cumulative",
    "cumulative",
    "weighted_mean",
    "derivative_callable",
]


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""


class DegenerateIntervalError(ValueError):
    """An interval carries (numerically) zero weight mass."""


@dataclass(frozen=True)
class Fn1D:
    """Scalar function of one real variable.

    `derivative` is its closed-form derivative, where one is known:
    `norms.norm_triple` takes f, reads f' through `derivative_callable`,
    which raises when it is None, and reads f for the L1 norm of f'. `kinks`,
    ascending, are the points where f or its derivative has a corner or a
    jump: `Weight.integrate_against` splits its integral there, so that no
    quadrature panel straddles one.
    """

    fn: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None
    name: str = ""
    kinks: tuple[float, ...] = ()

    def __call__(self, t: float) -> float:
        return self.fn(t)


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    max_subdivisions: int = 1000

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be finite and positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadConfig()

# 15-point Kronrod extension of 7-point Gauss: the abscissae and weights of
# QUADPACK's qk15 (half set, largest abscissa first), to full precision.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(g: Callable[[float], float], c: float, d: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel; returns (kronrod value, error estimate).

    g is evaluated at the panel's midpoint, then at mid - dx and mid + dx
    for each abscissa of _XGK in turn: the order _NODES records.
    """
    half = 0.5 * (d - c)
    mid = 0.5 * (c + d)
    fc = g(mid)
    if not math.isfinite(fc):
        raise QuadratureError(f"non-finite integrand value at t={mid}")
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        f1 = g(mid - dx)
        f2 = g(mid + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise QuadratureError(f"non-finite integrand value near t={mid - dx}")
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    resk *= half
    resg *= half
    diff = abs(resk - resg)
    err = diff
    if 200.0 * diff < 1.0:  # else (200 diff)^1.5 >= diff, and may overflow
        scaled = (200.0 * diff) ** 1.5
        if scaled < err:
            err = scaled
    return resk, err


def integrate(
    g: Callable[[float], float],
    c: float,
    d: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    breaks: Sequence[float] = (),
    ends: Sequence[tuple[float, float]] = (),
    _table: Optional["Cumulative"] = None,
) -> tuple[float, float]:
    """Adaptive bisection with a nested G7/K15 rule pair.

    Returns (value, error estimate). Raises QuadratureError if the
    subdivision budget is exhausted before the tolerance is met.
    `breaks`, strictly increasing inside (c, d), are points where g may
    have a kink: the refinement starts from the pieces between them, which
    share abs_tol and max_subdivisions (ValueError for other breaks).
    `ends` are pairs (e, gamma), gamma > -1, each an algebraic end point
    where g = |t - e|^gamma H(t), H smooth: where e is c or d, the panel
    that touches it takes `_end_panel`, and of its two halves only the one
    that still touches e keeps that rule; a G7/K15 panel next to a named e
    reads g through `_exact_distances` (see `_panel`). When both c and d
    are named, the refinement starts from the four quarters of [c, d]
    (unless `breaks` split it already): on a half, H holds the other end's
    |t - e|^gamma one panel width away, where the tail of H's degree-14
    interpolant is about (3 + 8^(1/2))^-11 = 4e-9 of H, so each half would
    be bisected at any usual abs_tol; on a quarter, three widths away,
    it is about (7 + 48^(1/2))^-11 = 3e-13.
    `_table` is the sink `cumulative` passes: `_panel` then gives each
    G7/K15 panel a table's tail estimate, and the leaves are handed to the
    table.
    """
    if c > d:
        raise ValueError("integrate requires c <= d")
    spans = [(c, d)]
    if breaks:
        spans = list(zip((c, *breaks), (*breaks, d)))
        if not all(lo < hi for lo, hi in spans):
            raise ValueError(f"breaks must increase strictly inside ({c}, {d})")
    if c == d:
        return 0.0, 0.0
    table = _table is not None
    left = right = None
    near = ()  # the named ends e != 0, as `_panel` takes them
    if ends:
        gammas = dict(ends)
        left, right = gammas.get(c), gammas.get(d)
        near = [(e, gamma, _CLOSE * abs(e)) for e, gamma in ends if e]
        if left is not None and right is not None and len(spans) == 1:
            mid = 0.5 * (c + d)
            spans = list(itertools.pairwise((c, 0.5 * (c + mid), mid, 0.5 * (mid + d), d)))
    # heap of (-err, tiebreak, c, d, val, err, values, end): the unique tiebreak
    # keeps it deterministic; values are a table panel's 15 integrand values,
    # else None; end is (gamma, right) on the panel at an algebraic end, else None
    heap = []
    total = total_err = 0.0
    for lo, hi in spans:
        end = ((left, False) if left is not None and lo == c
               else (right, True) if right is not None and hi == d else None)
        val, err, values = _panel(g, lo, hi, end, table, near)
        heap.append((-err, len(heap), lo, hi, val, err, values, end))
        total += val
        total_err += err
    heapq.heapify(heap)
    n = len(heap)
    while total_err > cfg.abs_tol:
        if n >= cfg.max_subdivisions:
            raise QuadratureError(
                f"no convergence after {n} subdivisions "
                f"(err={total_err:.3e} on [{c}, {d}])"
            )
        _, _, lo, hi, v_old, e_old, _, end = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        # only the half that still touches the algebraic end keeps its rule
        end1, end2 = (None, end) if end is not None and end[1] else (end, None)
        v1, e1, x1 = _panel(g, lo, mid, end1, table, near)
        v2, e2, x2 = _panel(g, mid, hi, end2, table, near)
        total += (v1 + v2) - v_old
        total_err += (e1 + e2) - e_old
        heapq.heappush(heap, (-e1, 2 * n, lo, mid, v1, e1, x1, end1))
        heapq.heappush(heap, (-e2, 2 * n + 1, mid, hi, v2, e2, x2, end2))
        n += 1
    if _table is not None:
        _table._fill(sorted(heap, key=operator.itemgetter(2)))
        total = math.fsum(entry[4] for entry in heap)  # the leaves' sum, correctly rounded
    return total, total_err


def _panel(g, lo: float, hi: float, end: Optional[tuple[float, bool]], table: bool, near) -> tuple:
    """(value, estimate, values) of one panel of `integrate`, the one place
    a panel is made. Where end = (gamma, right) names its algebraic end,
    `_end_panel`, and values are its 15 quotients. Else G7/K15: for a
    `table`, with its 15 values recorded and `_leaf_matrices`' tail
    estimate of the interpolant that queries read (an estimate, not a
    bound); else with values None, g read through `_exact_distances` on a
    panel closer than _CLOSE |e| to a named end of `near`, the (e, gamma,
    _CLOSE |e|) of each named end e != 0."""
    if end is not None:
        return _end_panel(g, lo, hi, *end, table=table)
    if table:
        values: list[float] = []

        def record(t: float) -> float:
            values.append(v := g(t))
            return v

        value = _gk15(record, lo, hi)[0]
        tail = _product(_leaf_matrices()[1], np.array([values]))
        return value, float(np.abs(tail).sum()) * (hi - lo), values
    if near:  # e lies outside [lo, hi], so one of lo - e and e - hi is its distance
        close = [(e, gamma) for e, gamma, reach in near if max(lo - e, e - hi) < reach]
        if close:
            g = _exact_distances(g, lo, hi, close)
    return (*_gk15(g, lo, hi), None)


# Next to an algebraic end e != 0, a G7/K15 panel's float midpoint and nodes
# are rounded to ulp(e), a share ulp(e) / |t - e| of their distance from e,
# and g = |t - e|^gamma H moves by gamma times that share. `_panel` reads g
# through `_exact_distances` on a panel within _CLOSE |e| of e; farther away
# the share is below 2^-46, as ulp(e) <= 2^-52 |e|.
_CLOSE = 2.0**-6


def _exact_distances(g, lo: float, hi: float, ends) -> Callable[[float], float]:
    """g for `_gk15` on [lo, hi], each value at a node t times
    (|s - e| / |t - e|)^gamma for each (e, gamma) of `ends`, s the node of
    [lo, hi] that t rounds: s - e = m + dx, m the midpoint of lo - e and
    hi - e (exact differences, as lo and hi lie within a factor 2 of e),
    and dx the node's offset as `_gk15` takes it. So the value is
    |s - e|^gamma H(t), H smooth, which `_gk15` weighs as the value at s."""
    half = 0.5 * (hi - lo)
    offsets = iter([0.0, *(s * (half * x) for x in _XGK[:7] for s in (-1.0, 1.0))])
    mids = [(e, gamma, 0.5 * ((lo - e) + (hi - e))) for e, gamma in ends]

    def exact(t: float) -> float:
        dx, value = next(offsets), g(t)
        for e, gamma, m in mids:
            if t != e:
                value *= (abs(m + dx) / abs(t - e)) ** gamma
        return value

    return exact


# --- cumulative tables -----------------------------------------------------

# The abscissae of one panel on [-1, 1] in the order _gk15 evaluates them.
_NODES = (0.0,) + tuple(s for x in _XGK[:7] for s in (-x, x))
_ONE_PLUS = tuple(1.0 + u for u in _NODES)  # their distances from u = -1
# P_{k+1}(s) = A_k s P_k(s) - B_k P_{k-1}(s): (A_k, B_k) for k < 24, the rows
# of `_gauss_legendre`; a leaf's antiderivative (degree 15) reads the first 16.
_LEGENDRE_STEPS = tuple(((2 * k + 1) / (k + 1), k / (k + 1)) for k in range(24))


def _legendre_rows(xs, degree: int) -> list[list[float]]:
    """P_0(x), ..., P_degree(x) for each x, one row per x."""
    rows = []
    for x in xs:
        row = [1.0, x]
        for k, (a_k, b_k) in enumerate(_LEGENDRE_STEPS[1:degree], start=1):
            row.append(a_k * x * row[k] - b_k * row[k - 1])
        rows.append(row)
    return rows


def _series(coef, s):
    """sum_k coef[k] P_k(s), by the recurrence; s a float or a numpy array."""
    acc = 0.0
    p_prev, p = 0.0, 1.0
    for c, (a_k, b_k) in zip(coef, _LEGENDRE_STEPS):
        acc += c * p
        p_prev, p = p, a_k * s * p - b_k * p_prev
    return acc


def _inverse(m: list[list[float]]) -> list[list[float]]:
    """Gauss-Jordan inverse with partial pivoting, for the small matrices here."""
    n = len(m)
    rows = [[*row, *(float(i == j) for j in range(n))] for i, row in enumerate(m)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = [v / rows[col][col] for v in rows[col]]
        rows = [top if r == col else [v - row[col] * t for v, t in zip(row, top)]
                for r, row in enumerate(rows)]
    return [row[n:] for row in rows]


@functools.cache
def _leaf_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maps from one leaf's 15 values (in _NODES order), built once.

    Let p = sum_n a_n P_n be the degree-14 Legendre interpolant through the
    values. The first map (16 x 15) gives the Legendre coefficients of
    s -> int_{-1}^s p; the second (4 x 15), 4 a_n / (2n + 1) for n = 11..14;
    the third (15 x 15), a_0, ..., a_14.
    As |int_{-1}^s P_n| <= 2 / (2n + 1), the leaf's width times their sum
    in magnitude is 4 times a bound on the partial integrals of p's last four
    terms: an estimate of p's error (Aurentz and Trefethen, "Chopping a
    Chebyshev series", ACM TOMS 43(4), 2017). Why 4: for a kink |s - r| in
    the leaf, r in [-0.99, 0.99], p's error reaches 1.84 times the plain
    bound. Built in plain Python and applied by `_product`, so no BLAS or
    LAPACK routine runs (their first call costs resident memory).
    """
    to_coef = np.array(_inverse(_legendre_rows(_NODES, 14)))
    # int_{-1}^s P_n = (P_{n+1} - P_{n-1}) / (2n + 1) for n >= 1, and s + 1 for n = 0
    integ = np.zeros((16, 15))
    integ[0, 0] = integ[1, 0] = 1.0
    for n in range(1, 15):
        integ[n + 1, n] = 1.0 / (2 * n + 1)
        integ[n - 1, n] = -1.0 / (2 * n + 1)
    tail = 4.0 * to_coef[11:] / np.arange(23, 31, 2)[:, None]
    return _product(integ, to_coef.T).T, tail, to_coef


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 24-point Gauss-Legendre nodes and weights on [-1, 1], and
    P_0, ..., P_23 at each node (one row per node), built once.

    Newton's method on P_24 from the usual cosine guesses, P_24 and its
    derivative by the Legendre recurrence; in plain Python, as
    `_leaf_matrices` is, so no LAPACK routine runs.
    """
    n = 24

    def p_and_slope(x: float) -> tuple[float, float]:
        *_, p_prev, p = _legendre_rows((x,), n)[0]
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    nodes, weights = [], []
    for i in range(1, n + 1):
        x, step = math.cos(math.pi * (i - 0.25) / (n + 0.5)), 1.0
        while abs(step) > 1e-15:  # quadratic: the step after this one is below rounding
            p, dp = p_and_slope(x)
            step = p / dp
            x -= step
        dp = p_and_slope(x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return np.array(nodes), np.array(weights), np.array(_legendre_rows(nodes, n - 1))


def _jacobi_moments(gamma: float, count: int) -> list[float]:
    """M_k = int_{-1}^1 (1 + u)^gamma P_k(u) du for k < count, gamma > -1:
    M_0 = 2^(gamma+1) / (gamma+1) and M_k = M_{k-1} (gamma-k+1) / (gamma+k+1)."""
    moments = [2.0 ** (gamma + 1.0) / (gamma + 1.0)]
    for k in range(1, count):
        moments.append(moments[-1] * (gamma - k + 1.0) / (gamma + k + 1.0))
    return moments


@functools.lru_cache(maxsize=16)
def _jacobi_rule(gamma: float) -> np.ndarray:
    """The 24 x 24 map from a function's values at the 24 Gauss-Legendre
    nodes to the terms c_k M_k, k < 24, c_k the Legendre coefficients of
    its interpolant through the nodes and M_k `_jacobi_moments`: they sum
    to the integral of the interpolant times (1 + u)^gamma over [-1, 1]."""
    _, weights, legendre = _gauss_legendre()
    moments = np.array(_jacobi_moments(gamma, 24)) * (np.arange(24) + 0.5)
    return moments[:, None] * (legendre * weights[:, None]).T


def _end_integral(gamma: float, coef, r):
    """int_{-1}^{2r-1} (1 + u)^gamma p(u) du, p = sum_k coef_k P_k of degree
    below 24 and r in [0, 1], a float or an array: the share r of [-1, 1]
    from its end, so that no 1 + u cancels next to it. It is r^(gamma + 1)
    int_{-1}^1 (1 + v)^gamma p(-1 + r (1 + v)) dv, which `_jacobi_rule`
    takes exactly from p at the 24 nodes."""
    nodes = _gauss_legendre()[0]
    r = np.asarray(r)
    values = _series(coef, np.multiply.outer(r, 1.0 + nodes) - 1.0)
    return r ** (gamma + 1.0) * (values * _jacobi_rule(gamma).sum(axis=0)).sum(axis=-1)


@functools.lru_cache(maxsize=16)
def _end_rule(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The two 5 x 15 maps of a panel at an algebraic end, built once per
    gamma: on [-1, 1], u = -1 at the end, g = (1 + u)^gamma H(u), and they
    read H at _NODES.

    With c_k the Legendre coefficients of H's degree-14 interpolant
    (`_leaf_matrices`' third map), the first row of each gives sum_k M_k
    c_k, the integral of (1 + u)^gamma times the interpolant (M_k
    `_jacobi_moments`). The other four give 4 M_k c_k for k = 11..14 in the
    first map: the size of the last four terms, times 4 as in
    `_leaf_matrices`, is `integrate`'s estimate. In the second they give
    4 B_k c_k, B_k the largest |int_{-1}^s (1 + u)^gamma P_k| over 128
    points s: a table's estimate of its queries, which read partial
    integrals. For gamma > 0, B_k exceeds |M_k| up to a thousandfold.
    """
    to_coef = _leaf_matrices()[2]
    moments = _jacobi_moments(gamma, 15)
    value = _product(to_coef.T, np.array([moments]))
    grid = np.linspace(0.0, 1.0, 129)[1:]
    sup = [np.abs(_end_integral(gamma, np.eye(15)[k], grid)).max() for k in range(11, 15)]
    return tuple(np.vstack((value, 4.0 * np.array(b)[:, None] * to_coef[11:]))
                 for b in (moments[11:], sup))


def _end_panel(
    g: Callable[[float], float], lo: float, hi: float, gamma: float, right: bool, table: bool
) -> tuple[float, float, list[float]]:
    """One panel [lo, hi] whose end lo (hi when `right`) is algebraic:
    g = |t - end|^gamma H(t) there, H smooth.

    g is evaluated at _NODES mapped with u = -1 at that end, and each value
    divided by (|t - end| / half)^gamma: the distance of t as it was
    rounded, taken as the weight takes it (the power family's w divides by
    the same rounded t - a or b - t), so the quotients are half^gamma H(t)
    even where t's rounding is a large share of that distance. Returns
    (value, estimate, the 15 quotients): the value exact when H is a
    polynomial of degree 14, and `_end_rule`'s estimate of it or, for a
    `table`, of its queries.
    """
    half = 0.5 * (hi - lo)
    end, step = (hi, -half) if right else (lo, half)
    values = []
    for s in _ONE_PLUS:
        t = end + step * s
        values.append(g(t) / (abs(t - end) / half) ** gamma)
    if not all(map(math.isfinite, values)):
        raise QuadratureError(f"non-finite integrand value near t={end}")
    value, *tail = _product(_end_rule(gamma)[1 if table else 0], np.array([values]))[0].tolist()
    return half * value, half * sum(map(abs, tail)), values


def _product(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m applied to each row of `rows` (rows @ m.T), without BLAS."""
    return np.einsum("ij,kj->ki", m, rows)


class Cumulative:
    """t -> int_c^t g for t in [c, d], read from a table built once.

    A query finds its leaf by bisection and adds the leaves before it to
    the integral, over the leaf up to t, of the leaf's degree-14 Legendre
    interpolant; g is not evaluated again. `total` and `error` are the
    integral over [c, d] and the sum of its leaves' tail estimates, within
    which every query is expected (a heuristic, not a bound). The ends read
    exactly 0.0 at c and `total` at d, with no interpolant. A leaf at an
    algebraic end of `cumulative`'s `ends` keeps gamma and the Legendre
    coefficients of H's interpolant through its 15 quotients (`_end_panel`):
    a query there reads int (1 + u)^gamma H from the end (`_end_integral`),
    counted from 0 at c, or taken from `total` at d.
    """

    def __init__(self, c: float, d: float) -> None:
        self.c, self.d = c, d
        self.total = self.error = 0.0
        self._lefts: list[float] = []
        self._mids: list[float] = []
        self._halves: list[float] = []
        self._coef: list[list[float]] = []
        self._prefix: list[float] = []
        self._ends: dict[int, tuple[float, bool, list[float]]] = {}  # leaf: (gamma, right, coef)

    def _fill(self, leaves: list[tuple]) -> None:
        """Take `integrate`'s heap entries for a table, sorted by panel."""
        _, _, lo, hi, kvals, _, block, ends = zip(*leaves)
        integ = _leaf_matrices()[0]
        halves = 0.5 * (np.array(hi) - np.array(lo))
        self._lefts = list(lo)
        self._mids = [0.5 * (u + v) for u, v in zip(lo, hi)]
        self._halves = halves.tolist()
        self._coef = (_product(integ, np.array(block)) * halves[:, None]).tolist()
        self._prefix = [0.0, *itertools.accumulate(kvals)][:-1]
        to_coef = _leaf_matrices()[2]
        self._ends = {
            i: (*end, _product(to_coef, np.array([block[i]]))[0].tolist())
            for i, end in enumerate(ends) if end is not None
        }

    def __call__(self, t: float) -> float:
        if not self.c <= t <= self.d:
            raise ValueError(f"t={t} outside the table's [{self.c}, {self.d}]")
        if t == self.c:
            return 0.0
        if t == self.d:
            return self.total
        i = bisect.bisect_right(self._lefts, t) - 1
        if i in self._ends:
            gamma, right, coef = self._ends[i]
            r = 0.5 * ((self.d - t) if right else (t - self.c)) / self._halves[i]
            part = self._halves[i] * float(_end_integral(gamma, coef, r))
            return self.total - part if right else part
        return self._prefix[i] + _series(self._coef[i], (t - self._mids[i]) / self._halves[i])

    def area(self) -> float:
        """int_c^d T, T the table's interpolant, read from the leaves; g is
        not evaluated again. As int_{-1}^1 P_k = 2 delta_k0, a leaf gives
        2 half (prefix + coef_0). On an end leaf, T is half times
        int_{-1}^s (1 + u)^gamma H from the end, so its integral over the
        leaf is half^2 int (1 - u)(1 + u)^gamma H = half^2 sum_k c_k (2 M_k
        - M'_k), M_k and M'_k `_jacobi_moments` at gamma and gamma + 1: that
        at c, and 2 half total less it at d.
        """
        parts = [
            2.0 * half * (prefix + coef[0])
            for half, prefix, coef in zip(self._halves, self._prefix, self._coef)
        ]
        for i, (gamma, right, coef) in self._ends.items():
            half = self._halves[i]
            moments = zip(_jacobi_moments(gamma, 15), _jacobi_moments(gamma + 1.0, 15))
            inner = half * half * math.fsum(c * (2.0 * m - m1) for c, (m, m1) in zip(coef, moments))
            parts[i] = 2.0 * half * self.total - inner if right else inner
        return math.fsum(parts)


def cumulative(
    g: Callable[[float], float],
    c: float,
    d: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    ends: Sequence[tuple[float, float]] = (),
) -> Cumulative:
    """The table t -> int_c^t g on [c, d], built now by one `integrate` call.

    Its work is counted there. Every query is expected within cfg.abs_tol,
    which its leaves' estimates sum to at most; QuadratureError otherwise.
    `ends` are `integrate`'s: a leaf at an algebraic end takes its end rule.
    """
    table = Cumulative(c, d)
    table.total, table.error = integrate(g, c, d, cfg, ends=ends, _table=table)
    return table


def weighted_mean(f, w, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Weighted integral mean of f over [c, d]: int(f w) / int(w).

    DegenerateIntervalError when [c, d] carries no weight mass (`Weight.mass`).
    """
    lo, hi = (c, d) if c <= d else (d, c)
    mass = w.mass(lo, hi)
    return w.integrate_against(f, lo, hi, cfg) / mass


def derivative_callable(f: Fn1D) -> Callable[[float], float]:
    """The closed-form derivative of f; ValueError naming f when it has none."""
    if f.derivative is None:
        raise ValueError(f"function {f.name!r} has no closed-form derivative")
    return f.derivative
