"""Adaptive Gauss-Kronrod integration, cumulative integral tables and
weighted integral means.

`integrate` has the one refinement loop: it bisects the panel with the
largest estimate until the estimates sum to at most abs_tol. A cumulative
table is built by that loop; only its per-panel estimate differs.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

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

    `derivative` is its closed-form derivative, where one is known: the
    derivative norms and bounds read it through `derivative_callable`,
    which raises when it is None.
    """

    fn: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None
    name: str = ""

    def __call__(self, t: float) -> float:
        return self.fn(t)


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    max_subdivisions: int = 1000

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
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
    scaled = (200.0 * diff) ** 1.5
    if scaled < err:
        err = scaled
    return resk, err


def integrate(
    g: Callable[[float], float],
    c: float,
    d: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    _table: Optional["Cumulative"] = None,
) -> tuple[float, float]:
    """Adaptive bisection with a nested G7/K15 rule pair.

    Returns (value, error estimate). Raises QuadratureError if the
    subdivision budget is exhausted before the tolerance is met.
    `_table` is the sink `cumulative` passes: each panel's estimate is then
    `_table_panels`' bound, and the leaves are handed to the table.
    """
    if c > d:
        raise ValueError("integrate requires c <= d")
    if c == d:
        return 0.0, 0.0
    if _table is None:
        (val, err), values, panels = _gk15(g, c, d), None, None
    else:
        panels = _table_panels(g)
        ((val, err, values),) = panels((c, d))
    # heap of (-err, tiebreak, c, d, val, err, values): the unique tiebreak keeps
    # it deterministic; values are a table panel's 15 integrand values, else None
    heap = [(-err, 0, c, d, val, err, values)]
    total, total_err, n = val, err, 1
    while total_err > cfg.abs_tol:
        if n >= cfg.max_subdivisions:
            raise QuadratureError(
                f"no convergence after {n} subdivisions "
                f"(err={total_err:.3e} on [{c}, {d}])"
            )
        _, _, lo, hi, v_old, e_old, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if panels is None:
            v1, e1 = _gk15(g, lo, mid)
            v2, e2 = _gk15(g, mid, hi)
            x1 = x2 = None
        else:
            (v1, e1, x1), (v2, e2, x2) = panels((lo, mid), (mid, hi))
        total += (v1 + v2) - v_old
        total_err += (e1 + e2) - e_old
        heapq.heappush(heap, (-e1, 2 * n, lo, mid, v1, e1, x1))
        heapq.heappush(heap, (-e2, 2 * n + 1, mid, hi, v2, e2, x2))
        n += 1
    if _table is not None:
        _table._fill(sorted(heap, key=operator.itemgetter(2)))
        total = math.fsum(entry[4] for entry in heap)  # the leaves' sum, correctly rounded
    return total, total_err


# --- cumulative tables -----------------------------------------------------

# The abscissae of one panel on [-1, 1] in the order _gk15 evaluates them,
# and the positions of the 7 Gauss abscissae among them.
_NODES = (0.0,) + tuple(s for x in _XGK[:7] for s in (-x, x))
_GAUSS = (0, 3, 4, 7, 8, 11, 12)
# P_{k+1}(s) = A_k s P_k(s) - B_k P_{k-1}(s): one (A_k, B_k) per coefficient
# of a leaf's antiderivative (degree 15).
_LEGENDRE_STEPS = tuple(((2 * k + 1) / (k + 1), k / (k + 1)) for k in range(16))


def _legendre_rows(xs, degree: int) -> list[list[float]]:
    """P_0(x), ..., P_degree(x) for each x, one row per x."""
    rows = []
    for x in xs:
        row = [1.0, x]
        for k, (a_k, b_k) in enumerate(_LEGENDRE_STEPS[1:degree], start=1):
            row.append(a_k * x * row[k] - b_k * row[k - 1])
        rows.append(row)
    return rows


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
def _leaf_matrices() -> tuple[np.ndarray, np.ndarray]:
    """The maps from one leaf's 15 values (in _NODES order), built once.

    Let p = sum_n a_n P_n be the degree-14 Legendre interpolant through the
    values and p7 = sum_n b_n P_n the G7 interpolant through the 7 Gauss
    values. The first map (16 x 15) gives the Legendre coefficients of
    s -> int_{-1}^s p. The second (15 x 15) gives the differences a_n - b_n,
    row n divided by 2n + 1 for n >= 1: as int_{-1}^s P_0 = s + 1 <= 2 and
    |int_{-1}^s P_n| = |P_{n+1}(s) - P_{n-1}(s)| / (2n + 1) <= 2 / (2n + 1),
    the width of the leaf times the sum of their magnitudes bounds every
    partial integral of p - p7 over the leaf.
    Built in plain Python and applied by `_product`, so no BLAS or LAPACK
    routine runs (their first call costs resident memory).
    """
    to_coef = np.array(_inverse(_legendre_rows(_NODES, 14)))
    gauss = np.array(_inverse(_legendre_rows([_NODES[i] for i in _GAUSS], 6)))
    # int_{-1}^s P_n = (P_{n+1} - P_{n-1}) / (2n + 1) for n >= 1, and s + 1 for n = 0
    integ = np.zeros((16, 15))
    integ[0, 0] = integ[1, 0] = 1.0
    for n in range(1, 15):
        integ[n + 1, n] = 1.0 / (2 * n + 1)
        integ[n - 1, n] = -1.0 / (2 * n + 1)
    diff = to_coef.copy()
    diff[:7, list(_GAUSS)] -= gauss
    diff[1:] /= np.arange(3, 31, 2)[:, None]
    return _product(integ, to_coef.T).T, diff


def _product(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m applied to each row of `rows` (rows @ m.T), without BLAS."""
    return np.einsum("ij,kj->ki", m, rows)


def _table_panels(g: Callable[[float], float]) -> Callable[..., list[tuple]]:
    """The panel rule of a cumulative table: spans -> (K15 value, estimate,
    the 15 values) per span. The estimate is `_leaf_matrices`' bound on the
    panel's partial integrals, which covers its full integral too and is
    never below the plain |K15 - G7| estimate; so when the estimates sum to
    at most abs_tol, every query of the table meets abs_tol.
    """
    diff = _leaf_matrices()[1]
    values: list[float] = []

    def record(t: float) -> float:
        values.append(v := g(t))
        return v

    def panels(*spans: tuple[float, float]) -> list[tuple]:
        kvals = [_gk15(record, lo, hi)[0] for lo, hi in spans]
        block = np.array(values).reshape(len(spans), 15)
        values.clear()
        est = np.abs(_product(diff, block)).sum(axis=1) * [hi - lo for lo, hi in spans]
        return list(zip(kvals, est.tolist(), block))

    return panels


class Cumulative:
    """t -> int_c^t g for t in [c, d], read from a table built once.

    A query finds its leaf by bisection and adds the leaves before it to
    the integral, over the leaf up to t, of the leaf's degree-14 Legendre
    interpolant; g is not evaluated again. `total` and `error` are the
    integral over [c, d] and the table's error estimate, which bounds the
    error of every query. The ends read exactly 0.0 at c and `total` at d,
    with no interpolant.
    """

    def __init__(self, c: float, d: float) -> None:
        self.c, self.d = c, d
        self.total = self.error = 0.0
        self._lefts: list[float] = []
        self._mids: list[float] = []
        self._halves: list[float] = []
        self._coef: list[list[float]] = []
        self._prefix: list[float] = []

    def _fill(self, leaves: list[tuple]) -> None:
        """Take `integrate`'s heap entries for a table, sorted by panel."""
        _, _, lo, hi, kvals, _, block = zip(*leaves)
        integ = _leaf_matrices()[0]
        halves = 0.5 * (np.array(hi) - np.array(lo))
        self._lefts = list(lo)
        self._mids = [0.5 * (u + v) for u, v in zip(lo, hi)]
        self._halves = halves.tolist()
        self._coef = (_product(integ, np.array(block)) * halves[:, None]).tolist()
        self._prefix = [0.0, *itertools.accumulate(kvals)][:-1]

    def __call__(self, t: float) -> float:
        if not self.c <= t <= self.d:
            raise ValueError(f"t={t} outside the table's [{self.c}, {self.d}]")
        if t == self.c:
            return 0.0
        if t == self.d:
            return self.total
        i = bisect.bisect_right(self._lefts, t) - 1
        s = (t - self._mids[i]) / self._halves[i]
        acc = 0.0
        p_prev, p = 0.0, 1.0
        for coef, (a_k, b_k) in zip(self._coef[i], _LEGENDRE_STEPS):
            acc += coef * p
            p_prev, p = p, a_k * s * p - b_k * p_prev
        return self._prefix[i] + acc


def cumulative(
    g: Callable[[float], float],
    c: float,
    d: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> Cumulative:
    """The table t -> int_c^t g on [c, d], built now by one `integrate` call.

    Its work is counted there. Every query is within cfg.abs_tol by the
    table's error estimate; QuadratureError when the subdivision budget
    runs out first.
    """
    table = Cumulative(c, d)
    table.total, table.error = integrate(g, c, d, cfg, _table=table)
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
