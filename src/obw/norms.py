"""Lebesgue norms of a derivative on a subinterval."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .quadrature import DEFAULT_CONFIG, QuadConfig, QuadratureError, integrate

__all__ = ["Triple", "norm_inf", "norm_p", "norm_triple", "conjugate"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_N_CHEB = 1024
_N_REFINE = 8
# The _N_CHEB Chebyshev extreme points of [-1, 1], ascending; norm_inf maps
# them onto [c, d], where mid + half * u is monotone in u, so the samples
# come out sorted.
_CHEB_UNIT = np.array(sorted(math.cos(math.pi * k / (_N_CHEB - 1)) for k in range(_N_CHEB)))


def conjugate(p: float) -> float:
    """Conjugate exponent q with 1/p + 1/q = 1."""
    if p <= 1:
        raise ValueError("conjugate exponent requires p > 1")
    return p / (p - 1.0)


@dataclass(frozen=True)
class Triple:
    """One value per derivative-norm branch (sup, L_p, L1): the norms of f',
    the kernel norms or bound factors that pair with them, or the bounds.

    `u * v` multiplies branch by branch and `u * s` scales every branch;
    iteration yields (inf, p, one).
    """

    inf: float
    p: float
    one: float

    def __mul__(self, other: Triple | float) -> Triple:
        if isinstance(other, Triple):
            return Triple(self.inf * other.inf, self.p * other.p, self.one * other.one)
        return Triple(self.inf * other, self.p * other, self.one * other)

    def __iter__(self) -> Iterator[float]:
        return iter((self.inf, self.p, self.one))


def _golden_max(g: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of g on [lo, hi]; returns the best value."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    gc, gd = g(c), g(d)
    best = max(gc, gd)
    while hi - lo > tol:
        if gc > gd:
            hi, d, gd = d, c, gc
            c = hi - _INV_PHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INV_PHI * (hi - lo)
            gd = g(d)
        best = max(best, gc, gd)
    return best


def _abs_at(g: Callable[[float], float], t: float) -> float:
    """|g(t)|; ValueError naming t where it is not finite."""
    v = abs(g(t))
    if not math.isfinite(v):
        raise ValueError(f"non-finite evaluation at t={t}")
    return v


def _grid_abs(g: Callable[[float], float], ts: np.ndarray) -> np.ndarray | None:
    """|g| on ts in one array call, where g has a `grid` (expr.as_fn1d's
    derivatives do). None where it has none, or where some sample divided
    by zero, overflowed, left the reals or is not finite: only there can
    the scalar g raise or fall back to finite differences."""
    grid = getattr(g, "grid", None)
    if grid is None:
        return None
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        try:
            vals = np.abs(grid(ts))
        except ArithmeticError:  # a raised flag: the scalar g decides
            return None
    return vals if np.isfinite(vals).all() else None


def norm_inf(g: Callable[[float], float], c: float, d: float) -> float:
    """Sup-norm estimate of |g| on [c, d].

    Dense Chebyshev-spaced sampling followed by golden-section refinement
    around the best candidates. An estimate, not a certificate; never less
    than the max sampled value.

    Where g has a `grid`, the samples are taken in one array call and only
    choose the candidates: every value returned is one of the scalar g, at
    a candidate or in its refinement.
    """
    if not d > c:
        raise ValueError("norm_inf requires c < d")
    mid = 0.5 * (c + d)
    half = 0.5 * (d - c)
    ts_array = mid + half * _CHEB_UNIT
    ts = ts_array.tolist()
    vals = _grid_abs(g, ts_array)
    on_grid = vals is not None
    if not on_grid:
        vals = np.array([_abs_at(g, t) for t in ts])
    # the _N_REFINE largest, ties in sample order (a stable sort)
    ranked = np.argsort(-vals, kind="stable")[:_N_REFINE].tolist()
    best = max(_abs_at(g, ts[i]) for i in ranked) if on_grid else float(vals[ranked[0]])
    tol = 1e-12 * max(1.0, d - c)
    for i in ranked:
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, len(ts) - 1)]
        if hi > lo:
            best = max(best, _golden_max(lambda t: abs(g(t)), lo, hi, tol))
    return best


def norm_p(
    g: Callable[[float], float],
    p: float,
    c: float,
    d: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> float:
    """L_p norm (int_c^d |g|^p)^(1/p); p = 1 gives the L1 norm.

    g is a derivative f', so a QuadratureError says which norm of f'
    failed, e.g. when f' is not in L_p.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"norm_p requires finite p >= 1, got p={p:g}")
    try:
        val = integrate(lambda t: abs(g(t)) ** p, c, d, cfg)[0]
    except QuadratureError as exc:
        raise QuadratureError(f"L{p:g} norm of f' on [{c:g}, {d:g}]: {exc}") from None
    val = max(val, 0.0)
    return val if p == 1 else val ** (1.0 / p)


def norm_triple(
    g: Callable[[float], float],
    p: float,
    c: float,
    d: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> Triple:
    """Sup, L_p, and L1 norms of g on [c, d]."""
    return Triple(norm_inf(g, c, d), norm_p(g, p, c, d, cfg), norm_p(g, 1.0, c, d, cfg))
