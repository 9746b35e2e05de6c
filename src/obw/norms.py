"""Lebesgue norms of a derivative on a subinterval."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .quadrature import DEFAULT_CONFIG, QuadConfig, QuadratureError, integrate

__all__ = ["Triple", "norm_inf", "norm_p", "norm_triple", "conjugate"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_N_CHEB = 1024
_N_REFINE = 8
# The _N_CHEB Chebyshev extreme points of [-1, 1], ascending; norm_inf maps
# them onto [c, d], where mid + half * u is monotone in u, so the samples
# come out sorted.
_CHEB_UNIT = tuple(sorted(math.cos(math.pi * k / (_N_CHEB - 1)) for k in range(_N_CHEB)))


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


def norm_inf(g: Callable[[float], float], c: float, d: float) -> float:
    """Sup-norm estimate of |g| on [c, d].

    Dense Chebyshev-spaced sampling followed by golden-section refinement
    around the best candidates. An estimate, not a certificate; never less
    than the max sampled value.
    """
    if not d > c:
        raise ValueError("norm_inf requires c < d")
    mid = 0.5 * (c + d)
    half = 0.5 * (d - c)
    ts = [mid + half * u for u in _CHEB_UNIT]
    vals = []
    for t in ts:
        v = abs(g(t))
        if not math.isfinite(v):
            raise ValueError(f"non-finite evaluation at t={t}")
        vals.append(v)
    best = max(vals)
    # the _N_REFINE largest, ties in sample order (nlargest sorts stably)
    ranked = heapq.nlargest(_N_REFINE, range(len(ts)), key=vals.__getitem__)
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
    if p < 1:
        raise ValueError("norm_p requires p >= 1")
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
