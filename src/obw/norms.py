"""Lebesgue norms of a derivative f' on a subinterval: the sup and the roots
of f' from one scan, the L_p norm from |f'|^p integrated between the roots,
and the L1 norm from f itself, its total variation over them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .quadrature import (
    DEFAULT_CONFIG,
    Fn1D,
    QuadConfig,
    QuadratureError,
    derivative_callable,
    integrate,
)

__all__ = ["Triple", "norm_triple", "conjugate"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_N_CHEB = 1024
_N_PEAKS = 8
# The _N_CHEB Chebyshev extreme points of [-1, 1], ascending; _scan maps
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


def _value(g: Callable[[float], float], t: float) -> float:
    """g(t); ValueError naming t where it is not finite."""
    v = g(t)
    if not math.isfinite(v):
        raise ValueError(f"non-finite evaluation at t={t}")
    return v


def _bisect_root(g: Callable[[float], float], lo: float, hi: float, lo_positive: bool,
                 tol: float) -> float:
    """A root of g in (lo, hi), where g changes sign, by bisection on the
    scalar g to width tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        v = _value(g, mid)
        if v == 0.0:
            return mid
        if (v > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan(g: Callable[[float], float], c: float, d: float) -> tuple[float, list[float]]:
    """The sup of |g| on [c, d] and the roots of g inside (c, d), ascending,
    both read from one sampling of g on the _N_CHEB Chebyshev points.

    Sup: each of the (up to) _N_PEAKS largest sampled local maxima of |g|
    is read again from the scalar g and refined by golden section on both
    halves of its bracket, since a bracket can span two lobes of a feature
    narrower than the sampling. Roots: each sign change between samples is
    refined by bisection on the scalar g. Where g has a `grid`, the samples
    are taken in one array call, its flags ignored; only those not finite
    are read again through the scalar g (its finite differences, or a
    ValueError naming t). So every value returned is one of the scalar g.
    """
    if not d > c:
        raise ValueError("derivative norms require c < d")
    mid = 0.5 * (c + d)
    half = 0.5 * (d - c)
    ts_array = mid + half * _CHEB_UNIT
    ts = ts_array.tolist()
    grid = getattr(g, "grid", None)
    if grid is None:
        vals = np.array([_value(g, t) for t in ts])
    else:
        with np.errstate(all="ignore"):
            vals = np.array(grid(ts_array))
        for i in np.flatnonzero(~np.isfinite(vals)).tolist():
            vals[i] = _value(g, ts[i])
    tol = 1e-12 * max(1.0, d - c)

    # local maxima: at least both neighbours and above one (so a plateau
    # gives its two ends); the ends of [c, d] have one neighbour
    mags = np.abs(vals)
    left = np.concatenate(([-np.inf], mags[:-1]))
    right = np.concatenate((mags[1:], [-np.inf]))
    peaks = np.flatnonzero((mags >= left) & (mags >= right) & ((mags > left) | (mags > right)))
    # the _N_PEAKS largest, ties in sample order (a stable sort)
    peaks = peaks[np.argsort(-mags[peaks], kind="stable")[:_N_PEAKS]].tolist()
    sup = max(abs(_value(g, ts[i])) for i in peaks)
    last = len(ts) - 1
    for i in peaks:
        for lo, hi in ((ts[max(i - 1, 0)], ts[i]), (ts[i], ts[min(i + 1, last)])):
            if hi > lo:
                sup = max(sup, _golden_max(lambda t: abs(g(t)), lo, hi, tol))

    # sign changes between consecutive nonzero samples
    nonzero = np.flatnonzero(vals)
    positive = vals[nonzero] > 0.0
    roots: list[float] = []
    for k in np.flatnonzero(positive[:-1] != positive[1:]).tolist():
        i, j = nonzero[k], nonzero[k + 1]
        root = _bisect_root(g, ts[i], ts[j], bool(positive[k]), tol)
        if c < root < d and (not roots or root > roots[-1]):
            roots.append(root)
    return sup, roots


def _norm_lp(
    g: Callable[[float], float],
    p: float,
    c: float,
    d: float,
    cfg: QuadConfig,
    roots: list[float],
) -> float:
    """(int_c^d |g|^p)^(1/p), the integral split at the roots of g, where
    |g|^p has a kink that the K15 - G7 estimate cannot see. A failed
    integral, or |g|^p overflowing, raises QuadratureError naming the norm."""
    if not 1 < p < math.inf:
        raise ValueError(f"L_p norm requires finite p > 1, got p={p:g}")
    name = f"L{p:g} norm of f' on [{c:g}, {d:g}]"
    try:
        val = integrate(lambda t: abs(g(t)) ** p, c, d, cfg, breaks=roots)[0]
    except QuadratureError as exc:
        raise QuadratureError(f"{name}: {exc}") from None
    except OverflowError:
        raise QuadratureError(f"{name}: |f'|^{p:g} overflows") from None
    return max(val, 0.0) ** (1.0 / p)


def _variation(f: Callable[[float], float], c: float, d: float, roots: list[float]) -> float:
    """||f'||_1 on [c, d]: the total variation of f, which is monotone
    between c, the roots of f' and d. Where f has no finite value at one of
    them, the ValueError names the norm and t."""
    vals = []
    for t in (c, *roots, d):
        try:
            vals.append(_value(f, t))
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"L1 norm of f' on [{c:g}, {d:g}]: f fails at t={t}: {exc}") from None
    return math.fsum(abs(v - u) for u, v in zip(vals, vals[1:]))


def _norm_triples(f: Fn1D, ps: Sequence[float], c: float, d: float,
                  cfg: QuadConfig) -> dict[float, Triple]:
    """{p: sup, L_p and L1 norms of f' on [c, d]} from one `_scan` of f':
    its sup and roots serve every p, each L_p norm integrates |f'|^p
    between the roots, and the L1 norm is f's variation over them."""
    g = derivative_callable(f)
    try:
        sup, roots = _scan(g, c, d)
    except ValueError as exc:
        raise ValueError(f"sup norm of f' on [{c:g}, {d:g}]: {exc}") from None
    lps = [_norm_lp(g, p, c, d, cfg, roots) for p in ps]
    one = _variation(f, c, d, roots)
    return {p: Triple(sup, lp, one) for p, lp in zip(ps, lps)}


def norm_triple(
    f: Fn1D,
    p: float,
    c: float,
    d: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> Triple:
    """Sup, L_p, and L1 norms of f' on [c, d], from one `_scan` of f': the
    L_p norm integrates |f'|^p, and the L1 norm is f's variation. Where f or
    f' has no value at a point, the ValueError names the norm."""
    return _norm_triples(f, (p,), c, d, cfg)[p]
