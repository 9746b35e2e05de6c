"""Adaptive Gauss-Kronrod integration and weighted integral means."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "Fn1D",
    "QuadConfig",
    "QuadratureError",
    "DegenerateIntervalError",
    "DEFAULT_CONFIG",
    "integrate",
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

    An optional closed-form derivative avoids finite differencing.
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

# 15-point Kronrod extension of 7-point Gauss (QUADPACK abscissae, half set).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(g: Callable[[float], float], c: float, d: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel; returns (kronrod value, error estimate)."""
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
) -> tuple[float, float]:
    """Adaptive bisection with a nested G7/K15 rule pair.

    Returns (value, error estimate). Raises QuadratureError if the
    subdivision budget is exhausted before the tolerance is met.
    """
    if c > d:
        raise ValueError("integrate requires c <= d")
    if c == d:
        return 0.0, 0.0
    val, err = _gk15(g, c, d)
    # heap of (-err, tiebreak, c, d, val, err); tiebreak keeps it deterministic
    counter = 0
    heap = [(-err, counter, c, d, val, err)]
    total = val
    total_err = err
    n = 1
    while total_err > cfg.abs_tol:
        if n >= cfg.max_subdivisions:
            raise QuadratureError(
                f"no convergence after {n} subdivisions "
                f"(err={total_err:.3e} on [{c}, {d}])"
            )
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(g, lo, mid)
        v2, e2 = _gk15(g, mid, hi)
        total += (v1 + v2) - v_old
        total_err += (e1 + e2) - e_old
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        n += 1
    return total, total_err


def weighted_mean(f, w, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Weighted integral mean of f over [c, d]: int(f w) / int(w)."""
    lo, hi = (c, d) if c <= d else (d, c)
    mass = w.moment(lo, hi, cfg)
    total = w.moment(w.a, w.b, cfg)
    if mass < 1e-13 * total:
        raise DegenerateIntervalError(
            f"zero weight mass on [{lo}, {hi}]; weighted mean is undefined"
        )
    return w.integrate_against(f, lo, hi, cfg) / mass


_FD_STEP = (2.0 ** -52) ** (1.0 / 3.0)


def derivative_callable(
    f: Fn1D, lo: float, hi: float
) -> Callable[[float], float]:
    """Derivative of f: closed form if present, else second-order differences.

    Central differences in the interior, one-sided at the interval endpoints.
    """
    if f.derivative is not None:
        return f.derivative

    def d(t: float) -> float:
        h = _FD_STEP * max(1.0, abs(t))
        if t - h < lo:
            return (-3.0 * f.fn(t) + 4.0 * f.fn(t + h) - f.fn(t + 2 * h)) / (2 * h)
        if t + h > hi:
            return (3.0 * f.fn(t) - 4.0 * f.fn(t - h) + f.fn(t - 2 * h)) / (2 * h)
        return (f.fn(t + h) - f.fn(t - h)) / (2 * h)

    return d
