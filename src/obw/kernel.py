"""Weighted Peano kernel, its norm integrals, and the identity residual.

Every function here walks the branches `_branches` returns: one per
nonzero coefficient, [a, x] anchored at a and [x, b] anchored at b, where
the kernel is coef * m(anchor, t). The right branch keeps the oriented
(negative) moment so the integration-by-parts identity holds exactly;
absolute values appear only inside the norm integrals, which split at the
jump point.

kernel_l1 reads each branch from the weight's `moment_l1`, the integral
of |m(anchor, t)| between the anchor and x: a closed form for the built-in
weights, so it runs no quadrature, and one weighted integral of the
distance to x (the Fubini form) for an expression weight. kernel_lq and
identity_residual read t -> m(anchor, t) inside their integrands from the
weight's `closed_moment`: a closed form, or the one table an expression
weight builds when it is made. No quadrature runs inside an integrand and
no table is built per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig, derivative_callable, integrate
from .weights import Weight

__all__ = [
    "TauParams",
    "peano_kernel",
    "kernel_l1",
    "kernel_lq",
    "kernel_sup",
    "identity_residual",
]


@dataclass(frozen=True)
class TauParams:
    """Interval, evaluation point, and branch coefficients (alpha, beta)."""

    a: float
    b: float
    x: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("requires a < b")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("coefficients must be nonnegative")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("coefficients must not both be zero")
        if self.alpha > 0 and not self.x > self.a:
            raise ValueError("alpha > 0 requires x > a (left branch needs mass)")
        if self.beta > 0 and not self.x < self.b:
            raise ValueError("beta > 0 requires x < b (right branch needs mass)")

    @property
    def weight_sum(self) -> float:
        return self.alpha + self.beta


def _sides(params: TauParams) -> list[tuple[float, float, float, float]]:
    """(coefficient, c, d, anchor) per side with a nonzero coefficient:
    alpha on [a, x] anchored at a, beta on [x, b] anchored at b."""
    a, b, x = params.a, params.b, params.x
    return [side for side in ((params.alpha, a, x, a), (params.beta, x, b, b)) if side[0] > 0]


def _branches(params: TauParams, w: Weight) -> list[tuple[float, float, float, float]]:
    """(coef, c, d, anchor) per side, where coef is the side's share of
    alpha + beta over its mass (`Weight.mass`, which rejects a degenerate
    branch); on [c, d] the kernel is coef * m(anchor, t).
    """
    s = params.weight_sum
    return [(share / s / w.mass(c, d), c, d, anchor) for share, c, d, anchor in _sides(params)]


def peano_kernel(params: TauParams, w: Weight, t: float) -> float:
    """rho(x, t): oriented two-branch kernel, <= 0 on the right branch.

    The jump point t = x belongs to the left branch.
    """
    if t < params.a or t > params.b:
        raise ValueError(f"t={t} outside [{params.a}, {params.b}]")
    for coef, c, d, anchor in _branches(params, w):
        if c < t <= d:
            return coef * w.moment(anchor, t)
    return 0.0  # t = a, or a branch without a coefficient


def kernel_l1(params: TauParams, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Exact int_a^b |rho(x, t)| dt, split at the jump point t = x.

    Each branch is coef * int |m(anchor, t)| dt between its anchor and x,
    the weight's `moment_l1`; cfg reaches only a weight without a closed
    form for it.
    """
    x = params.x
    return sum(coef * w.moment_l1(anchor, x, cfg) for coef, _, _, anchor in _branches(params, w))


def kernel_lq(
    params: TauParams, w: Weight, q: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """Exact (int_a^b |rho(x, t)|^q dt)^(1/q) for q > 1."""
    if q <= 1:
        raise ValueError("kernel_lq requires q > 1")
    total = 0.0
    for coef, c, d, anchor in _branches(params, w):
        m = partial(w.closed_moment, anchor)
        total += integrate(lambda t: abs(coef * m(t)) ** q, c, d, cfg)[0]
    return total ** (1.0 / q)


def kernel_sup(params: TauParams, w: Weight) -> float:
    """sup |rho|; equals max(alpha, beta) / (alpha + beta), attained at t = x."""
    _branches(params, w)  # rejects a branch without mass
    return max(params.alpha, params.beta) / params.weight_sum


def identity_residual(
    f: Fn1D, params: TauParams, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """Residual of the kernel representation.

    Left side: int rho(x, t) f'(t) dt. Right side: f(x) minus the
    coefficient-weighted combination of one-sided weighted means.
    Near zero (combined quadrature tolerance) for smooth f.
    """
    fprime = derivative_callable(f, params.a, params.b)
    residual = -f(params.x)
    for coef, c, d, anchor in _branches(params, w):
        m = partial(w.closed_moment, anchor)
        residual += integrate(lambda t: coef * m(t) * fprime(t), c, d, cfg)[0]
        residual += coef * w.integrate_against(f, c, d, cfg)
    return residual
