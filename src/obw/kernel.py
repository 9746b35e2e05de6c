"""Weighted Peano kernel, its norm integrals, and its integral against a
function.

Every function here walks the branches `_branches` returns: one per
nonzero coefficient, [a, x] anchored at a and [x, b] anchored at b, where
the kernel is coef * m(anchor, t). The right branch keeps the oriented
(negative) moment so the integration-by-parts identity holds exactly;
absolute values appear only inside the norm integrals, which split at the
jump point.

kernel_l1 reads each branch from the weight's `moment_l1`, the integral
of |m(anchor, t)| between the anchor and x: a closed form for the built-in
weights, so it runs no quadrature, and one weighted integral of the
distance to x (the Fubini form) for an expression weight. kernel_lq reads
an expression weight's branches from the leaves of the one table it
builds when it is made (`Cumulative.power_integral`), with no quadrature
and no query of the table. For the built-in weights kernel_lq, and
kernel_integral for every weight, read t -> m(anchor, t) inside their
integrands from the weight's `closed_moment`: a closed form, or that
table. No quadrature runs inside an integrand and no table is built per
call.

kernel_integral(f', ...) is the left side of the kernel representation
int rho(x, t) f'(t) dt = tau(f); its residual is that integral minus
`functionals.tau`, which alone sums the weighted means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .quadrature import DEFAULT_CONFIG, QuadConfig, QuadratureError, integrate
from .weights import Weight

__all__ = [
    "TauParams",
    "peano_kernel",
    "kernel_l1",
    "kernel_lq",
    "kernel_sup",
    "kernel_integral",
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
        if not (self.alpha >= 0 and self.beta >= 0 and math.isfinite(self.alpha + self.beta)):
            raise ValueError(
                "coefficients must be finite and nonnegative with a finite sum, "
                f"got alpha={self.alpha:g}, beta={self.beta:g}"
            )
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


def _branch_integral(name: str, g: Callable[[float], float], c: float, d: float,
                     anchor: float, cfg: QuadConfig, breaks: Sequence[float] = ()) -> float:
    """int_c^d g on a branch, from `breaks` inside it; a QuadratureError
    names the quantity and the branch, left where it is anchored at c."""
    try:
        return integrate(g, c, d, cfg, breaks)[0]
    except QuadratureError as exc:
        side = "left" if anchor == c else "right"
        raise QuadratureError(f"{name} {side} branch on [{c:g}, {d:g}]: {exc}") from None


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
    """Exact (int_a^b |rho(x, t)|^q dt)^(1/q) for q > 1.

    A branch of a tabulated weight anchored at an end of its table is read
    from the table's leaves (`Cumulative.power_integral`) when the
    estimate is within the branch's share of cfg.abs_tol; otherwise, and
    for the built-in weights, it is one integral of |coef m(anchor, t)|^q.

    As q grows, |rho|^q peaks ever more narrowly at x, and its integral
    sinks below abs_tol (near q = 30 on [0, 1]), then underflows (near
    q = 1000). Below abs_tol the norm is read relative to S = `kernel_sup`:
    S (int |rho / S|^q)^(1/q), where |rho / S| peaks at 1, each branch one
    integral from breaks at distances (d - c) 2^-k from x, k < 60, so a
    panel next to the peak is no wider than its distance from x. Where
    that integral is 0 as well, the bound S (b - a)^(1/q).
    """
    if q <= 1:
        raise ValueError("kernel_lq requires q > 1")
    branches = _branches(params, w)
    table = w.table
    total = 0.0
    for coef, c, d, anchor in branches:
        if table is not None and anchor in (table.c, table.d):
            try:
                with np.errstate(over="raise"):
                    value, err = table.power_integral(anchor, params.x, q, coef)
            except (OverflowError, FloatingPointError):  # |h r|^q, or 2^(q + 1) for q >= 1023
                err = math.inf
            if err <= cfg.abs_tol / len(branches):
                total += value
                continue
        m = partial(w.closed_moment, anchor)
        total += _branch_integral("kernel_lq", lambda t: abs(coef * m(t)) ** q, c, d, anchor, cfg)
    if total >= cfg.abs_tol:
        return total ** (1.0 / q)
    sup = kernel_sup(params, w)
    total = 0.0
    for coef, c, d, anchor in branches:
        m, scale = partial(w.closed_moment, anchor), coef / sup
        x, step = (d, c - d) if anchor == c else (c, d - c)
        breaks = sorted({t for k in range(1, 60) if c < (t := x + step * 0.5**k) < d})
        total += _branch_integral(
            "kernel_lq", lambda t: abs(scale * m(t)) ** q, c, d, anchor, cfg, breaks)
    return sup * (total if total > 0 else params.b - params.a) ** (1.0 / q)


def kernel_sup(params: TauParams, w: Weight) -> float:
    """sup |rho|; equals max(alpha, beta) / (alpha + beta), attained at t = x."""
    _branches(params, w)  # rejects a branch without mass
    return max(params.alpha, params.beta) / params.weight_sum


def kernel_integral(
    g: Callable[[float], float], params: TauParams, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """int_a^b rho(x, t) g(t) dt, one integral per branch; tau(f) for g = f'."""
    total = 0.0
    for coef, c, d, anchor in _branches(params, w):
        m = partial(w.closed_moment, anchor)
        total += _branch_integral(
            "kernel_integral", lambda t: coef * m(t) * g(t), c, d, anchor, cfg)
    return total
