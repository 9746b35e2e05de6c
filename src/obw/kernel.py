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
distance to x (the Fubini form) for an expression weight. kernel_lq takes
one normalised pass per branch (`_lq_side`). It and kernel_integral read
t -> m(anchor, t) inside their integrands through one callable per branch,
the weight's `moment_from(anchor)`: a closed form, or one read of an
expression weight's table, so no quadrature runs inside an integrand and no
table is built per call. A branch's J and its int m g (`_moment_integral`)
do not depend on alpha and beta, so `suites` takes each once for every pair.

kernel_integral(f', ...) is the left side of the kernel representation
int rho(x, t) f'(t) dt = tau(f); its residual is that integral minus
`functionals.tau`, which alone sums the weighted means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .quadrature import DEFAULT_CONFIG, QuadConfig, QuadratureError, _takes_end_rule, integrate
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
                     anchor: float, cfg: QuadConfig, breaks: Sequence[float] = (),
                     ends: Sequence[tuple[float, float]] = ()) -> float:
    """int_c^d g on a branch from `breaks` inside it, with `integrate`'s `ends`; a
    QuadratureError names the quantity and the branch, left if anchored at c."""
    try:
        return integrate(g, c, d, cfg, breaks, ends)[0]
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
    """Exact (int_a^b |rho(x, t)|^q dt)^(1/q) for q > 1: one normalised pass
    per branch (`_lq_side`), the Js combined by `_lq_norm`."""
    if q <= 1:
        raise ValueError("kernel_lq requires q > 1")
    sides = _sides(params)
    masses = [w.mass(c, d) for _, c, d, _ in sides]  # rejects a branch without mass first
    values = [_lq_side(w, anchor, params.x, mass, q, share / params.weight_sum, cfg)
              for (share, _, _, anchor), mass in zip(sides, masses)]
    return _lq_norm(params, [share for share, *_ in sides], values, q)


def _lq_norm(params: TauParams, shares: Sequence[float], values: Sequence[float],
             q: float) -> float:
    """||rho||_q from each branch's share of alpha + beta and its J, relative to
    S = sup |rho| so no share^q underflows: S (sum (share / max(alpha, beta))^q
    J)^(1/q), and where that sum reads 0, the bound S (b - a)^(1/q)."""
    top = max(params.alpha, params.beta)
    total = sum((share / top) ** q * value for share, value in zip(shares, values))
    return top / params.weight_sum * (total if total > 0 else params.b - params.a) ** (1.0 / q)


def _lq_side(w: Weight, anchor: float, x: float, mass: float, q: float, r: float,
             cfg: QuadConfig) -> float:
    """J = int |m(anchor, t) / mass|^q, which peaks at 1 at x, on the branch
    between anchor and x, to min(abs_tol, abs_tol / (2 r^q)), r (at least)
    its share of alpha + beta, so the r^q J of int |rho|^q sum within abs_tol.

    Next to x it falls like exp(-|t - x| / h), h = mass / (q w(x)): breaks go
    at x -+ 4^k h, k >= 0, inside the branch (none where w(x) = 0). At the
    anchor it is |t - anchor|^gamma H(t), gamma = q (1 + e), e the weight's
    exponent there (`Weight.exponents`); where gamma < 2.5 takes the end rule
    (`quadrature._takes_end_rule`) the anchor is an algebraic end, with a
    break halfway to x: the rule misses a kink of H just beyond x (t^0.5 at
    x = 1.2e-4 read 2e-8 off as 2.7e-9).
    """
    c, d, toward = (x, anchor, 1.0) if anchor > x else (anchor, x, -1.0)  # toward: into it
    e = dict(zip((w.a, w.b), w.exponents)).get(anchor)
    gamma = math.inf if e is None else q * (1.0 + e)
    ends = ((anchor, gamma),) if gamma < 2.5 and _takes_end_rule(gamma) else ()
    h = mass / (q * wx) if (wx := w.eval(x)) > 0 else math.inf
    breaks = {0.5 * (c + d)} if ends else set()
    while 0 < h < d - c:
        if c < (t := x + toward * h) < d:
            breaks.add(t)
        h *= 4.0
    m = w.moment_from(anchor)
    tol = cfg.abs_tol / (2.0 * r**q) if 2.0 * r**q > 1.0 else cfg.abs_tol
    return _branch_integral("kernel_lq", lambda t: abs(m(t) / mass) ** q, c, d, anchor,
                            replace(cfg, abs_tol=tol), sorted(breaks), ends)


def kernel_sup(params: TauParams, w: Weight) -> float:
    """sup |rho|; equals max(alpha, beta) / (alpha + beta), attained at t = x."""
    _branches(params, w)  # rejects a branch without mass
    return max(params.alpha, params.beta) / params.weight_sum


def kernel_integral(
    g: Callable[[float], float], params: TauParams, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """int_a^b rho(x, t) g(t) dt, one `_moment_integral` per branch; tau(f) for g = f'."""
    return sum(coef * _moment_integral(w, anchor, c, d, g, cfg)
               for coef, c, d, anchor in _branches(params, w))


def _moment_integral(w: Weight, anchor: float, c: float, d: float, g: Callable[[float], float],
                     cfg: QuadConfig) -> float:
    """int_c^d m(anchor, t) g(t) dt on the branch [c, d] anchored at anchor."""
    m = w.moment_from(anchor)
    return _branch_integral("kernel_integral", lambda t: m(t) * g(t), c, d, anchor, cfg)
