"""Weight functions on a finite interval and their oriented moments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from scipy.special import beta as beta_fn
from scipy.special import betainc

from .quadrature import DEFAULT_CONFIG, QuadConfig, integrate

__all__ = ["Weight", "DomainError", "WeightSpecError", "builtin_weight"]


class DomainError(ValueError):
    """Evaluation point outside the weight's domain."""


class WeightSpecError(ValueError):
    """Unknown built-in weight name or parameter."""


@dataclass(frozen=True)
class Weight:
    """Nonnegative integrable density on [a, b].

    `closed_moment(c, d)` when present returns the oriented integral of w
    over [c, d] in closed form. `integrator`, when present, integrates
    g(t) w(t) over a subinterval with any endpoint singularity of w
    regularized by substitution; otherwise plain adaptive quadrature of
    the product is used.
    """

    name: str
    a: float
    b: float
    fn: Callable[[float], float]
    closed_moment: Optional[Callable[[float, float], float]] = None
    integrator: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("weight domain requires a < b")

    def __call__(self, t: float) -> float:
        return self.eval(t)

    def eval(self, t: float) -> float:
        if t < self.a or t > self.b:
            raise DomainError(f"t={t} outside weight domain [{self.a}, {self.b}]")
        return self.fn(t)

    def moment(self, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
        """Oriented moment m(c, d) = int_c^d w(t) dt; negative when d < c."""
        if c == d:
            return 0.0
        if self.closed_moment is not None:
            return self.closed_moment(c, d)
        return self.integrate_against(lambda t: 1.0, c, d, cfg)

    def integrate_against(self, g, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
        """Oriented integral of g(t) w(t) over [c, d]."""
        geval = getattr(g, "fn", g)
        if d < c:
            return -self.integrate_against(geval, d, c, cfg)
        if c == d:
            return 0.0
        if self.integrator is not None:
            return self.integrator(geval, c, d, cfg)
        return integrate(lambda t: geval(t) * self.fn(t), c, d, cfg)[0]


def _uniform(a: float, b: float) -> Weight:
    return Weight(
        name="uniform",
        a=a,
        b=b,
        fn=lambda t: 1.0,
        closed_moment=lambda c, d: d - c,
    )


def _exponential(a: float, b: float, lam: float) -> Weight:
    if lam == 0.0:
        return _uniform(a, b)

    def closed(c: float, d: float) -> float:
        return (math.exp(-lam * c) - math.exp(-lam * d)) / lam

    return Weight(
        name=f"exponential(lam={lam:g})",
        a=a,
        b=b,
        fn=lambda t: math.exp(-lam * t),
        closed_moment=closed,
    )


def _truncnorm(a: float, b: float, mu: float, sigma: float) -> Weight:
    if sigma <= 0:
        raise ValueError("truncated normal requires sigma > 0")
    s2 = sigma * math.sqrt(2.0)
    amp = sigma * math.sqrt(math.pi / 2.0)

    def closed(c: float, d: float) -> float:
        return amp * (math.erf((d - mu) / s2) - math.erf((c - mu) / s2))

    return Weight(
        name=f"truncnorm(mu={mu:g},sigma={sigma:g})",
        a=a,
        b=b,
        fn=lambda t: math.exp(-0.5 * ((t - mu) / sigma) ** 2),
        closed_moment=closed,
    )


def _power(a: float, b: float, p: float, q: float) -> Weight:
    """w(t) = (t-a)^p (b-t)^q with p, q > -1 (integrable endpoint behavior)."""
    if p <= -1 or q <= -1:
        raise ValueError("power weight requires p > -1 and q > -1 for integrability")
    span = b - a
    bcoef = beta_fn(p + 1, q + 1) * span ** (p + q + 1)

    def fn(t: float) -> float:
        u, v = t - a, b - t
        left = 1.0 if p == 0 else (math.inf if (u == 0 and p < 0) else u ** p)
        right = 1.0 if q == 0 else (math.inf if (v == 0 and q < 0) else v ** q)
        return left * right

    def closed(c: float, d: float) -> float:
        zc, zd = (c - a) / span, (d - a) / span
        return bcoef * (betainc(p + 1, q + 1, zd) - betainc(p + 1, q + 1, zc))

    def integrator(g, c: float, d: float, cfg: QuadConfig) -> float:
        # Split at the domain midpoint; substitute near a singular endpoint
        # so the adaptive engine only ever sees bounded integrands.
        mid = 0.5 * (a + b)
        total = 0.0
        lo, hi = c, min(d, mid)
        if lo < hi:
            if p < 0:
                # s = (t-a)^(1+p) turns (t-a)^p dt into ds/(1+p)
                e = 1.0 + p

                def left_sub(s: float) -> float:
                    t = a + s ** (1.0 / e)
                    return g(t) * (b - t) ** q / e

                total += integrate(left_sub, (lo - a) ** e, (hi - a) ** e, cfg)[0]
            else:
                total += integrate(lambda t: g(t) * fn(t), lo, hi, cfg)[0]
        lo, hi = max(c, mid), d
        if lo < hi:
            if q < 0:
                e = 1.0 + q

                def right_sub(s: float) -> float:
                    t = b - s ** (1.0 / e)
                    return g(t) * (t - a) ** p / e

                total += integrate(right_sub, (b - hi) ** e, (b - lo) ** e, cfg)[0]
            else:
                total += integrate(lambda t: g(t) * fn(t), lo, hi, cfg)[0]
        return total

    return Weight(
        name=f"power(p={p:g},q={q:g})",
        a=a,
        b=b,
        fn=fn,
        closed_moment=closed,
        integrator=integrator if (p < 0 or q < 0) else None,
    )


def builtin_weight(spec: str, a: float, b: float, **params: float) -> Weight:
    """Construct a built-in weight by name.

    Supported: uniform; power (p, q exponents); exponential (lam);
    truncnorm (mu, sigma); plus the shorthands increasing = power(1, 0),
    decreasing = power(0, 1), arcsine = power(-1/2, -1/2). An unknown name
    or parameter raises WeightSpecError.
    """
    name = spec.strip().lower()
    if name == "uniform":
        w = _uniform(a, b)
    elif name == "increasing":
        w = replace(_power(a, b, 1.0, 0.0), name="increasing")
    elif name == "decreasing":
        w = replace(_power(a, b, 0.0, 1.0), name="decreasing")
    elif name == "arcsine":
        w = replace(_power(a, b, -0.5, -0.5), name="arcsine")
    elif name == "power":
        w = _power(a, b, params.pop("p", 1.0), params.pop("q", 0.0))
    elif name in ("exponential", "exp"):
        w = _exponential(a, b, params.pop("lam", 1.0))
    elif name == "truncnorm":
        mu = params.pop("mu", 0.5 * (a + b))
        sigma = params.pop("sigma", 0.25 * (b - a))
        w = _truncnorm(a, b, mu, sigma)
    else:
        raise WeightSpecError(f"unknown weight name: {spec!r}")
    if params:
        key = next(iter(params))
        raise WeightSpecError(f"unknown parameter {key!r} for weight {name!r}")
    return w
