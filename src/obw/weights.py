"""Weight functions on a finite interval and their oriented moments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

from scipy.special import beta as beta_fn
from scipy.special import betainc

from .quadrature import (
    DEFAULT_CONFIG,
    DegenerateIntervalError,
    QuadConfig,
    cumulative,
    integrate,
)

__all__ = ["Weight", "DomainError", "WeightSpecError", "builtin_weight", "tabulated_weight"]


class DomainError(ValueError):
    """Evaluation point outside the weight's domain."""


class WeightSpecError(ValueError):
    """Unknown built-in weight name or parameter."""


def _check_domain(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"weight domain requires finite a < b, got [{a:g}, {b:g}]")


@dataclass(frozen=True)
class Weight:
    """Nonnegative integrable density on [a, b].

    `closed_moment(c, d)` returns the oriented integral of w over [c, d]:
    in closed form for the built-in weights, from one table for a weight
    given only as a function (`tabulated_weight`); it evaluates neither w
    nor a quadrature. `moment_l1(anchor, x, cfg)`, for anchor a or b,
    returns the integral of |m(anchor, t)| dt between anchor and x, which
    by Fubini is int |x - s| w(s) ds over the same stretch (the kernel's L1
    branch): in closed form for the built-in weights, each written about
    its anchor so little cancels (a series on a short truncated-normal
    branch); one quadrature at cfg for a weight given only as a function.
    `substitution(g, c, d)`, when present,
    describes int_c^d g(t) w(t) dt as a list of pieces, each a change of
    variable that regularizes w at an end where it is singular or has an
    unbounded slope; otherwise the product g w is integrated as it is.
    A piece is a tuple
    (hi, s_lo, s_hi, h, s_of, reverse) for the stretch [lo, hi] of t that
    starts where the previous piece ends (at c for the first): there
    int g w dt = int_{s_lo}^{s_hi} h(s) ds, where s = s_of(t) maps [lo, hi]
    onto [s_lo, s_hi], increasing, or decreasing when `reverse`; s_of None
    stands for s = t. (Plain tuples: they are built on every call.)
    """

    name: str
    a: float
    b: float
    fn: Callable[[float], float]
    closed_moment: Callable[[float, float], float]
    moment_l1: Callable[[float, float, QuadConfig], float]
    substitution: Optional[Callable[..., list[tuple]]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _check_domain(self.a, self.b)

    def __call__(self, t: float) -> float:
        return self.eval(t)

    def eval(self, t: float) -> float:
        if t < self.a or t > self.b:
            raise DomainError(f"t={t} outside weight domain [{self.a}, {self.b}]")
        return self.fn(t)

    def moment(self, c: float, d: float) -> float:
        """Oriented moment m(c, d) = int_c^d w(t) dt; negative when d < c."""
        if c == d:
            return 0.0
        return self.closed_moment(c, d)

    @cached_property
    def total(self) -> float:
        """m(a, b), computed once per weight."""
        return self.moment(self.a, self.b)

    def mass(self, c: float, d: float) -> float:
        """m(c, d) of an interval that needs weight, such as a branch of the
        kernel or the range of a weighted mean. Raises DegenerateIntervalError
        when it is numerically zero against the total, or the total is zero.
        """
        m = self.moment(c, d)
        if not m > 1e-13 * self.total:
            raise DegenerateIntervalError(f"zero weight mass on [{c}, {d}]")
        return m

    def _pieces(self, g, c: float, d: float) -> list[tuple]:
        """The substitution's pieces of int_c^d g w, or the one plain piece."""
        if self.substitution is not None:
            return self.substitution(g, c, d)
        fn = self.fn
        return [(d, c, d, lambda t: g(t) * fn(t), None, False)]

    def integrate_against(self, g, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
        """Oriented integral of g(t) w(t) over [c, d]."""
        geval = getattr(g, "fn", g)
        if d < c:
            return -self.integrate_against(geval, d, c, cfg)
        if c == d:
            return 0.0
        total = 0.0
        for _, s_lo, s_hi, h, _, _ in self._pieces(geval, c, d):
            total += integrate(h, s_lo, s_hi, cfg)[0]
        return total

    def cumulative(
        self, g, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG
    ) -> Callable[[float], float]:
        """t -> int_c^t g w for t in [c, d], from tables built now.

        One quadrature.cumulative table per piece of the substitution, each
        to its share of cfg.abs_tol, so every query is within abs_tol; a
        query evaluates neither g nor w.
        """
        geval = getattr(g, "fn", g)
        if not c <= d:
            raise ValueError("cumulative requires c <= d")
        pieces = self._pieces(geval, c, d)
        share = replace(cfg, abs_tol=cfg.abs_tol / max(len(pieces), 1))
        parts = []
        before = 0.0
        for hi, s_lo, s_hi, h, s_of, reverse in pieces:
            table = cumulative(h, s_lo, s_hi, share)
            parts.append((hi, s_of, reverse, table, before))
            before += table.total

        def integral(t: float) -> float:
            if not c <= t <= d:
                raise ValueError(f"t={t} outside [{c}, {d}]")
            for hi, s_of, reverse, table, base in parts:
                if t <= hi:
                    if s_of is None:
                        return base + table(t)
                    s = s_of(t)
                    return base + (table.total - table(s) if reverse else table(s))
            return 0.0  # no pieces: c == d

        return integral


def _uniform(a: float, b: float) -> Weight:
    return Weight(
        name="uniform",
        a=a,
        b=b,
        fn=lambda t: 1.0,
        closed_moment=lambda c, d: d - c,
        moment_l1=lambda anchor, x, cfg: 0.5 * (x - anchor) ** 2,
    )


def _phi(u: float) -> float:
    """e^(-u) - 1 + u; its Taylor series where the closed form cancels."""
    if abs(u) >= 0.1:
        return math.expm1(-u) + u
    total, term = 0.0, 0.5 * u * u
    for k in range(3, 13):
        total += term
        term *= -u / k
    return total


def _exponential(a: float, b: float, lam: float) -> Weight:
    if lam == 0.0:
        return _uniform(a, b)

    def closed(c: float, d: float) -> float:
        # about c, so a short interval is not a difference of near values
        return -math.exp(-lam * c) * math.expm1(-lam * (d - c)) / lam

    def moment_l1(anchor: float, x: float, cfg: QuadConfig) -> float:
        # int (x - s) e^(-lam s) ds from anchor to x, about the anchor
        return math.exp(-lam * anchor) * _phi(lam * (x - anchor)) / (lam * lam)

    return Weight(
        name=f"exponential(lam={lam:g})",
        a=a,
        b=b,
        fn=lambda t: math.exp(-lam * t),
        closed_moment=closed,
        moment_l1=moment_l1,
    )


_SERIES_TERMS = 60  # truncnorm moment_l1 on a short branch: 10^60 / 62! < 1e-24


def _truncnorm(a: float, b: float, mu: float, sigma: float) -> Weight:
    if sigma <= 0:
        raise ValueError("truncated normal requires sigma > 0")
    s2 = sigma * math.sqrt(2.0)
    amp = sigma * math.sqrt(math.pi / 2.0)

    def fn(t: float) -> float:
        return math.exp(-0.5 * ((t - mu) / sigma) ** 2)

    def closed(c: float, d: float) -> float:
        # erfc differences on the side of mu the interval leans to, so a
        # mass in a tail is not a difference of two erf values near +-1
        uc, ud = (c - mu) / s2, (d - mu) / s2
        if uc + ud > 0:
            return amp * (math.erfc(uc) - math.erfc(ud))
        return amp * (math.erfc(-ud) - math.erfc(-uc))

    def moment_l1(anchor: float, x: float, cfg: QuadConfig) -> float:
        h = x - anchor
        if abs(h) < 0.25 * sigma:
            # the form below cancels as (sigma / h)^2 on a short branch: sum
            # the Taylor series about the anchor instead, int |x - s| w ds =
            # sum_k w^(k)(anchor) h^(k+2) / (k+2)!, where w^(k) = (-1/sigma)^k
            # He_k(z) w and He_(k+1) = z He_k - k He_(k-1). term is
            # w(anchor) He_k(z) r^k / (k+2)!, r = -h / sigma; the terms fall
            # like |z r|^k / (k+2)!, and |z r| < |z| / 4 < 10 unless w(anchor)
            # underflows to 0 (and with it every term)
            z, r = (anchor - mu) / sigma, -h / sigma
            prev, term, total = 0.0, 0.5 * fn(anchor), 0.0
            for k in range(_SERIES_TERMS):
                total += term
                prev, term = term, (z * r * term - k * r * r * prev / (k + 2)) / (k + 3)
            return h * h * total
        # int (x - s) w ds = (x - mu) m - int (s - mu) w ds, and
        # (s - mu) w(s) is the derivative of -sigma^2 w(s)
        return (x - mu) * closed(anchor, x) - sigma * sigma * (fn(anchor) - fn(x))

    return Weight(
        name=f"truncnorm(mu={mu:g},sigma={sigma:g})",
        a=a,
        b=b,
        fn=fn,
        closed_moment=closed,
        moment_l1=moment_l1,
    )


def _rough(e: float) -> bool:
    """Whether (t-a)^e, -1 < e, is singular or has an unbounded slope at a."""
    return e < 0 or 0 < e < 1


def _power(a: float, b: float, p: float, q: float) -> Weight:
    """w(t) = (t-a)^p (b-t)^q with p, q > -1 (integrable endpoint behavior)."""
    if p <= -1 or q <= -1:
        raise ValueError("power weight requires p > -1 and q > -1 for integrability")
    span = b - a
    bfull = beta_fn(p + 1, q + 1)
    bcoef = bfull * span ** (p + q + 1)
    l1coef = span ** (p + q + 2)
    bleft, bright = beta_fn(p + 2, q + 1), beta_fn(q + 2, p + 1)

    def fn(t: float) -> float:
        u, v = t - a, b - t
        left = 1.0 if p == 0 else (math.inf if (u == 0 and p < 0) else u ** p)
        right = 1.0 if q == 0 else (math.inf if (v == 0 and q < 0) else v ** q)
        return left * right

    def closed(c: float, d: float) -> float:
        # read from the nearer end, so a mass that ends at b is not 1 - I_z
        if c + d > a + b:
            yc, yd = (b - c) / span, (b - d) / span
            return bcoef * (betainc(q + 1, p + 1, yc) - betainc(q + 1, p + 1, yd))
        zc, zd = (c - a) / span, (d - a) / span
        return bcoef * (betainc(p + 1, q + 1, zd) - betainc(p + 1, q + 1, zc))

    def moment_l1(anchor: float, x: float, cfg: QuadConfig) -> float:
        # int_0^z (z - u) u^p (1-u)^q du, z the branch length over span,
        # mirrored (p and q swapped) for the branch anchored at b
        if anchor == a:
            z, near, far, bnext = (x - a) / span, p + 1, q + 1, bleft
        else:
            z, near, far, bnext = (b - x) / span, q + 1, p + 1, bright
        return l1coef * (z * bfull * betainc(near, far, z) - bnext * betainc(near + 1, far, z))

    mid = 0.5 * (a + b)
    ep, eq = 1.0 + p, 1.0 + q

    def left_s(t: float) -> float:
        return (t - a) ** ep

    def right_s(t: float) -> float:
        return (b - t) ** eq

    def substitution(g, c: float, d: float) -> list[tuple]:
        # Split at the domain midpoint; substitute near an endpoint where w
        # is singular or has an unbounded derivative, so the adaptive engine
        # only ever sees bounded integrands with bounded slope there.
        pieces = []
        lo, hi = c, min(d, mid)
        if lo < hi:
            if _rough(p):
                def left(s: float) -> float:
                    # s = (t-a)^(1+p) turns (t-a)^p dt into ds/(1+p)
                    t = a + s ** (1.0 / ep)
                    return g(t) * (b - t) ** q / ep

                pieces.append((hi, (lo - a) ** ep, (hi - a) ** ep, left, left_s, False))
            else:
                pieces.append((hi, lo, hi, lambda t: g(t) * fn(t), None, False))
        lo, hi = max(c, mid), d
        if lo < hi:
            if _rough(q):
                def right(s: float) -> float:
                    # s = (b-t)^(1+q), decreasing in t
                    t = b - s ** (1.0 / eq)
                    return g(t) * (t - a) ** p / eq

                pieces.append((hi, (b - hi) ** eq, (b - lo) ** eq, right, right_s, True))
            else:
                pieces.append((hi, lo, hi, lambda t: g(t) * fn(t), None, False))
        return pieces

    return Weight(
        name=f"power(p={p:g},q={q:g})",
        a=a,
        b=b,
        fn=fn,
        closed_moment=closed,
        moment_l1=moment_l1,
        substitution=substitution if (_rough(p) or _rough(q)) else None,
    )


def tabulated_weight(
    name: str, fn: Callable[[float], float], a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> Weight:
    """The weight fn on [a, b], its moments read from one cumulative table
    built now. The table is within abs_tol / 2 at every point, so a moment,
    the difference of two reads, is within abs_tol. `moment_l1` has no
    closed form here: it is one `integrate_against` at the caller's cfg.
    """
    _check_domain(a, b)
    table = cumulative(fn, a, b, replace(cfg, abs_tol=cfg.abs_tol / 2))

    def moment_l1(anchor: float, x: float, cfg: QuadConfig) -> float:
        # the Fubini form int |x - s| w(s) ds, signed per side so that no
        # abs() call runs per node
        if anchor < x:
            return w.integrate_against(lambda s: x - s, anchor, x, cfg)
        return w.integrate_against(lambda s: s - x, x, anchor, cfg)

    w = Weight(
        name=name,
        a=a,
        b=b,
        fn=fn,
        closed_moment=lambda c, d: table(d) - table(c),
        moment_l1=moment_l1,
    )
    return w


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
