"""Weight functions on a finite interval and their oriented moments."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

from .quadrature import (
    DEFAULT_CONFIG,
    Cumulative,
    DegenerateIntervalError,
    QuadConfig,
    QuadratureError,
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
    if math.isinf(b - a):
        raise ValueError(f"weight domain requires a finite length b - a, got [{a:g}, {b:g}]")
    square = (b - a) * (b - a)  # about a branch's integral of t, such as moment_l1
    if square < sys.float_info.min:
        raise ValueError(f"weight domain [{a:g}, {b:g}] is too short: (b - a)^2 underflows")
    if math.isinf(square):
        raise ValueError(f"weight domain [{a:g}, {b:g}] is too long: (b - a)^2 overflows")


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
    branch, and incomplete Beta series for the power family); one
    quadrature at cfg for a weight given only as a function.
    `ends` are pairs (e, gamma): an end e of [a, b] where w is |t - e|^gamma
    times a function smooth there, gamma not a non-negative integer (the
    power family's singular or rough ends). `integrate_against` and
    `cumulative` hand them to `quadrature.integrate`, whose panel at such an
    end takes its algebraic end rule, so w is integrated as it is, with no
    change of variable. `table`, for a weight given only as a function, is
    the table t -> m(a, t) that `closed_moment` reads; None for the built-ins.
    `exponents` are w's exponents at a and at b, integers included (0 where w
    is positive there), None where not known; `kernel_lq` reads them.
    """

    name: str
    a: float
    b: float
    fn: Callable[[float], float]
    closed_moment: Callable[[float, float], float]
    moment_l1: Callable[[float, float, QuadConfig], float]
    ends: tuple[tuple[float, float], ...] = ()
    table: Optional[Cumulative] = field(default=None, repr=False)
    exponents: tuple[Optional[float], Optional[float]] = (None, None)

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

    def integrate_against(self, g, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
        """Oriented integral of g(t) w(t) over [c, d]: one `integrate` of
        g w with the weight's `ends`, and g's kinks (an `Fn1D`'s `kinks`)
        inside it as `breaks`. A QuadratureError names the integral and
        [c, d]."""
        if d < c:
            return -self.integrate_against(g, d, c, cfg)
        geval, fn = getattr(g, "fn", g), self.fn
        kinks = sorted({k for k in getattr(g, "kinks", ()) if c < k < d})
        try:
            return integrate(lambda t: geval(t) * fn(t), c, d, cfg, breaks=kinks, ends=self.ends)[0]
        except QuadratureError as exc:
            raise QuadratureError(f"integral of f*w on [{c:g}, {d:g}]: {exc}") from None

    def cumulative(self, f, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG) -> Cumulative:
        """The table t -> int_c^t f w for t in [c, d], built now.

        One quadrature.cumulative of f w with the weight's `ends`, so every
        query is expected within abs_tol and evaluates neither f nor w; a
        QuadratureError is `integrate`'s, which names [c, d]. Its `area()`
        is its integral over [c, d], read from its leaves (`Cumulative.area`).
        """
        feval, fn = getattr(f, "fn", f), self.fn
        if not c <= d:
            raise ValueError("cumulative requires c <= d")
        return cumulative(lambda t: feval(t) * fn(t), c, d, cfg, self.ends)


def _uniform(a: float, b: float) -> Weight:
    return Weight("uniform", a, b, lambda t: 1.0, lambda c, d: d - c,
                  lambda anchor, x, cfg: 0.5 * (x - anchor) ** 2, exponents=(0.0, 0.0))


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

    name = f"exponential(lam={lam:g})"
    return Weight(name, a, b, lambda t: math.exp(-lam * t), closed, moment_l1,
                  exponents=(0.0, 0.0))


_SERIES_TERMS = 60  # truncnorm on a short interval: 10^60 / 61! < 1e-24


def _hermite_series(w0: float, z: float, r: float, n: int) -> float:
    """sum_k w0 He_k(z) r^k / (k+n)!, summed until two terms in a row fall
    below 1e-17 of the sum (He_(k+1) = z He_k - k He_(k-1)).

    With w0 = w(c), z = (c - mu) / sigma and r = -h / sigma this is the
    Taylor series about c of the truncated normal's moments over [c, c+h],
    since w^(k)(c) = (-1/sigma)^k He_k(z) w(c): m(c, c+h) is h times the sum
    at n = 1, and int |c + h - s| w ds over the same stretch h^2 times the
    sum at n = 2. For |r| < 1/4 the terms fall like |z r|^k / (k+n)!, and
    |z r| < |z| / 4 < 10 unless w0 underflows to 0 (and with it every term).
    """
    prev, term, total = 0.0, w0 / math.factorial(n), 0.0
    for k in range(_SERIES_TERMS):
        total += term
        prev, term = term, (z * r * term - k * r * r * prev / (k + n)) / (k + n + 1)
        if abs(prev) + abs(term) <= 1e-17 * abs(total):
            break
    return total


def _truncnorm(a: float, b: float, mu: float, sigma: float) -> Weight:
    if sigma <= 0:
        raise ValueError("truncated normal requires sigma > 0")
    s2 = sigma * math.sqrt(2.0)
    amp = sigma * math.sqrt(math.pi / 2.0)

    def fn(t: float) -> float:
        return math.exp(-0.5 * ((t - mu) / sigma) ** 2)

    def closed(c: float, d: float) -> float:
        h = d - c
        if abs(h) < 0.25 * sigma:
            # the erfc difference below cancels on a short interval
            return h * _hermite_series(fn(c), (c - mu) / sigma, -h / sigma, 1)
        # erfc differences on the side of mu the interval leans to, so a
        # mass in a tail is not a difference of two erf values near +-1
        uc, ud = (c - mu) / s2, (d - mu) / s2
        if uc + ud > 0:
            return amp * (math.erfc(uc) - math.erfc(ud))
        return amp * (math.erfc(-ud) - math.erfc(-uc))

    def moment_l1(anchor: float, x: float, cfg: QuadConfig) -> float:
        h = x - anchor
        if abs(h) < 0.25 * sigma:
            # the form below cancels as (sigma / h)^2 on a short branch
            return h * h * _hermite_series(fn(anchor), (anchor - mu) / sigma, -h / sigma, 2)
        # int (x - s) w ds = (x - mu) m - int (s - mu) w ds, and
        # (s - mu) w(s) is the derivative of -sigma^2 w(s)
        return (x - mu) * closed(anchor, x) - sigma * sigma * (fn(anchor) - fn(x))

    return Weight(f"truncnorm(mu={mu:g},sigma={sigma:g})", a, b, fn, closed, moment_l1,
                  exponents=(0.0, 0.0))


# The incomplete Beta integrals int_0^z (z - u)^shift u^(x-1) (1-u)^(y-1) du
# (shift 0: B_z(x, y); shift 1: the L1 branch) are read as series in z up to
# _Z_MAX only: past it a moment is taken from the other end of the domain.
_Z_MAX = 0.85
_LOG_EPS = math.log(1e-17)  # Horner stops at the degree n where z^n < 1e-17
_DEGREES = int(_LOG_EPS / math.log(_Z_MAX)) + 1  # that n at z = _Z_MAX (241)
_FAR_MAX = 4.0  # far exponent y up to which the alternating series is summed


@lru_cache(maxsize=256)
def _coefficients(x: float, y: float, shift: int) -> tuple[float, ...]:
    """(1-y)_k / (k! (x+k)), over (x+k+1) too for shift 1, highest k first:
    the power series of (1-u)^(y-1) integrated term by term (DLMF 8.17(v)).
    It ends after y terms for an integer y."""
    coefs, rising = [], 1.0
    for k in range(_DEGREES):
        if rising == 0.0:
            break
        coefs.append(rising / (x + k) / (x + k + 1) if shift else rising / (x + k))
        rising *= (k + 1 - y) / (k + 1)
    return tuple(reversed(coefs))


def _beta_series(x: float, y: float, z: float, shift: int) -> float:
    """int_0^z (z - u)^shift u^(x-1) (1-u)^(y-1) du for 0 <= z <= _Z_MAX.

    z^(x+shift) times the series in z, each term positive where y <= 1 and
    only the first where 1 < y <= 2. For y above _FAR_MAX, where the
    alternating terms would cancel to a fraction 3^-(y-1) of their size,
    the all-positive form z^x (1-z)^y sum (x+y)_k z^k / (x)_(k+1) (DLMF
    8.17.8) is summed instead; for shift 1 its terms are the difference of
    the forms of z B_z(x, y) and B_z(x+1, y).
    """
    if z == 0.0:
        return 0.0
    if y > _FAR_MAX:
        total, term, k = 0.0, 1.0 / x, 0
        while True:
            part = term * (x + y + k * y) / ((x + y) * (x + k + 1)) if shift else term
            total += part
            ratio = z * (x + y + k) / (x + k + 1)  # falls with k, towards z
            if ratio < 1.0 and part <= 1e-17 * total:
                # z <= _Z_MAX, so 1 - z is within half an ulp
                return z ** (x + shift) * (1.0 - z) ** y * total
            term *= ratio
            k += 1
    coefs = _coefficients(x, y, shift)
    n = int(_LOG_EPS / math.log(z)) + 1
    total = 0.0
    for c in coefs[-n:]:
        total = total * z + c
    return z ** (x + shift) * total


def _power(a: float, b: float, p: float, q: float) -> Weight:
    """w(t) = (t-a)^p (b-t)^q with finite p, q > -1 (integrable endpoint behavior)."""
    if p <= -1 or q <= -1:
        raise ValueError("power weight requires p > -1 and q > -1 for integrability")
    _check_domain(a, b)  # before B is read at a point of [a, b]
    span = b - a
    x, y = p + 1, q + 1
    scale = span ** (p + q + 1)
    l1coef = span ** (p + q + 2)

    def fn(t: float) -> float:
        u, v = t - a, b - t
        left = 1.0 if p == 0 else (math.inf if (u == 0 and p < 0) else u ** p)
        right = 1.0 if q == 0 else (math.inf if (v == 0 and q < 0) else v ** q)
        return left * right

    # A value at t is read as the series from the end on t's side of split
    # (a share of span): the mean of the Beta(x, y) distribution, clamped
    # to the series' reach. Past split it is the complete B less the series
    # from the other end, over that end's own distance (never 1 - z), and
    # the L1 branch there is B (z - mean) plus the mirrored branch, two
    # terms of one sign unless the mean was clamped. B is the two series
    # met at split, so no Gamma function overflows (p = 200).
    mean = x / (x + y)
    split = min(max(mean, 1.0 - _Z_MAX), _Z_MAX)
    t_split = a + split * span
    bfull = _beta_series(x, y, (t_split - a) / span, 0) + _beta_series(y, x, (b - t_split) / span, 0)

    def from_a(t: float) -> float:
        # int_a^t w / scale
        z = (t - a) / span
        if z <= split:
            return _beta_series(x, y, z, 0)
        return bfull - _beta_series(y, x, (b - t) / span, 0)

    def from_b(t: float) -> float:
        # int_t^b w / scale
        z = (t - a) / span
        if z > split:
            return _beta_series(y, x, (b - t) / span, 0)
        return bfull - _beta_series(x, y, z, 0)

    def closed(c: float, d: float) -> float:
        # from the end the interval leans to, so a short interval near an
        # end is not a difference of two values near B
        if c + d > 2.0 * t_split:
            return scale * (from_b(c) - from_b(d))
        return scale * (from_a(d) - from_a(c))

    def moment_l1(anchor: float, t: float, cfg: QuadConfig) -> float:
        # int_0^z (z - u) u^(x-1) (1-u)^(y-1) du, z the branch length over
        # span, mirrored (x and y swapped) for the branch anchored at b
        za, zb = (t - a) / span, (b - t) / span
        if anchor == a:
            if za <= split:
                return l1coef * _beta_series(x, y, za, 1)
            return l1coef * (bfull * (za - mean) + _beta_series(y, x, zb, 1))
        if za > split:
            return l1coef * _beta_series(y, x, zb, 1)
        return l1coef * (bfull * (zb - y / (x + y)) + _beta_series(x, y, za, 1))

    ends = tuple((e, g) for e, g in ((a, p), (b, q)) if g < 0 or g != int(g))
    return Weight(f"power(p={p:g},q={q:g})", a, b, fn, closed, moment_l1, ends,
                  exponents=(p, q))


def tabulated_weight(
    name: str, fn: Callable[[float], float], a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> Weight:
    """The weight fn on [a, b], its moments read from one cumulative table
    built now to abs_tol / 2, so a moment, the difference of two reads, is
    expected within abs_tol (by the table's estimate, not a bound).
    `moment_l1` has no closed form here: one `integrate_against` at cfg.
    """
    _check_domain(a, b)
    # the smallest positive tolerance would halve to 0
    table = cumulative(fn, a, b, replace(cfg, abs_tol=cfg.abs_tol / 2 or cfg.abs_tol))

    def moment_l1(anchor: float, x: float, cfg: QuadConfig) -> float:
        # the Fubini form int |x - s| w(s) ds, signed per side so that no
        # abs() call runs per node
        if anchor < x:
            return w.integrate_against(lambda s: x - s, anchor, x, cfg)
        return w.integrate_against(lambda s: s - x, x, anchor, cfg)

    w = Weight(name, a, b, fn, lambda c, d: table(d) - table(c), moment_l1, table=table,
               exponents=(_positive_end(fn, a), _positive_end(fn, b)))
    return w


def _positive_end(fn: Callable[[float], float], t: float) -> Optional[float]:
    """0, the exponent of fn at t, where fn(t) is positive and finite; else None."""
    try:
        return 0.0 if 0 < fn(t) < math.inf else None
    except (ArithmeticError, ValueError):
        return None


# the power weights with a name of their own, and their exponents (p, q)
_POWER_SHORTHANDS = {"increasing": (1.0, 0.0), "decreasing": (0.0, 1.0), "arcsine": (-0.5, -0.5)}
# each built-in weight name and the parameters it takes
_PARAMETERS = {"uniform": (), "increasing": (), "decreasing": (), "arcsine": (),
               "power": ("p", "q"), "exponential": ("lam",), "exp": ("lam",),
               "truncnorm": ("mu", "sigma")}


def builtin_weight(spec: str, a: float, b: float, **params: float) -> Weight:
    """Construct a built-in weight by name.

    Supported: uniform; power (p, q exponents); exponential (lam);
    truncnorm (mu, sigma); plus the shorthands increasing = power(1, 0),
    decreasing = power(0, 1), arcsine = power(-1/2, -1/2). An unknown name
    or parameter raises WeightSpecError, a NaN or infinite one ValueError
    naming it.
    """
    name = spec.strip().lower()
    if name not in _PARAMETERS:
        raise WeightSpecError(f"unknown weight name: {spec!r}")
    for key in params:
        if key not in _PARAMETERS[name]:
            raise WeightSpecError(f"unknown parameter {key!r} for weight {name!r}")
    kind = "exponent" if name == "power" else "parameter"
    for key, value in params.items():
        if not math.isfinite(value):  # NaN and inf pass every range check
            raise ValueError(f"{name} weight requires a finite {kind}, got {key}={value:g}")
    if name == "uniform":
        return _uniform(a, b)
    if name in _POWER_SHORTHANDS:
        return replace(_power(a, b, *_POWER_SHORTHANDS[name]), name=name)
    if name == "power":
        return _power(a, b, params.get("p", 1.0), params.get("q", 0.0))
    if name == "truncnorm":
        mu = params.get("mu", 0.5 * (a + b))
        return _truncnorm(a, b, mu, params.get("sigma", 0.25 * (b - a)))
    return _exponential(a, b, params.get("lam", 1.0))  # exponential, exp
