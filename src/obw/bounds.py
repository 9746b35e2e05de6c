"""Right-hand-side bounds: printed closed forms, exact kernel-norm
companions, legacy unweighted results, corollaries, and the sharpness /
audit sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .functionals import tau
from .kernel import TauParams, _sides, kernel_l1, kernel_lq, kernel_sup
from .norms import Triple, conjugate, norm_triple
from .quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig, derivative_callable
from .weights import Weight

__all__ = [
    "BoundSet",
    "bounds_paper",
    "kernel_norms",
    "bounds_exact",
    "bound_set",
    "bounds_cerone",
    "bounds_dragomir",
    "corollary_bounds",
    "sign_kernel_fn",
    "sharpness_search",
    "SharpnessRow",
    "audit_paper_vs_exact",
    "AuditRow",
]


@dataclass(frozen=True)
class BoundSet:
    """Printed-form and exact kernel-norm bounds for one configuration."""

    paper: Triple
    exact: Triple
    deviation: float
    norms: Triple


def _paper_factors(params: TauParams, w: Weight, q: float) -> Triple:
    """Bracket factors of the printed closed forms; the sup factor does not
    depend on q."""
    s = params.weight_sum
    wx = w.eval(params.x)
    inf_term = p_term = 0.0
    for coef, c, d, _ in _sides(params):
        # a Python float: a closed moment may be a numpy scalar, whose
        # overflow would print a RuntimeWarning
        mass = float(w.moment(c, d))
        inf_term += coef * (d - c) ** 2 / mass
        p_term += coef**q * (d - c) ** 2 / mass
    return Triple(
        inf_term * wx / (2.0 * s),
        (p_term * wx) ** (1.0 / q) / ((q + 1.0) ** (1.0 / q) * s),
        0.5 * (1.0 + abs(params.alpha - params.beta) / s),
    )


def bounds_paper(params: TauParams, w: Weight, norms: Triple, p: float) -> Triple:
    """The three printed branches of the weighted deviation bound.

    The inf and L_p brackets carry the w(x) factor of the printed form,
    which matches the exact kernel norms only for constant weights; the
    audit sweep quantifies the gap.
    """
    return _paper_factors(params, w, conjugate(p)) * norms


def kernel_norms(
    params: TauParams, w: Weight, p: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> Triple:
    """(||rho||_1, ||rho||_q, ||rho||_inf) with q = p / (p - 1): the kernel
    norms that pair with the derivative norms (sup, L_p, L1) at p."""
    return Triple(
        kernel_l1(params, w, cfg), kernel_lq(params, w, conjugate(p), cfg), kernel_sup(params, w)
    )


def bounds_exact(kernel: Triple, norms: Triple) -> Triple:
    """Sound Hoelder companions: kernel norms times derivative norms."""
    return kernel * norms


def bound_set(
    f: Fn1D,
    w: Weight,
    params: TauParams,
    p: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> BoundSet:
    """Measured deviation plus both bound families for one configuration."""
    fprime = derivative_callable(f)
    norms = norm_triple(fprime, p, params.a, params.b, cfg)
    return BoundSet(
        paper=bounds_paper(params, w, norms, p),
        exact=bounds_exact(kernel_norms(params, w, p, cfg), norms),
        deviation=tau(f, w, params, cfg),
        norms=norms,
    )


def bounds_cerone(
    x: float,
    alpha: float,
    beta: float,
    a: float,
    b: float,
    norms: Triple,
    p: float,
) -> Triple:
    """Unweighted two-coefficient bounds (uniform-weight specialization)."""
    q = conjugate(p)
    s = alpha + beta
    factors = Triple(
        (alpha * (x - a) + beta * (b - x)) / (2.0 * s),
        (alpha**q * (x - a) + beta**q * (b - x)) ** (1.0 / q) / (s * (q + 1.0) ** (1.0 / q)),
        0.5 * (1.0 + abs(alpha - beta) / s),
    )
    return factors * norms


def bounds_dragomir(x: float, a: float, b: float, norms: Triple, p: float) -> Triple:
    """Classic single-point bounds on |f(x) - mean| over [a, b]."""
    q = conjugate(p)
    span = b - a
    mid = 0.5 * (a + b)
    factors = Triple(
        ((0.5 * span) ** 2 + (x - mid) ** 2) / span,
        (((x - a) ** (q + 1) + (b - x) ** (q + 1)) / (q + 1.0)) ** (1.0 / q) / span,
        (0.5 * span + abs(x - mid)) / span,
    )
    return factors * norms


def corollary_bounds(
    mode: str,
    f: Fn1D,
    w: Weight,
    p: float,
    a: float,
    b: float,
    x: float | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> tuple[float, Triple]:
    """Specialized bound statements, each built by direct substitution.

    equal_coeffs fixes alpha = beta; midpoint fixes x at the interval
    midpoint; midpoint_equal fixes both. Returns (measured left-hand
    side, bound triple).
    """
    mid = 0.5 * (a + b)
    if mode == "equal_coeffs":
        if x is None:
            raise ValueError("equal_coeffs mode requires x")
        params = TauParams(a=a, b=b, x=x, alpha=1.0, beta=1.0)
    elif mode == "midpoint":
        params = TauParams(a=a, b=b, x=mid, alpha=alpha, beta=beta)
    elif mode == "midpoint_equal":
        params = TauParams(a=a, b=b, x=mid, alpha=1.0, beta=1.0)
    else:
        raise ValueError(f"unknown corollary mode: {mode!r}")
    fprime = derivative_callable(f)
    norms = norm_triple(fprime, p, a, b, cfg)
    lhs = abs(tau(f, w, params, cfg))
    return lhs, bounds_paper(params, w, norms, p)


def sign_kernel_fn(params: TauParams) -> Fn1D:
    """Piecewise-linear f whose derivative is the sign of the kernel.

    f' = +1 left of x and -1 right of it, so the integral of rho f'
    equals the kernel L1 norm and the sup-norm bound is attained.
    """
    x = params.x

    def fn(t: float) -> float:
        return t if t <= x else 2.0 * x - t

    def deriv(t: float) -> float:
        return 1.0 if t <= x else -1.0

    return Fn1D(fn=fn, derivative=deriv, name="sign-kernel")


@dataclass(frozen=True)
class SharpnessRow:
    """One row of `obw sharpness`; the field names are its CSV header."""

    x: float
    alpha: float
    beta: float
    ratio: float


def sharpness_search(
    w: Weight,
    x_grid: Sequence[float],
    coeff_grid: Sequence[tuple[float, float]],
    kind: str = "exact_inf",
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> tuple[SharpnessRow, list[SharpnessRow]]:
    """Empirical sharpness sweep; returns (best row, all rows).

    exact_inf uses the sign-kernel construction, which attains the
    Hoelder equality for the sup-norm branch; exact_one uses a narrow
    hat derivative concentrated where |rho| peaks and only approaches 1.
    Ratios within quadrature noise (1e-12) count as ties, which resolve
    toward smaller x.
    """
    if kind not in ("exact_inf", "exact_one"):
        raise ValueError(f"unknown sharpness kind: {kind!r}")
    rows = []
    for x in x_grid:
        for alpha, beta in coeff_grid:
            params = TauParams(a=w.a, b=w.b, x=x, alpha=alpha, beta=beta)
            if kind == "exact_inf":  # the sup norm of f' is 1
                f, bound = sign_kernel_fn(params), kernel_l1(params, w, cfg)
            else:  # the hat derivative has unit L1 mass by construction
                f, bound = _hat_fn(params), kernel_sup(params, w)
            dev = abs(tau(f, w, params, cfg))
            rows.append(SharpnessRow(x, alpha, beta, dev / bound if bound > 0 else 0.0))
    best = max(rows, key=lambda r: (round(r.ratio, 12), -r.x))
    return best, rows


_HAT_WIDTH = 1e-3


def _hat_fn(params: TauParams) -> Fn1D:
    """f whose derivative is a unit-mass hat just inside the peak branch."""
    delta = _HAT_WIDTH * (params.b - params.a)
    if params.alpha >= params.beta:
        lo, hi, sign = params.x - delta, params.x, 1.0
    else:
        lo, hi, sign = params.x, params.x + delta, -1.0
    height = 1.0 / delta

    def fn(t: float) -> float:
        if t <= lo:
            return 0.0
        if t >= hi:
            return sign
        return sign * ((t - lo) * height)

    def deriv(t: float) -> float:
        return sign * (height if lo < t <= hi else 0.0)

    return Fn1D(fn=fn, derivative=deriv, name="hat")


@dataclass(frozen=True)
class AuditRow:
    """One row of `obw audit`; the field names are its CSV header."""

    weight_name: str
    x: float
    alpha: float
    beta: float
    paper_inf_factor: float
    exact_inf_factor: float
    ratio: float
    flagged: bool


def audit_paper_vs_exact(
    weight_list: Iterable[Weight],
    x_grid: Sequence[float],
    coeff_grid: Sequence[tuple[float, float]],
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> list[AuditRow]:
    """Compare the printed sup-norm bound factor with the exact kernel L1.

    A row is flagged when the printed factor falls below the sound one.
    The exact factor is attained: the sign-kernel function (`sign_kernel_fn`,
    unit derivative sup norm) has |tau| equal to it, so on a flagged row
    that witness exceeds the printed bound (`sharpness_search` reports it).
    """
    rows = []
    for w in weight_list:
        for x in x_grid:
            for alpha, beta in coeff_grid:
                params = TauParams(a=w.a, b=w.b, x=x, alpha=alpha, beta=beta)
                paper_inf = float(_paper_factors(params, w, 2.0).inf)  # the same at every q
                exact_inf = float(kernel_l1(params, w, cfg))
                ratio = paper_inf / exact_inf if exact_inf > 0 else math.inf
                rows.append(AuditRow(
                    w.name, x, alpha, beta, paper_inf, exact_inf, ratio, bool(ratio < 1.0 - 1e-9)
                ))
    return rows
