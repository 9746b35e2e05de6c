"""Right-hand-side bounds: printed closed forms, exact kernel-norm
companions, legacy unweighted results, split variants, corollaries, and
the sharpness / audit sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .functionals import tau
from .kernel import TauParams, _sides, kernel_l1, kernel_lq, kernel_sup
from .norms import NormTriple, conjugate, norm_triple
from .quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig, derivative_callable
from .weights import Weight

__all__ = [
    "BoundSet",
    "BranchTriple",
    "bounds_paper",
    "bounds_exact",
    "bound_set",
    "bounds_cerone",
    "bounds_dragomir",
    "bounds_split",
    "corollary_bounds",
    "sign_kernel_fn",
    "sharpness_search",
    "SharpnessRow",
    "audit_paper_vs_exact",
    "AuditRow",
]


@dataclass(frozen=True)
class BranchTriple:
    """One bound value per derivative-norm branch (sup, L_p, L1)."""

    inf: float
    p: float
    one: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.inf, self.p, self.one)


@dataclass(frozen=True)
class BoundSet:
    """Printed-form and exact kernel-norm bounds for one configuration."""

    paper: BranchTriple
    exact: BranchTriple
    deviation: float
    norms: NormTriple

    def ratios(self) -> dict[str, float]:
        out = {}
        for label, triple in (("paper", self.paper), ("exact", self.exact)):
            for branch in ("inf", "p", "one"):
                b = getattr(triple, branch)
                out[f"{label}_{branch}"] = abs(self.deviation) / b if b > 0 else 0.0
        return out


def _paper_factors(params: TauParams, w: Weight, q: float) -> tuple[float, float]:
    """Bracket factors of the printed closed forms (inf and L_p branches)."""
    s = params.weight_sum
    wx = w.eval(params.x)
    inf_term = p_term = 0.0
    for coef, c, d, _ in _sides(params):
        mass = w.moment(c, d)
        inf_term += coef * (d - c) ** 2 / mass
        p_term += coef**q * (d - c) ** 2 / mass
    inf_factor = inf_term * wx / (2.0 * s)
    p_factor = (p_term * wx) ** (1.0 / q) / ((q + 1.0) ** (1.0 / q) * s)
    return inf_factor, p_factor


def bounds_paper(params: TauParams, w: Weight, norms: NormTriple, p: float) -> BranchTriple:
    """The three printed branches of the weighted deviation bound.

    The inf and L_p brackets carry the w(x) factor of the printed form,
    which matches the exact kernel norms only for constant weights; the
    audit sweep quantifies the gap.
    """
    q = conjugate(p)
    inf_factor, p_factor = _paper_factors(params, w, q)
    one_factor = 0.5 * (1.0 + abs(params.alpha - params.beta) / params.weight_sum)
    return BranchTriple(
        inf=inf_factor * norms.inf,
        p=p_factor * norms.p_norm,
        one=one_factor * norms.one,
    )


def bounds_exact(
    params: TauParams,
    w: Weight,
    norms: NormTriple,
    p: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> BranchTriple:
    """Sound Hoelder companions: exact kernel norms times derivative norms."""
    q = conjugate(p)
    return BranchTriple(
        inf=kernel_l1(params, w, cfg) * norms.inf,
        p=kernel_lq(params, w, q, cfg) * norms.p_norm,
        one=kernel_sup(params, w) * norms.one,
    )


def bound_set(
    f: Fn1D,
    w: Weight,
    params: TauParams,
    p: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> BoundSet:
    """Measured deviation plus both bound families for one configuration."""
    fprime = derivative_callable(f, params.a, params.b)
    norms = norm_triple(fprime, p, params.a, params.b, cfg)
    return BoundSet(
        paper=bounds_paper(params, w, norms, p),
        exact=bounds_exact(params, w, norms, p, cfg),
        deviation=tau(f, w, params, cfg),
        norms=norms,
    )


def bounds_cerone(
    x: float,
    alpha: float,
    beta: float,
    a: float,
    b: float,
    norms: NormTriple,
    p: float,
) -> BranchTriple:
    """Unweighted two-coefficient bounds (uniform-weight specialization)."""
    q = conjugate(p)
    s = alpha + beta
    inf_factor = (alpha * (x - a) + beta * (b - x)) / (2.0 * s)
    p_factor = (alpha**q * (x - a) + beta**q * (b - x)) ** (1.0 / q) / (
        s * (q + 1.0) ** (1.0 / q)
    )
    one_factor = 0.5 * (1.0 + abs(alpha - beta) / s)
    return BranchTriple(
        inf=inf_factor * norms.inf,
        p=p_factor * norms.p_norm,
        one=one_factor * norms.one,
    )


def bounds_dragomir(
    x: float, a: float, b: float, norms: NormTriple, p: float
) -> BranchTriple:
    """Classic single-point bounds on |f(x) - mean| over [a, b]."""
    q = conjugate(p)
    span = b - a
    mid = 0.5 * (a + b)
    inf_factor = ((0.5 * span) ** 2 + (x - mid) ** 2) / span
    p_factor = (((x - a) ** (q + 1) + (b - x) ** (q + 1)) / (q + 1.0)) ** (
        1.0 / q
    ) / span
    one_factor = (0.5 * span + abs(x - mid)) / span
    return BranchTriple(
        inf=inf_factor * norms.inf,
        p=p_factor * norms.p_norm,
        one=one_factor * norms.one,
    )


def bounds_split(
    f: Fn1D,
    w: Weight,
    params: TauParams,
    p: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> tuple[BranchTriple, BranchTriple]:
    """Triangle-inequality bounds on |(alpha+beta) tau|: (fine, coarse).

    Fine uses derivative norms on the two subintervals; coarse replaces
    them with full-interval norms and is never smaller (branchwise).
    """
    q = conjugate(p)
    a, b, x = params.a, params.b, params.x
    wx = w.eval(x)
    fprime = derivative_callable(f, a, b)
    full = norm_triple(fprime, p, a, b, cfg)

    def terms(coef: float, c: float, d: float, mass: float):
        width2 = (d - c) ** 2
        inf_t = 0.5 * coef * width2 * wx / mass
        p_t = coef * (width2 * wx / (mass * (q + 1.0))) ** (1.0 / q)
        return inf_t, p_t

    fine_inf = fine_p = fine_one = 0.0
    coarse_inf = coarse_p = 0.0
    for coef, c, d, _ in _sides(params):
        mass = w.moment(c, d)
        sub = norm_triple(fprime, p, c, d, cfg)
        inf_t, p_t = terms(coef, c, d, mass)
        fine_inf += inf_t * sub.inf
        fine_p += p_t * sub.p_norm
        fine_one += coef * sub.one
        coarse_inf += inf_t * full.inf
        coarse_p += p_t * full.p_norm
    coarse_one = params.weight_sum * full.one
    fine = BranchTriple(inf=fine_inf, p=fine_p, one=fine_one)
    coarse = BranchTriple(inf=coarse_inf, p=coarse_p, one=coarse_one)
    return fine, coarse


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
) -> tuple[float, BranchTriple]:
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
    fprime = derivative_callable(f, a, b)
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
    weight_name: str
    x: float
    alpha: float
    beta: float
    paper_inf_factor: float
    exact_inf_factor: float
    ratio: float
    flagged: bool


AUDIT_COLUMNS = (
    "weight_name",
    "x",
    "alpha",
    "beta",
    "paper_inf_factor",
    "exact_inf_factor",
    "ratio",
    "flagged",
)


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
                paper_inf = float(_paper_factors(params, w, 2.0)[0])  # the same at every q
                exact_inf = float(kernel_l1(params, w, cfg))
                ratio = paper_inf / exact_inf if exact_inf > 0 else math.inf
                rows.append(AuditRow(
                    w.name, x, alpha, beta, paper_inf, exact_inf, ratio, bool(ratio < 1.0 - 1e-9)
                ))
    return rows
