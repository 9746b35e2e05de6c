"""Right-hand-side bounds: printed closed forms, exact kernel-norm
companions, legacy unweighted results, corollaries, and the sharpness /
audit sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .functionals import tau
from .kernel import TauParams, _sides, kernel_l1, kernel_lq, kernel_sup
from .norms import Triple, conjugate, norm_triple
from .quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig
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
    "audit_grid",
    "audit_columns",
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


def _powered(coef: float, q: float, name: str) -> float:
    """coef ** q of the printed L_p bracket; an overflow names the coefficient."""
    try:
        return coef**q
    except OverflowError as exc:
        raise OverflowError(
            f"printed L_p bracket: {name}**q overflows at {name}={coef:g}, q={q:g} {exc}"
        ) from exc


def _paper_factors(params: TauParams, w: Weight, q: float) -> Triple:
    """Bracket factors of the printed closed forms; the sup factor does not
    depend on q."""
    s = params.weight_sum
    wx = w.eval(params.x)
    inf_term = p_term = 0.0
    for coef, c, d, anchor in _sides(params):
        mass = w.mass(c, d)
        inf_term += coef * (d - c) ** 2 / mass
        p_term += _powered(coef, q, "alpha" if anchor == params.a else "beta") * (d - c) ** 2 / mass
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
    norms = norm_triple(f, p, params.a, params.b, cfg)
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
    """Specialized bound statements, each the general one with parameters fixed.

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
    norms = norm_triple(f, p, a, b, cfg)
    lhs = abs(tau(f, w, params, cfg))
    return lhs, bounds_paper(params, w, norms, p)


def sign_kernel_fn(x: float) -> Fn1D:
    """Piecewise-linear f whose derivative is the sign of the kernel at x.

    f' = +1 left of x and -1 right of it, so the integral of rho f'
    equals the kernel L1 norm and the sup-norm bound is attained.
    """
    return Fn1D(fn=lambda t: t if t <= x else 2.0 * x - t,
                derivative=lambda t: 1.0 if t <= x else -1.0, name="sign-kernel", kinks=(x,))


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
    toward smaller x. A column core on `_sweep`: per x, each weighted
    `_side` and each witness's integral on a side its pairs weight are
    taken once, and the pairs combine them as `kernel_l1` or `kernel_sup`
    and `tau` do: each ratio is bit-equal to its row on its own. The read
    takes the left side's mass (and moment), the right side's, then the
    integrals, and raises the first that fails. The hat's `levels` make its
    plateau a closed mass: on a side only its ramp is integrated, as in `tau`.
    """
    if kind not in ("exact_inf", "exact_one"):
        raise ValueError(f"unknown sharpness kind: {kind!r}")
    xs, pairs = list(x_grid), list(coeff_grid)
    if not (xs and pairs):
        raise ValueError(f"sharpness_search: {'coeff_grid' if xs else 'x_grid'} is empty")
    inf = kind == "exact_inf"  # reads a side's mass and first moment; exact_one, its mass
    # a pair's witness: the sign kernel, or the hat, up where alpha >= beta
    ups = [inf or alpha >= beta for alpha, beta in pairs]
    need = sorted({(up, k) for up, pair in zip(ups, pairs) for k in (0, 1) if pair[k] > 0})

    def read(x: float, left: bool, right: bool) -> list:
        side = [_side(w, w.a, x, (1 + inf) * left, cfg), _side(w, w.b, x, (1 + inf) * right, cfg)]
        f = {up: sign_kernel_fn(x) if inf else _hat(w.a, w.b, x, up) for up in set(ups)}
        ends = ((w.a, x), (x, w.b))
        integral = {(up, k): w.integrate_against(f[up], *ends[k], cfg) for up, k in need}
        ratios = []
        for (alpha, beta), up in zip(pairs, ups):
            s = alpha + beta
            branches = [(share / s / side[k][0], k) for k, share in enumerate((alpha, beta))
                        if share > 0]
            bound = sum(coef * side[k][1] for coef, k in branches) if inf else max(alpha, beta) / s
            dev = abs(f[up](x) - sum(coef * integral[up, k] for coef, k in branches))
            ratios.append(dev / bound if bound > 0 else 0.0)
        return ratios

    ratios = [ratio for per_x in _sweep(w, xs, pairs, read) for ratio in per_x]
    rows = list(map(SharpnessRow, *audit_grid(xs, pairs), ratios))
    best = max(rows, key=lambda r: (round(r.ratio, 12), -r.x))
    return best, rows


_HAT_WIDTH = 1e-3


def _hat(a: float, b: float, x: float, up: bool) -> Fn1D:
    """The hat witness at x, delta = _HAT_WIDTH (b - a): up, f is 0 to
    x - delta, then a ramp up to 1 at x, then 1; else 0 to x, then a ramp
    down to -1 at x + delta, then -1. Its `levels` (0, None, +-1) say so, and
    `integrate_against` takes the plateau from the weight's moment and
    integrates the ramp alone."""
    delta = _HAT_WIDTH * (b - a)
    lo, hi, sign = (x - delta, x, 1.0) if up else (x, x + delta, -1.0)
    height = 1.0 / delta
    return Fn1D(fn=lambda t: 0.0 if t <= lo else sign if t >= hi else sign * ((t - lo) * height),
                derivative=lambda t: sign * (height if lo < t <= hi else 0.0),
                name="hat", kinks=(lo, hi), levels=(0.0, None, sign))


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


def audit_grid(xs: Sequence, pairs: Sequence[tuple]) -> tuple[list, list, list]:
    """The x, alpha and beta columns of one weight's audit rows: x-major,
    so row i * len(pairs) + j is xs[i] with pairs[j]."""
    return ([x for x in xs for _ in pairs], [alpha for _ in xs for alpha, _ in pairs],
            [beta for _ in xs for _, beta in pairs])


def audit_columns(
    weight_list: Iterable[Weight],
    x_grid: Sequence[float],
    coeff_grid: Sequence[tuple[float, float]],
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> Iterator[tuple[str, list[float], list[float], list[float], list[bool]]]:
    """The audit as columns: per weight, in order, its name and the lists
    of the printed sup-norm factor, the exact kernel L1 factor, their ratio
    (inf where the exact factor is 0) and the flag (the ratio below
    1 - 1e-9), in the row order of `audit_grid`. A weight's columns are
    taken when its turn comes.

    A column core on `_sweep`, whose pair check also takes the L_p
    bracket's coef ** q (`_powered`). Per x, w(x) and each weighted side's
    `_side` are taken once; the pairs combine them as numpy columns, in the
    operations and order of `_paper_factors`' inf bracket and of
    `kernel_l1`, so each entry is bit-equal to the row computed on its own.
    The read takes w(x), then the left side, then the right side.
    """
    xs, pairs = list(x_grid), list(coeff_grid)
    if not pairs:  # no rows, so nothing is read
        return
    coefs = [np.array([pair[k] for pair in pairs], dtype=float) for k in (0, 1)]
    s = np.array([alpha + beta for alpha, beta in pairs], dtype=float)
    for w in weight_list:
        per_x = _sweep(w, xs, pairs, lambda x, left, right: [
            w.eval(x), *_side(w, w.a, x, 3 * left, cfg), *_side(w, w.b, x, 3 * right, cfg)],
            check=lambda alpha, beta: (_powered(alpha, 2.0, "alpha"), _powered(beta, 2.0, "beta")))
        wx, *sides = np.array(per_x, dtype=float).reshape(-1, 7).T[..., None]
        inf_term = exact = 0.0
        with np.errstate(all="ignore"):  # silent inf and nan, as on Python floats
            for coef, (mass, first, span2) in zip(coefs, (sides[:3], sides[3:])):
                inf_term = inf_term + np.where(coef > 0, coef * span2 / mass, 0.0)
                exact = exact + np.where(coef > 0, coef / s / mass * first, 0.0)
            paper = inf_term * wx / (2.0 * s)
            ratio = np.where(exact > 0, paper / exact, math.inf)
        yield (w.name, *(v.ravel().tolist() for v in (paper, exact, ratio, ratio < 1.0 - 1e-9)))


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

    A row view of `audit_columns`, which checks the pairs before it reads
    and takes each per-x quantity once: per weight, x-major, in the order
    of the grids. `obw audit` writes those columns without building rows.
    """
    xs, pairs = list(x_grid), list(coeff_grid)
    grid = audit_grid(xs, pairs)
    rows: list[AuditRow] = []
    for name, *values in audit_columns(weight_list, xs, pairs, cfg):
        rows += map(AuditRow, [name] * len(values[0]), *grid, *values)
    return rows


def _sweep(w: Weight, xs: list, pairs: list, read: Callable,
           check: Callable = lambda alpha, beta: None) -> list:
    """The column cores' scaffold: the list of read(x, left, right) per x;
    left (right) says a pair weights that side. Before x is read the pairs
    are checked (`TauParams`, then check(alpha, beta)): at the first x, and
    later only x > a if left and x < b if right (a NaN x fails both). So
    at an x a failing check wins over the read, and a failing read raises
    the first of its quantities that fails, in the read's order, not the
    pairs' (the left side's before the right side's): the reads call what
    the rows call."""
    left, right = (any(pair[k] > 0 for pair in pairs) for k in (0, 1))
    per_x = []
    for i, x in enumerate(xs):
        if i == 0 or (left and not x > w.a) or (right and not x < w.b):
            for alpha, beta in pairs:
                TauParams(w.a, w.b, x, alpha, beta), check(alpha, beta)
        per_x.append(read(x, left, right))
    return per_x


def _side(w: Weight, anchor: float, x: float, parts: int, cfg: QuadConfig) -> list:
    """The first `parts` of the mass, the first moment and (d - c)^2 of the
    side [c, d] of x that ends at anchor, and nan for the rest."""
    c, d = (x, anchor) if anchor > x else (anchor, x)
    return [w.mass(c, d) if parts else math.nan,
            w.moment_l1(anchor, x, cfg) if parts > 1 else math.nan,
            (d - c) ** 2 if parts > 2 else math.nan]
