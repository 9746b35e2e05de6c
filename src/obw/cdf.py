"""Bounds relating a weighted CDF to its density, reliability and the
expectation identity. A DensityModel normalizes its input density from
its one table of f w, and every function here reads F_w from that
table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .bounds import bounds_paper
from .kernel import TauParams
from .functionals import tau
from .norms import Triple, conjugate, norm_triple
from .quadrature import DEFAULT_CONFIG, DegenerateIntervalError, Fn1D, QuadConfig, QuadratureError
from .weights import Weight

__all__ = [
    "DensityModel",
    "CdfReport",
    "cdf_bound_general",
    "cdf_bound_left",
    "expectation_identity_check",
    "cdf_report",
]


class DensityModel:
    """Probability density read from f against a weight: f / m, where
    m = int_a^b f w is f's weighted mass, so the density has mass one.

    One `Weight.cumulative` table of the unscaled f w is built when the
    model is made; its total is m (DegenerateIntervalError, a ValueError,
    unless m > 0), and F_w(x) = table(x) / m. `density` is f / m with f's
    kinks, its derivative (and the derivative's `grid`, where it has one,
    which `norms._scan` reads under its own error policy) scaled the same
    way, and `cdf_integral()` is int_a^b F_w, the table's `area()` / m,
    read from its leaves when called. `cfg` is the model's tolerance: its
    table, its derivative norms and every integral the functions below
    take of it use it. `a` and `b` are the weight's.
    """

    def __init__(self, f: Fn1D, weight: Weight, cfg: QuadConfig = DEFAULT_CONFIG) -> None:
        self.f, self.weight, self.cfg = f, weight, cfg
        self.a, self.b = weight.a, weight.b
        table = weight.cumulative(f, self.a, self.b, cfg)
        mass = table(self.b)
        if not mass > 0:
            raise DegenerateIntervalError(
                f"density {f.name or 'f'} has weighted mass {mass:.10g} on "
                f"[{self.a:g}, {self.b:g}]; it must be positive"
            )
        deriv = f.derivative
        scaled = None if deriv is None else (lambda t: deriv(t) / mass)
        if hasattr(deriv, "grid"):  # element by element the same division
            scaled.grid = lambda ts: deriv.grid(ts) / mass
        self.density = Fn1D(fn=lambda t: f.fn(t) / mass, derivative=scaled, name=f.name,
                            kinks=f.kinks)
        # F_w: x -> int_a^x f w / m; ValueError outside [a, b]
        self.cdf: Callable[[float], float] = lambda x: table(x) / mass
        self.cdf_integral: Callable[[], float] = lambda: table.area() / mass

    def norms(self, p: float) -> Triple:
        return norm_triple(self.density, p, self.a, self.b, self.cfg)


def cdf_bound_general(
    model: DensityModel, params: TauParams, p: float = 2.0
) -> tuple[float, Triple]:
    """Two-coefficient CDF bound; returns (measured lhs, bound triple).

    The lhs is algebraically (alpha+beta) m(a,x) m(x,b) |tau|, so the
    bounds are that prefactor times the printed deviation-bound triple.
    Raises QuadratureError when the two sides disagree beyond 1e-10.
    """
    return _cdf_bound(model, params, model.norms(p), p)


def _cdf_bound(
    model: DensityModel, params: TauParams, norms: Triple, p: float
) -> tuple[float, Triple]:
    """cdf_bound_general with the density's norms given."""
    w = model.weight
    f = model.density
    x = params.x
    m_l = w.moment(params.a, x)
    m_r = w.moment(x, params.b)
    lhs = abs(
        (params.alpha * m_r - params.beta * m_l) * model.cdf(x)
        - m_l * (params.weight_sum * m_r * f(x) - params.beta)
    )
    pref = params.weight_sum * m_l * m_r
    triple = bounds_paper(params, w, norms, p) * pref

    bridge = pref * abs(tau(f, w, params, model.cfg))
    if abs(lhs - bridge) > 1e-10 * max(1.0, abs(lhs)):
        raise QuadratureError(
            f"CDF identity check failed at x={x}: lhs {lhs:.12e} disagrees "
            f"with the tau identity {bridge:.12e}"
        )
    return lhs, triple


def cdf_bound_left(model: DensityModel, x: float, p: float = 2.0) -> tuple[float, Triple]:
    """Left-mass-only bound (beta = 0): |m(a,x) f(x) - F_w(x)|.

    Bound triple follows the printed single-branch forms, which for the
    sup branch coincides with the mass-scaled deviation bound.
    """
    w = model.weight
    q = conjugate(p)
    m_l = w.moment(model.a, x)
    lhs = abs(m_l * model.density(x) - model.cdf(x))
    wx = w.eval(x)
    span = x - model.a
    factors = Triple(
        0.5 * span**2 * wx, span ** (1.0 + 1.0 / q) * wx / (q + 1.0) ** (1.0 / q), span
    )
    return lhs, factors * model.norms(p)


def expectation_identity_check(model: DensityModel) -> float:
    """Residual of int F_w versus b - E[X w(X)]; near zero for valid models.

    The two sides are computed apart: int F_w is read from the leaves of
    the model's table (`DensityModel.cdf_integral`), with no quadrature
    and no query of F_w, and E[X w(X)] integrates x f(x) w(x) directly at
    the model's cfg.
    """
    a, b = model.a, model.b
    ex = model.weight.integrate_against(lambda u: u * model.density(u), a, b, model.cfg)
    return model.cdf_integral() - (b - ex)


@dataclass(frozen=True)
class CdfReport:
    """One row of `obw cdf`; the field names are its CSV header."""

    x: float
    F_w: float
    R_w: float
    lhs_31: float
    bound_inf: float
    bound_p: float
    bound_one: float
    identity_residual: float


def cdf_report(
    model: DensityModel, xs: Sequence[float], alpha: float, beta: float, p: float = 2.0
) -> list[CdfReport]:
    """One report row per x; the density's norms and the expectation
    identity residual do not depend on x and are computed once, and F_w is
    read from the model's table."""
    norms = model.norms(p)
    residual = expectation_identity_check(model)
    rows = []
    for x in xs:
        params = TauParams(a=model.a, b=model.b, x=x, alpha=alpha, beta=beta)
        fw = model.cdf(x)
        lhs, triple = _cdf_bound(model, params, norms, p)
        rows.append(CdfReport(x, fw, 1.0 - fw, lhs, *triple, residual))
    return rows
