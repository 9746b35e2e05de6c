"""Bounds relating a weighted CDF to its density, reliability and the
expectation identity, all read from a DensityModel's one F_w table and tolerance."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

from .bounds import BranchTriple, bounds_paper
from .kernel import TauParams
from .functionals import tau
from .norms import NormTriple, conjugate, norm_triple
from .quadrature import (
    DEFAULT_CONFIG,
    Fn1D,
    QuadConfig,
    QuadratureError,
    derivative_callable,
    integrate,
)
from .weights import Weight

__all__ = [
    "DensityModel",
    "CdfReport",
    "cdf_value",
    "reliability",
    "cdf_bound_general",
    "cdf_bound_left",
    "expectation_identity_check",
    "cdf_report",
]


@dataclass(frozen=True)
class DensityModel:
    """Probability density f paired with a weight, normalized so the
    weighted total mass over the weight's domain is one.

    `cfg` is the model's one tolerance: its table of F_w (`cdf`), its
    derivative norms and every integral the functions below take of it
    use it. The mass, the table's total unless `mass` gives it, must be
    within max(1e-8, abs_tol) of one.
    """

    density: Fn1D
    weight: Weight
    cfg: QuadConfig = field(default=DEFAULT_CONFIG, compare=False, repr=False)
    mass: Optional[float] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        total = self.cdf(self.b) if self.mass is None else self.mass
        if abs(total - 1.0) > max(1e-8, self.cfg.abs_tol):
            raise ValueError(
                f"weighted density mass is {total:.10f}, expected 1 "
                "(renormalize the density)"
            )

    @property
    def a(self) -> float:
        return self.weight.a

    @property
    def b(self) -> float:
        return self.weight.b

    @cached_property
    def cdf(self) -> Callable[[float], float]:
        """F_w: x -> int_a^x f w, from one `Weight.cumulative` table of f w
        built on first use; ValueError outside [a, b]."""
        return self.weight.cumulative(self.density, self.a, self.b, self.cfg)

    def norms(self, p: float) -> NormTriple:
        fprime = derivative_callable(self.density, self.a, self.b)
        return norm_triple(fprime, p, self.a, self.b, self.cfg)


def normalized_density(f: Fn1D, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG) -> DensityModel:
    """Rescale f so the weighted mass is one and wrap it in a model at cfg."""
    total = w.integrate_against(f, w.a, w.b, cfg)
    if total <= 0:
        raise ValueError("density must carry positive weighted mass")
    scaled = Fn1D(
        fn=lambda t: f.fn(t) / total,
        derivative=(None if f.derivative is None else lambda t: f.derivative(t) / total),
        name=f.name,
    )
    # f / total has weighted mass total / total: no second integral
    return DensityModel(density=scaled, weight=w, cfg=cfg, mass=1.0)


def cdf_value(model: DensityModel, x: float) -> float:
    """F_w(x): weighted probability mass up to x, read from the model's table."""
    return model.cdf(x)


def reliability(model: DensityModel, x: float) -> float:
    """R_w(x) = 1 - F_w(x)."""
    return 1.0 - cdf_value(model, x)


def cdf_bound_general(
    model: DensityModel, params: TauParams, p: float = 2.0
) -> tuple[float, BranchTriple]:
    """Two-coefficient CDF bound; returns (measured lhs, bound triple).

    The lhs is algebraically (alpha+beta) m(a,x) m(x,b) |tau|, so the
    bounds are that prefactor times the printed deviation-bound triple.
    Raises QuadratureError when the two sides disagree beyond 1e-10.
    """
    return _cdf_bound(model, params, model.norms(p), p)


def _cdf_bound(
    model: DensityModel, params: TauParams, norms: NormTriple, p: float
) -> tuple[float, BranchTriple]:
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
    base = bounds_paper(params, w, norms, p)
    triple = BranchTriple(inf=pref * base.inf, p=pref * base.p, one=pref * base.one)

    bridge = pref * abs(tau(f, w, params, model.cfg))
    if abs(lhs - bridge) > 1e-10 * max(1.0, abs(lhs)):
        raise QuadratureError(
            f"CDF identity check failed at x={x}: lhs {lhs:.12e} disagrees "
            f"with the tau identity {bridge:.12e}"
        )
    return lhs, triple


def cdf_bound_left(model: DensityModel, x: float, p: float = 2.0) -> tuple[float, BranchTriple]:
    """Left-mass-only bound (beta = 0): |m(a,x) f(x) - F_w(x)|.

    Bound triple follows the printed single-branch forms, which for the
    sup branch coincides with the mass-scaled deviation bound.
    """
    w = model.weight
    q = conjugate(p)
    m_l = w.moment(model.a, x)
    lhs = abs(m_l * model.density(x) - cdf_value(model, x))
    wx = w.eval(x)
    norms = model.norms(p)
    span = x - model.a
    triple = BranchTriple(
        inf=0.5 * span**2 * wx * norms.inf,
        p=span ** (1.0 + 1.0 / q) * wx * norms.p_norm / (q + 1.0) ** (1.0 / q),
        one=span * norms.one,
    )
    return lhs, triple


def expectation_identity_check(model: DensityModel) -> float:
    """Residual of int F_w versus b - E[X w(X)]; near zero for valid models.

    The two sides are computed apart: int F_w integrates the model's table
    of F_w, and E[X w(X)] integrates x f(x) w(x) directly.
    """
    a, b, cfg = model.a, model.b, model.cfg
    outer = replace(cfg, abs_tol=max(cfg.abs_tol, 1e-9))
    int_f = integrate(model.cdf, a, b, outer)[0]
    ex = model.weight.integrate_against(lambda u: u * model.density(u), a, b, cfg)
    return int_f - (b - ex)


@dataclass(frozen=True)
class CdfReport:
    x: float
    f_w: float
    r_w: float
    lhs: float
    bound_inf: float
    bound_p: float
    bound_one: float
    identity_residual: float


CDF_COLUMNS = (
    "x",
    "F_w",
    "R_w",
    "lhs_31",
    "bound_inf",
    "bound_p",
    "bound_one",
    "identity_residual",
)


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
        rows.append(CdfReport(x, fw, 1.0 - fw, lhs, triple.inf, triple.p, triple.one, residual))
    return rows
