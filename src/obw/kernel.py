"""Weighted Peano kernel, its norm integrals, and the identity residual.

The kernel's right branch keeps the oriented (negative) moment so the
integration-by-parts identity holds exactly; absolute values appear only
inside the norm integrals, which split at the jump point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadrature import (
    DEFAULT_CONFIG,
    DegenerateIntervalError,
    Fn1D,
    QuadConfig,
    derivative_callable,
    integrate,
)
from .weights import Weight

__all__ = [
    "TauParams",
    "peano_kernel",
    "kernel_l1",
    "kernel_lq",
    "kernel_sup",
    "identity_residual",
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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("coefficients must be nonnegative")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("coefficients must not both be zero")
        if self.alpha > 0 and not self.x > self.a:
            raise ValueError("alpha > 0 requires x > a (left branch needs mass)")
        if self.beta > 0 and not self.x < self.b:
            raise ValueError("beta > 0 requires x < b (right branch needs mass)")

    @property
    def weight_sum(self) -> float:
        return self.alpha + self.beta


def _branch_masses(params: TauParams, w: Weight, cfg: QuadConfig) -> tuple[float, float]:
    total = w.moment(w.a, w.b, cfg)
    m_left = w.moment(params.a, params.x, cfg) if params.alpha > 0 else 0.0
    m_right = w.moment(params.x, params.b, cfg) if params.beta > 0 else 0.0
    if params.alpha > 0 and m_left < 1e-13 * total:
        raise DegenerateIntervalError("left branch carries no weight mass")
    if params.beta > 0 and m_right < 1e-13 * total:
        raise DegenerateIntervalError("right branch carries no weight mass")
    return m_left, m_right


def peano_kernel(
    params: TauParams, w: Weight, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """rho(x, t): oriented two-branch kernel, <= 0 on the right branch."""
    if t < params.a or t > params.b:
        raise ValueError(f"t={t} outside [{params.a}, {params.b}]")
    m_left, m_right = _branch_masses(params, w, cfg)
    s = params.weight_sum
    if t <= params.x:
        if params.alpha == 0:
            return 0.0
        return (params.alpha / s) * w.moment(params.a, t, cfg) / m_left
    if params.beta == 0:
        return 0.0
    return (params.beta / s) * w.moment(params.b, t, cfg) / m_right


def kernel_l1(params: TauParams, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Exact int_a^b |rho(x, t)| dt, split at the jump point t = x."""
    m_left, m_right = _branch_masses(params, w, cfg)
    s = params.weight_sum
    total = 0.0
    if params.alpha > 0:
        left = integrate(lambda t: w.moment(params.a, t, cfg), params.a, params.x, cfg)[0]
        total += (params.alpha / s) * left / m_left
    if params.beta > 0:
        right = integrate(lambda t: -w.moment(params.b, t, cfg), params.x, params.b, cfg)[0]
        total += (params.beta / s) * right / m_right
    return total


def kernel_lq(
    params: TauParams, w: Weight, q: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """Exact (int_a^b |rho(x, t)|^q dt)^(1/q) for q > 1."""
    if q <= 1:
        raise ValueError("kernel_lq requires q > 1")
    m_left, m_right = _branch_masses(params, w, cfg)
    s = params.weight_sum
    total = 0.0
    if params.alpha > 0:
        coef = params.alpha / (s * m_left)
        total += integrate(
            lambda t: max(coef * w.moment(params.a, t, cfg), 0.0) ** q,
            params.a,
            params.x,
            cfg,
        )[0]
    if params.beta > 0:
        coef = params.beta / (s * m_right)
        total += integrate(
            lambda t: max(-coef * w.moment(params.b, t, cfg), 0.0) ** q,
            params.x,
            params.b,
            cfg,
        )[0]
    return max(total, 0.0) ** (1.0 / q)


def kernel_sup(params: TauParams, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """sup |rho|; equals max(alpha, beta) / (alpha + beta), attained at t = x."""
    _branch_masses(params, w, cfg)
    return max(params.alpha, params.beta) / params.weight_sum


def identity_residual(
    f: Fn1D, params: TauParams, w: Weight, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """Residual of the kernel representation.

    Left side: int rho(x, t) f'(t) dt. Right side: f(x) minus the
    coefficient-weighted combination of one-sided weighted means.
    Near zero (combined quadrature tolerance) for smooth f.
    """
    m_left, m_right = _branch_masses(params, w, cfg)
    s = params.weight_sum
    fprime = derivative_callable(f, params.a, params.b)

    lhs = 0.0
    if params.alpha > 0:
        coef = params.alpha / (s * m_left)
        lhs += integrate(
            lambda t: coef * w.moment(params.a, t, cfg) * fprime(t),
            params.a,
            params.x,
            cfg,
        )[0]
    if params.beta > 0:
        coef = params.beta / (s * m_right)
        lhs += integrate(
            lambda t: coef * w.moment(params.b, t, cfg) * fprime(t),
            params.x,
            params.b,
            cfg,
        )[0]

    combo = 0.0
    if params.alpha > 0:
        combo += params.alpha * w.integrate_against(f, params.a, params.x, cfg) / m_left
    if params.beta > 0:
        combo += params.beta * w.integrate_against(f, params.x, params.b, cfg) / m_right
    rhs = f(params.x) - combo / s
    return lhs - rhs
