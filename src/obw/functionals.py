"""Deviation functionals and their equivalent decompositions."""

from __future__ import annotations

from .kernel import TauParams, _branches, _sides
from .quadrature import DEFAULT_CONFIG, Fn1D, QuadConfig, weighted_mean
from .weights import Weight

__all__ = [
    "deviation_S",
    "tau",
    "tau_combination",
    "tau_decomposed",
    "sigma_w",
]


def deviation_S(
    f: Fn1D, w: Weight, x: float, c: float, d: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """f(x) minus the weighted integral mean of f over [c, d]."""
    return f(x) - weighted_mean(f, w, c, d, cfg)


def tau(f: Fn1D, w: Weight, params: TauParams, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Deviation of f(x) from the coefficient combination of one-sided means."""
    return f(params.x) - sum(
        coef * w.integrate_against(f, c, d, cfg) for coef, c, d, _ in _branches(params, w)
    )


def tau_combination(
    f: Fn1D, w: Weight, params: TauParams, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """(alpha S_left + beta S_right) / (alpha + beta); algebraically equal to tau."""
    total = sum(
        coef * deviation_S(f, w, params.x, c, d, cfg) for coef, c, d, _ in _sides(params)
    )
    return total / params.weight_sum


def sigma_w(w: Weight, x: float) -> float:
    """Mass ratio m(a, b) / m(x, b); >= 1 for nonnegative weights."""
    return w.total / w.mass(x, w.b)


def tau_decomposed(
    f: Fn1D, w: Weight, params: TauParams, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """tau rewritten against the full-interval mean via the mass ratio.

    Uses the left mean and the (fixed) full-interval mean only, so a sweep
    over x re-integrates just one subinterval. Coefficient on f(x) is 1,
    as the rewrite of the mean combination forces.
    """
    if params.beta == 0:
        return tau(f, w, params, cfg)
    s = params.weight_sum
    sig = sigma_w(w, params.x)
    left = weighted_mean(f, w, params.a, params.x, cfg)
    full = weighted_mean(f, w, params.a, params.b, cfg)
    frac = params.beta / s * sig
    return f(params.x) - ((1.0 - frac) * left + frac * full)
