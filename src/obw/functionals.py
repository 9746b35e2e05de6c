"""Deviation functionals and their equivalent decompositions."""

from __future__ import annotations

from .kernel import TauParams
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
    s = params.weight_sum
    left = (
        weighted_mean(f, w, params.a, params.x, cfg) if params.alpha > 0 else 0.0
    )
    right = (
        weighted_mean(f, w, params.x, params.b, cfg) if params.beta > 0 else 0.0
    )
    return f(params.x) - (params.alpha * left + params.beta * right) / s


def tau_combination(
    f: Fn1D, w: Weight, params: TauParams, cfg: QuadConfig = DEFAULT_CONFIG
) -> float:
    """(alpha S_left + beta S_right) / (alpha + beta); algebraically equal to tau."""
    s = params.weight_sum
    total = 0.0
    if params.alpha > 0:
        total += params.alpha * deviation_S(f, w, params.x, params.a, params.x, cfg)
    if params.beta > 0:
        total += params.beta * deviation_S(f, w, params.x, params.x, params.b, cfg)
    return total / s


def sigma_w(w: Weight, x: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Mass ratio m(a, b) / m(x, b); >= 1 for nonnegative weights."""
    total = w.moment(w.a, w.b, cfg)
    right = w.moment(x, w.b, cfg)
    if right < 1e-13 * total:
        from .quadrature import DegenerateIntervalError

        raise DegenerateIntervalError("zero right mass; sigma_w is undefined")
    return total / right


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
    sig = sigma_w(w, params.x, cfg)
    left = weighted_mean(f, w, params.a, params.x, cfg)
    full = weighted_mean(f, w, params.a, params.b, cfg)
    frac = params.beta / s * sig
    return f(params.x) - ((1.0 - frac) * left + frac * full)
