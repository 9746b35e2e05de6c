"""Built-in function and weight registry used by the verify/audit sweeps."""

from __future__ import annotations

import math

from .quadrature import Fn1D
from .weights import Weight, builtin_weight

__all__ = [
    "corpus_functions",
    "corpus_weights",
    "corpus_x_values",
    "COEFF_PAIRS",
    "function_by_name",
]

COEFF_PAIRS = ((1.0, 1.0), (2.0, 1.0))


def corpus_functions() -> tuple[Fn1D, ...]:
    """Six smooth test functions: polynomials up to degree 4, sin, exp."""
    return (
        Fn1D(fn=lambda t: t, derivative=lambda t: 1.0, name="linear"),
        Fn1D(fn=lambda t: t * t, derivative=lambda t: 2 * t, name="quadratic"),
        Fn1D(fn=lambda t: t**3, derivative=lambda t: 3 * t * t, name="cubic"),
        Fn1D(fn=lambda t: t**4, derivative=lambda t: 4 * t**3, name="quartic"),
        Fn1D(fn=math.sin, derivative=math.cos, name="sine"),
        Fn1D(fn=math.exp, derivative=math.exp, name="exponential"),
    )


def function_by_name(name: str) -> Fn1D:
    for f in corpus_functions():
        if f.name == name:
            return f
    raise ValueError(f"unknown registry function: {name!r}")


def corpus_weights(a: float = 0.0, b: float = 1.0) -> tuple[Weight, ...]:
    """Five registry weights: constant, increasing, decreasing, exponential
    decay, and a truncated-normal bump."""
    return (
        builtin_weight("uniform", a, b),
        builtin_weight("increasing", a, b),
        builtin_weight("decreasing", a, b),
        builtin_weight("exponential", a, b, lam=1.0),
        builtin_weight("truncnorm", a, b),
    )


def corpus_x_values(a: float = 0.0, b: float = 1.0) -> tuple[float, ...]:
    return tuple(a + frac * (b - a) for frac in (0.25, 0.5, 0.75))
