"""Built-in function and weight registry used by the verify/audit sweeps."""

from __future__ import annotations

import functools

from .expr import as_fn1d
from .quadrature import Fn1D
from .weights import Weight, builtin_weight

__all__ = ["corpus_functions", "corpus_weights", "corpus_x_values", "COEFF_PAIRS",
           "FUNCTION_SOURCES"]

COEFF_PAIRS = ((1.0, 1.0), (2.0, 1.0))

# name -> expression in t: `obw bounds --function <name>` reads the source
FUNCTION_SOURCES = {"linear": "t", "quadratic": "t^2", "cubic": "t^3", "quartic": "t^4",
                    "sine": "sin(t)", "exponential": "exp(t)"}


@functools.cache
def corpus_functions() -> tuple[Fn1D, ...]:
    """Six smooth test functions: polynomials up to degree 4, sin, exp;
    compiled on first call (not at import) and shared after it."""
    return tuple(as_fn1d(source, name) for name, source in FUNCTION_SOURCES.items())


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
