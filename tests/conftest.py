import math

import pytest

from obw.quadrature import Fn1D
from obw.weights import builtin_weight


@pytest.fixture
def uniform():
    return builtin_weight("uniform", 0.0, 1.0)


@pytest.fixture
def decreasing():
    return builtin_weight("decreasing", 0.0, 1.0)


@pytest.fixture
def increasing():
    return builtin_weight("increasing", 0.0, 1.0)


@pytest.fixture
def expdecay():
    return builtin_weight("exponential", 0.0, 1.0, lam=1.0)


@pytest.fixture
def quadratic():
    return Fn1D(
        fn=lambda t: t * t,
        derivative=lambda t: 2 * t,
        name="quadratic",
    )


@pytest.fixture
def sine():
    return Fn1D(fn=math.sin, derivative=math.cos, name="sine")
