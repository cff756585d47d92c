"""Shared fixtures: small random lattices with tilt families."""

import numpy as np
import pytest

from ambival.oracle import random_instance as make_instance
from ambival.scenario import build_lattice


def make_lattice(rng, horizon, branching):
    """Random strictly positive transition tree with fixed shape."""
    return make_instance(rng, horizon, branching)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def binomial_lattice():
    """Symmetric two-period binomial tree."""
    return build_lattice(
        [
            [[0.5, 0.5]],
            [[0.5, 0.5], [0.5, 0.5]],
        ]
    )
