"""Shared fixtures: small random lattices with tilt families, table lookup."""

import numpy as np
import pytest

from ambival.oracle import random_instance as make_instance
from ambival.scenario import build_lattice


def cell(result, case, p, q):
    """``(lower, upper)`` of one (case, p, q) row of a :class:`Table1Result`."""
    for row in result.rows:
        if row["case"] == case and row["p"] == p and row["q"] == q:
            return float(row["lower"]), float(row["upper"])
    raise KeyError((case, p, q))


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
