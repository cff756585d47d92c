"""Shared fixtures: small random lattices with tilt families, artifact readers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from ambival import scenario
from ambival.oracle import random_instance as make_instance
from ambival.priors import ExponentialTiltFamily
from ambival.scenario import ScenarioLattice, build_lattice


def cell(rows, case, p, q):
    """``(lower, upper)`` of one (case, p, q) row of a parsed ``table1.csv``."""
    for row in rows:
        if row["case"] == case and float(row["p"]) == p and float(row["q"]) == q:
            return float(row["lower"]), float(row["upper"])
    raise KeyError((case, p, q))


def manifest_region(path):
    """``(mu, sigma)``: the region inputs in the ``mu_*`` and ``sigma_*`` rows of a manifest."""
    rows = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
    mu = np.array([float(x) for x in rows["mu_0"].split()])
    sigma = np.array([[float(x) for x in rows[f"sigma_{i}"].split()] for i in range(len(mu))])
    return mu, sigma


def make_lattice(rng, horizon, branching):
    """Random strictly positive transition tree with fixed shape."""
    return make_instance(rng, horizon, branching)[0]


def reblocked(lattice, max_children):
    """The same tree, its levels cut into blocks of at most ``max_children`` children."""
    with mock.patch.object(scenario, "_BLOCK", max_children):
        return ScenarioLattice(lattice.horizon, lattice.parents, lattice.probs)


@st.composite
def ragged_selections(draw):
    """``(lattice, family, grid, codes)``: a ragged tree and per-state selections.

    Horizon 1-3, each node with 1-4 children, or with ``uniform`` drawn
    true, every node of a level with the same 1-4 children; ``codes`` holds
    a few selections, one grid index per decision state ordered by period,
    then node, as the oracle enumerates them.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = draw(st.booleans())
    transitions, n_nodes = [], 1
    for _ in range(draw(st.integers(1, 3))):
        rows, width = [], draw(st.integers(1, 4))
        for _ in range(n_nodes):
            w = rng.uniform(0.1, 1.0, width if uniform else draw(st.integers(1, 4)))
            rows.append(w / w.sum())
        transitions.append(rows)
        n_nodes = sum(len(r) for r in rows)
    lattice = build_lattice(transitions)
    scores = [rng.normal(0.0, 1.0, lattice.n_nodes(t)) for t in range(lattice.horizon + 1)]
    grid = list(rng.uniform(-1.0, 1.0, draw(st.integers(1, 3))))
    n_states = sum(lattice.n_nodes(t) for t in range(lattice.horizon))
    codes = rng.integers(0, len(grid), (draw(st.integers(1, 4)), n_states))
    return lattice, ExponentialTiltFamily(lattice, scores), grid, codes


def level_choice(lattice, code):
    """One oracle selection row cut by decision level, as ``density_process`` reads it."""
    cuts = np.cumsum([lattice.n_nodes(t) for t in range(lattice.horizon - 1)])
    return dict(enumerate(np.split(code, cuts)))


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
