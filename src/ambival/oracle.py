"""Brute-force enumeration oracle for the multiple-prior stopping problem.

Independently of the backward recursion, this module enumerates every adapted
stopping time and every adapted parameter selection on a small lattice and
evaluates the sup-inf (and inf-sup) of the expected owner's payoff directly.
The recursion is correct iff its time-0 surplus value matches the sup-inf to
machine precision; weak duality (sup-inf <= inf-sup) must hold as well.

Enumerated objects are integer arrays: a stopping rule is its value along
every terminal path, a selection is one grid index per decision state.  The
expectations of all (selection, rule) pairs are then gathers and one matrix
product.  Enumeration is exponential in the lattice size, so hard caps
reject anything larger than a few million objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, ValidationError
from .priors import DensityFamily, ExponentialTiltFamily, density_process
from .scenario import AdaptedProcess, ScenarioLattice, build_lattice
from .valuation import payoff_process

DEFAULT_CAP = 10**6


def count_stopping_times(lattice: ScenarioLattice) -> int:
    """Number of adapted stopping times with values in ``1..T+1``.

    Below the horizon each node decides independently, so the count
    satisfies ``f(node) = 1 + prod_children f(child)`` with ``f = 2`` at the
    last level; the root, which may not stop at time 0, has
    ``prod_children f(child)``.
    """
    T = lattice.horizon
    f = np.full(lattice.n_nodes(T), 2, dtype=object)  # exact integers
    for t in range(T - 1, -1, -1):
        f = np.multiply.reduceat(f, lattice.child_offsets[t][:-1])
        if t > 0:
            f = f + 1  # or stop here
    return int(f[0])


def enumerate_stopping_times(lattice: ScenarioLattice, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All adapted stopping rules, one row each: tau along every terminal path.

    Rules are built bottom-up.  A node's rules are "stop here" (not at the
    root) followed by every combination of its children's rules, the first
    child varying slowest; a node's leaves are a contiguous range, so a
    combination is a concatenation of the children's rows.

    Raises:
        CapExceededError: if the count (computed first, without enumerating)
            exceeds ``cap``.
    """
    n = count_stopping_times(lattice)
    if n > cap:
        raise CapExceededError(f"{n} stopping times exceed the cap of {cap}")
    T = lattice.horizon
    rules = [np.array([[T], [T + 1]], dtype=np.int64)] * lattice.n_nodes(T)
    for t in range(T - 1, -1, -1):
        off = lattice.child_offsets[t]
        level = []
        for j in range(lattice.n_nodes(t)):
            combos = np.empty((1, 0), dtype=np.int64)
            for child in rules[off[j] : off[j + 1]]:
                combos = np.hstack(
                    [np.repeat(combos, len(child), axis=0), np.tile(child, (len(combos), 1))]
                )
            if t > 0:
                combos = np.vstack([np.full((1, combos.shape[1]), t), combos])
            level.append(combos)
        rules = level
    assert len(rules[0]) == n
    return rules[0]


def enumerate_selections(
    lattice: ScenarioLattice, grid: Sequence[Any], cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Every adapted parameter selection over the grid (rectangular hull).

    One independent grid index per decision state, i.e. per time-``t - 1``
    node for each period ``t``; states are ordered by period, then node.
    Row ``code`` holds the base-``len(grid)`` digits of ``code``, least
    significant first.
    """
    if len(grid) == 0:
        raise ValidationError("parameter grid must be nonempty")
    T = lattice.horizon
    n_states = sum(lattice.n_nodes(t - 1) for t in range(1, T + 1))
    k = len(grid)
    n = k**n_states
    if n > cap:
        raise CapExceededError(f"{n} measure selections exceed the cap of {cap}")
    return (np.arange(n)[:, None] // k ** np.arange(n_states)) % k


def selection_densities(
    lattice: ScenarioLattice,
    family: DensityFamily,
    grid: Sequence[Any],
    codes: np.ndarray,
) -> np.ndarray:
    """``D_T`` of every selection in ``codes`` (rows as from :func:`enumerate_selections`).

    The density process of each grid point is built and validated once; a
    selection's factor at a node is the factor of the grid point chosen at
    its parent, so every level is one gather from the grid's factor table.
    """
    per_theta = [density_process(family, theta, lattice) for theta in grid]
    d = np.ones((len(codes), 1))
    start = 0
    for t in range(1, lattice.horizon + 1):
        table = np.stack([p.ratio(t) for p in per_theta])  # (grid, n_t)
        stop = start + lattice.n_nodes(t - 1)
        rows = codes[:, start:stop][:, lattice.parents[t]]
        d = d[:, lattice.parents[t]] * table[rows, np.arange(lattice.n_nodes(t))]
        start = stop
    return d


@dataclass
class OracleResult:
    sup_inf: float
    inf_sup: float
    envelope: float  # one-step Snell recursion on the same payoff, for cross-check
    best_tau: np.ndarray  # tau along every terminal path
    worst_selection: np.ndarray  # grid index per decision state
    n_stopping_times: int
    n_selections: int
    payoff_table: np.ndarray  # (n_selections, n_stopping_times)


def snell_recursion(
    lattice: ScenarioLattice,
    family: DensityFamily,
    grid: Sequence[Any],
    h_by_level: List[np.ndarray],
) -> float:
    """Multiple-prior Snell envelope by one-step backward induction.

    ``h_by_level[tau]`` holds the payoff of stopping at ``tau`` on level
    ``tau - 1`` (``tau`` = 1..T+1; entry 0 is the zero payoff of stopping
    immediately).  The decision to stop at ``t`` uses time-``t`` information,
    so the envelope lives on level ``t``:
    ``U_t = max(H_t, inf_theta E_t[f_{t+1}(theta) U_{t+1}])`` with
    ``U_T = max(H_T, H_{T+1})``.  Returns the root value.
    """
    T = lattice.horizon
    u = np.maximum(h_by_level[T][lattice.parents[T]], h_by_level[T + 1])
    for t in range(T - 1, -1, -1):
        # Whole levels, one grid point at a time, with the normalised factors
        # ``E_t[f u]``: this is the reference that the ``envelope``
        # cross-check holds the blocked, self-normalised
        # ``valuation.worst_case_cond_exp`` (``E_t[w u] / E_t[w]``) against.
        cont = None
        for theta in grid:
            f = np.asarray(family.factors(t + 1, theta), dtype=np.float64)
            e = lattice.cond_sum(t, lattice.probs[t + 1] * f * u)
            cont = e if cont is None else np.minimum(cont, e)
        h_here = h_by_level[t][lattice.parents[t]] if t > 0 else np.zeros(1)
        u = np.maximum(h_here, cont)
    return float(u[0])


def snell_bruteforce(
    lattice: ScenarioLattice,
    family: DensityFamily,
    grid: Sequence[Any],
    r_levels: Dict[int, np.ndarray],
    x_levels: Dict[int, np.ndarray],
    cap: int = DEFAULT_CAP,
) -> OracleResult:
    """Exhaustive sup-inf of the expected owner's payoff at time 0.

    Args:
        r_levels: capital requirement per level ``t`` (0..T).
        x_levels: residual cash flow per level ``t`` (1..T).

    Returns the sup over stopping rules of the inf over adapted selections,
    the inf-sup, the extremal objects and the full (selection x rule) payoff
    matrix.  Expectations are evaluated as a single terminal-weight matrix
    product: each selection contributes the path weights
    ``P(path) D_T(path)`` and each rule the terminal payoff column
    ``H_tau(path)``.
    """
    T = lattice.horizon
    taus = enumerate_stopping_times(lattice, cap=cap)
    sels = enumerate_selections(lattice, grid, cap=cap)
    if len(taus) * len(sels) > cap:
        raise CapExceededError(
            f"{len(taus)} x {len(sels)} payoff evaluations exceed the cap of {cap}"
        )
    h = payoff_process(
        AdaptedProcess(name="R", values=r_levels),
        AdaptedProcess(name="X", values=x_levels),
        lattice,
    )
    # H_tau for tau = 0..T+1 on its own level (H_0 = 0 is stopping at once)
    # and lifted to level T: column tau is the payoff of stopping at tau
    # along each terminal path.
    by_level = [np.zeros(1)] + [h.at(tau) for tau in range(1, T + 2)]
    cols = [lattice.lift(v, max(tau - 1, 0), T) for tau, v in enumerate(by_level)]
    n_leaf = lattice.n_nodes(T)
    # G[leaf, i] = payoff of rule i along that terminal path
    stacked = np.stack(cols, axis=1)  # (n_leaf, T + 2)
    G = stacked[np.arange(n_leaf)[:, None], taus.T]
    M = lattice.path_probs(T) * selection_densities(lattice, family, grid, sels)
    table = M @ G  # (n_selections, n_rules)
    per_rule_inf = table.min(axis=0)
    best = int(np.argmax(per_rule_inf))
    per_sel_sup = table.max(axis=1)
    worst = int(np.argmin(per_sel_sup))
    return OracleResult(
        sup_inf=float(per_rule_inf[best]),
        inf_sup=float(per_sel_sup[worst]),
        envelope=snell_recursion(lattice, family, grid, by_level),
        best_tau=taus[best],
        worst_selection=sels[worst],
        n_stopping_times=len(taus),
        n_selections=len(sels),
        payoff_table=table,
    )


# ---------------------------------------------------------------------------
# random test problems
# ---------------------------------------------------------------------------

Instance = Tuple[ScenarioLattice, Dict[int, np.ndarray], ExponentialTiltFamily, List[float]]


def random_instance(
    rng: np.random.Generator,
    horizon: int,
    branching: int,
    grid: Sequence[float] = (-0.5, 0.0, 0.7),
) -> Instance:
    """``(lattice, cash flow, family, grid)`` for one random test problem.

    A tree of uniform shape with strictly positive random transition
    probabilities, a uniform cash flow in [-1, 1] at times 1..T and an
    exponential tilt of normal per-node scores.  Draws come from ``rng`` in
    that order.
    """
    transitions = []
    n_nodes = 1
    for _ in range(horizon):
        rows = []
        for _ in range(n_nodes):
            w = rng.uniform(0.1, 1.0, branching)
            rows.append(w / w.sum())
        transitions.append(rows)
        n_nodes *= branching
    lattice = build_lattice(transitions)
    payload = {t: rng.uniform(-1.0, 1.0, lattice.n_nodes(t)) for t in range(1, horizon + 1)}
    scores = [rng.normal(0.0, 1.0, lattice.n_nodes(t)) for t in range(horizon + 1)]
    return lattice, payload, ExponentialTiltFamily(lattice, scores), list(grid)


def random_suite(seed: int, n_instances: int) -> Iterator[Instance]:
    """Random problems small enough for exhaustive enumeration.

    The ``(horizon, branching)`` shapes cycle; the deepest one drops the grid
    midpoint to keep the selection count low.
    """
    rng = np.random.default_rng(seed)
    shapes = [(1, 3), (2, 2), (2, 3), (3, 2)]
    for trial in range(n_instances):
        shape = shapes[trial % len(shapes)]
        grid = (-0.5, 0.7) if shape == (3, 2) else (-0.5, 0.0, 0.7)
        yield random_instance(rng, *shape, grid=grid)
