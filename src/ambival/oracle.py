"""Brute-force enumeration oracle for the multiple-prior stopping problem.

Independently of the backward recursion, this module enumerates every adapted
stopping time and every adapted parameter selection on a small lattice and
evaluates the sup-inf (and inf-sup) of the expected owner's payoff directly.
The recursion is correct iff its time-0 surplus value matches the sup-inf to
machine precision; weak duality (sup-inf <= inf-sup) must hold as well.

Everything here favors transparency over speed and is meant for lattices with
at most a few thousand enumerable objects; hard caps reject anything larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, ValidationError
from .priors import DensityFamily, ExponentialTiltFamily, Selection, density_process
from .scenario import AdaptedProcess, ScenarioLattice, StoppingTime, build_lattice
from .valuation import payoff_process

DEFAULT_CAP = 10**6


@dataclass
class EnumeratedStoppingTime:
    """One adapted stopping rule, recorded by its value along every terminal path."""

    leaf_values: np.ndarray  # tau per time-T node, values in {t_start, ..., T + 1}

    def as_stopping_time(self, lattice: ScenarioLattice) -> StoppingTime:
        T = lattice.horizon
        leaves = np.arange(lattice.n_nodes(T))
        ancestors = [None] * (T + 1)
        ancestors[T] = leaves
        for t in range(T, 0, -1):
            ancestors[t - 1] = lattice.parents[t][ancestors[t]]
        stopped = []
        for t in range(T + 1):
            flags = np.zeros(lattice.n_nodes(t), dtype=bool)
            flags[ancestors[t]] = self.leaf_values <= t
            stopped.append(flags)
        return StoppingTime(lattice, stopped)


@dataclass
class MeasureSelection:
    """One adapted parameter selection: a grid index per decision state."""

    indices: Dict[int, List[int]]  # period t -> grid index per time-(t-1) node

    def as_selection(self, grid: Sequence[Any]) -> Selection:
        return {t: [grid[i] for i in idx] for t, idx in self.indices.items()}


def count_stopping_times(lattice: ScenarioLattice, t_start: int = 0, node: int = 0) -> int:
    """Number of adapted stopping times on the subtree rooted at ``(t_start, node)``.

    A rule may stop at any level from ``max(t_start, 1)`` through ``T`` or
    never (value ``T + 1``); below the horizon each node decides
    independently, so the count satisfies
    ``f(node) = 1 + prod_children f(child)`` with ``f = 2`` at the last
    level.  Stopping at time 0 is excluded: rules take values in 1..T+1.
    """
    T = lattice.horizon
    if not 0 <= t_start <= T:
        raise ValidationError(f"t_start {t_start} outside [0, {T}]")

    def f(t: int, j: int) -> int:
        if t == T:
            return 2
        total = 1
        for child in lattice.children(t, j):
            total *= f(t + 1, int(child))
        return 1 + total

    if t_start == 0:
        total = 1
        for child in lattice.children(0, node):
            total *= f(1, int(child))
        return total
    return f(t_start, node)


def enumerate_stopping_times(
    lattice: ScenarioLattice,
    t_start: int = 0,
    node: int = 0,
    cap: int = DEFAULT_CAP,
) -> List[EnumeratedStoppingTime]:
    """All adapted stopping rules on the subtree rooted at ``(t_start, node)``.

    Raises:
        CapExceededError: if the count (computed first, without enumerating)
            exceeds ``cap``.
    """
    n = count_stopping_times(lattice, t_start, node)
    if n > cap:
        raise CapExceededError(f"{n} stopping times exceed the cap of {cap}")
    T = lattice.horizon

    def leaves_under(t: int, j: int) -> np.ndarray:
        idx = np.array([j], dtype=np.int64)
        for s in range(t, T):
            idx = np.concatenate([lattice.children(s, int(i)) for i in idx])
        return idx

    def enum(t: int, j: int, can_stop: bool = True) -> List[np.ndarray]:
        """Per rule, tau along each terminal path below ``(t, j)`` (leaf order)."""
        my_leaves = leaves_under(t, j)
        rules = [np.full(len(my_leaves), t, dtype=np.int64)] if can_stop else []
        if t == T:
            rules.append(np.full(len(my_leaves), T + 1, dtype=np.int64))  # never
            return rules
        child_rules = [enum(t + 1, int(c)) for c in lattice.children(t, j)]
        combos = [np.empty(0, dtype=np.int64)]
        for per_child in child_rules:
            combos = [np.concatenate([c, r]) for c in combos for r in per_child]
        return rules + combos

    # Stopping at time 0 is excluded, so the root offers no "stop now" branch.
    out = [
        EnumeratedStoppingTime(leaf_values=vals)
        for vals in enum(t_start, node, can_stop=t_start > 0)
    ]
    assert len(out) == n
    return out


def enumerate_selections(
    lattice: ScenarioLattice, grid: Sequence[Any], cap: int = DEFAULT_CAP
) -> List[MeasureSelection]:
    """Every adapted parameter selection over the grid (rectangular hull).

    One independent grid choice per decision state, i.e. per time-``t - 1``
    node for each period ``t``.
    """
    if len(grid) == 0:
        raise ValidationError("parameter grid must be nonempty")
    T = lattice.horizon
    n_states = sum(lattice.n_nodes(t - 1) for t in range(1, T + 1))
    n = len(grid) ** n_states
    if n > cap:
        raise CapExceededError(f"{n} measure selections exceed the cap of {cap}")
    k = len(grid)
    out = []
    for code in range(n):
        rem = code
        indices: Dict[int, List[int]] = {}
        for t in range(1, T + 1):
            row = []
            for _ in range(lattice.n_nodes(t - 1)):
                row.append(rem % k)
                rem //= k
            indices[t] = row
        out.append(MeasureSelection(indices=indices))
    return out


@dataclass
class OracleResult:
    sup_inf: float
    inf_sup: float
    envelope: float  # one-step Snell recursion on the same payoff, for cross-check
    best_tau: EnumeratedStoppingTime
    worst_selection: MeasureSelection
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
    taus = enumerate_stopping_times(lattice, 0, 0, cap=cap)
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
    G = np.empty((n_leaf, len(taus)))
    stacked = np.stack(cols, axis=1)  # (n_leaf, T + 2)
    rows = np.arange(n_leaf)
    for i, tau in enumerate(taus):
        G[:, i] = stacked[rows, tau.leaf_values]
    base = lattice.path_probs(T)
    M = np.empty((len(sels), n_leaf))
    for s, sel in enumerate(sels):
        d = density_process(family, sel.as_selection(grid), lattice)
        M[s] = base * d.values[T]
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
