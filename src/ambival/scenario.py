"""Filtered discrete-time scenarios: the lattice engine and seeded innovations.

* :class:`ScenarioLattice` -- an exact finite tree with one node per state,
  strictly positive one-step transition probabilities and exact conditional
  expectations.  Used by the backward recursion and the brute-force oracle.
* :func:`simulate_paths` -- a seeded Monte Carlo matrix of iid standard
  normal innovations.  Used by the Gaussian case study, whose interior
  conditional layers are available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ValidationError

_PROB_TOL = 1e-12
_BLOCK = 1 << 16  # children per block of a lattice level; atoms per matrix in apply_discrete
_DRAW_BLOCK = 1 << 16  # draws per substream in simulate_paths; fixed, as it decides the draws


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevelBlock:
    """Whole sibling groups of one level: parents ``nodes`` at level ``t`` and
    their children ``children`` at level ``t + 1``.

    ``starts`` holds the first child of each parent, counted from the
    block's first child.
    """

    nodes: slice
    children: slice
    starts: np.ndarray


@dataclass
class ScenarioLattice:
    """Finite filtered tree.

    Nodes at each time level are stored in parent order: the children of
    parent ``j`` at level ``t`` occupy the contiguous index range
    ``child_offsets[t][j]:child_offsets[t][j+1]`` at level ``t + 1``.
    Construction rejects a node without children and transition
    probabilities that are not finite, not strictly positive or do not sum
    to 1 within 1e-12 over each node's children; a NaN or an infinity fails.

    Attributes:
        horizon: number of periods ``T``.
        parents: per level ``t``, integer array mapping node -> parent index
            at level ``t - 1`` (``parents[0] == [-1]``).
        probs: per level ``t``, one-step transition probability of each node
            conditional on its parent (``probs[0] == [1.0]``).
        child_offsets: per level ``t < T``, the child index ranges, derived
            from ``parents`` and checked on construction.
        blocks: per level ``t < T``, consecutive blocks of whole sibling
            groups with at most ``_BLOCK`` children in all, derived from
            ``child_offsets``.  A parent with more children than that is a
            block on its own.  A level with at most ``_BLOCK`` children is
            one block, the whole level, given as ``(None,)``: a ``None``
            block means the whole level to every function that takes one.
        widths: per level ``t < T``, the number of children of every
            level-``t`` node when they all have the same number, else 0;
            derived from ``child_offsets``.  The worst-case expectation runs
            a large level of nonzero width as the rows of a
            ``(parents, width)`` matrix and a small or ragged level through
            :meth:`cond_sum`.
    """

    horizon: int
    parents: List[np.ndarray]
    probs: List[np.ndarray]
    child_offsets: List[np.ndarray] = field(init=False)
    blocks: List[Sequence[Optional[LevelBlock]]] = field(init=False)
    widths: List[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValidationError("lattice horizon must be at least 1")
        if len(self.parents) != self.horizon + 1 or len(self.probs) != self.horizon + 1:
            raise ValidationError("parents/probs must have one entry per level 0..T")
        if len(self.parents[0]) != 1:
            raise ValidationError("lattice must have exactly one root at t=0")
        self.parents = [np.asarray(p, dtype=np.int64) for p in self.parents]
        self.probs = [np.asarray(p, dtype=np.float64) for p in self.probs]
        self.child_offsets = self._build_child_offsets()
        self.blocks = [_cut_blocks(off) for off in self.child_offsets]
        self.widths = [_width(off) for off in self.child_offsets]
        self._validate()

    def _build_child_offsets(self) -> List[np.ndarray]:
        offsets = []
        for t in range(self.horizon):
            counts = np.bincount(self.parents[t + 1], minlength=self.n_nodes(t))
            _require_children(counts, t)
            par = self.parents[t + 1]
            if np.any(par[1:] < par[:-1]):  # a boolean temporary, not an int64 diff
                raise ValidationError("child nodes must be stored in parent order")
            offsets.append(np.concatenate(([0], np.cumsum(counts))))
        return offsets

    def _validate(self) -> None:
        for t in range(1, self.horizon + 1):
            p = self.probs[t]
            if not np.all(p > 0.0):  # so that a NaN fails too
                bad = int(np.argmax(~(p > 0.0)))
                raise ValidationError(
                    f"non-positive transition probability at level {t}, node {bad}"
                )
            sums = self.cond_sum(t - 1, p)
            off = np.abs(sums - 1.0)
            if not np.all(off <= _PROB_TOL):
                bad = int(np.argmax(off))
                raise ValidationError(
                    f"probabilities sum to {sums[bad]:.12g} for node {bad} "
                    f"at level {t - 1}"
                )

    def n_nodes(self, t: int) -> int:
        return len(self.parents[t])

    @property
    def n_total(self) -> int:
        return sum(self.n_nodes(t) for t in range(self.horizon + 1))

    def children(self, t: int, node: int) -> np.ndarray:
        """Indices at level ``t + 1`` of the children of ``node`` at level ``t``."""
        off = self.child_offsets[t]
        return np.arange(off[node], off[node + 1])

    def cond_sum(
        self, t: int, values_next: np.ndarray, block: Optional[LevelBlock] = None
    ) -> np.ndarray:
        """Sum of a level-``t + 1`` array over the children of each level-``t`` node.

        With a ``block`` of level ``t``, ``values_next`` holds the block's
        children only and the sums are those of the block's parents.
        """
        if block is None:
            starts, n = self.child_offsets[t][:-1], self.n_nodes(t + 1)
        else:
            starts, n = block.starts, block.children.stop - block.children.start
        if len(values_next) != n:
            raise ValidationError(f"{len(values_next)} values for {n} children at level {t + 1}")
        return np.add.reduceat(values_next, starts)

    def path_probs(self, t: int) -> np.ndarray:
        """Unconditional probability of each node at level ``t``."""
        out = np.ones(1)
        for s in range(1, t + 1):
            out = out[self.parents[s]] * self.probs[s]
        return out

    def lift(self, values: np.ndarray, from_t: int, to_t: int) -> np.ndarray:
        """Propagate a level-``from_t`` array down the tree to level ``to_t``."""
        out = np.asarray(values, dtype=np.float64)
        for s in range(from_t + 1, to_t + 1):
            out = out[self.parents[s]]
        return out


def _width(offsets: np.ndarray) -> int:
    """The common child count of a level's nodes, 0 if the counts differ."""
    counts = np.diff(offsets)
    return int(counts[0]) if np.all(counts == counts[0]) else 0


def _cut_blocks(offsets: np.ndarray) -> Sequence[Optional[LevelBlock]]:
    """Greedy cut of a level into :class:`LevelBlock`, given its child offsets;
    ``(None,)`` for a level that fits in one."""
    if offsets[-1] <= _BLOCK:
        return (None,)
    blocks = []
    first, n = 0, len(offsets) - 1
    while first < n:
        # the most parents from ``first`` on whose children fit in one block
        stop = int(np.searchsorted(offsets, offsets[first] + _BLOCK, side="right")) - 1
        stop = max(stop, first + 1)
        blocks.append(
            LevelBlock(
                nodes=slice(first, stop),
                children=slice(int(offsets[first]), int(offsets[stop])),
                starts=offsets[first:stop] - offsets[first],
            )
        )
        first = stop
    return blocks


def _require_children(counts: np.ndarray, level: int) -> None:
    if np.any(counts == 0):
        raise ValidationError(f"node without children at level {level}")


def build_lattice(transitions: Sequence[Sequence[Sequence[float]]]) -> ScenarioLattice:
    """Build a lattice from per-period transition rows.

    Args:
        transitions: ``transitions[t - 1]`` holds one probability row per
            time-``t - 1`` node, listing child probabilities at time ``t``.
            A period is a sequence of 1-D rows or, when every node has the
            same number of children, a 2-D array with one row per node.

    Raises:
        ValidationError: if ``transitions`` is not a sequence of periods,
            or a period is not a sequence of rows, has the wrong number of
            rows, or has an empty or non-1-D row;
            :class:`ScenarioLattice` rejects probabilities that are not
            finite, strictly positive and summing to 1 within 1e-12 per node.
    """
    try:
        horizon = len(transitions)
    except TypeError:
        raise ValidationError(
            "transitions must be a sequence of periods, "
            f"got {type(transitions).__name__}"
        ) from None
    if horizon < 1:
        raise ValidationError("need at least one period of transitions")
    parents: List[np.ndarray] = [np.array([-1])]
    probs: List[np.ndarray] = [np.array([1.0])]
    n_prev = 1
    for t, rows in enumerate(transitions, start=1):
        try:
            n_rows = len(rows)
        except TypeError:
            raise ValidationError(
                f"malformed probability rows at level {t - 1}: period {t} is not a sequence of rows"
            ) from None
        if n_rows != n_prev:
            raise ValidationError(f"period {t} needs {n_prev} probability rows, got {n_rows}")
        try:
            sizes = np.fromiter(map(len, rows), dtype=np.int64, count=n_prev)
            prb = np.concatenate(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed probability rows at level {t - 1}: {exc}") from None
        if prb.ndim != 1:
            raise ValidationError(f"probability rows at level {t - 1} must be 1-D")
        _require_children(sizes, t - 1)
        parents.append(np.repeat(np.arange(n_prev, dtype=np.int64), sizes))
        probs.append(prb)
        n_prev = len(prb)
    return ScenarioLattice(horizon=horizon, parents=parents, probs=probs)


# ---------------------------------------------------------------------------
# adapted processes
# ---------------------------------------------------------------------------


@dataclass
class AdaptedProcess:
    """Named process with one value array per time index.

    ``known_at[t]`` is the time from which the value indexed ``t`` is known;
    on a lattice it is the node level carrying ``values[t]``.  A predictable
    process such as the owner's payoff has ``known_at[t] == t - 1``.
    """

    name: str
    values: Dict[int, np.ndarray]
    known_at: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = {t: np.asarray(v, dtype=np.float64) for t, v in self.values.items()}
        for t in self.values:
            self.known_at.setdefault(t, t)

    def at(self, t: int) -> np.ndarray:
        return self.values[t]

    def times(self) -> List[int]:
        return sorted(self.values)


def assert_adapted(lattice: ScenarioLattice, proc: AdaptedProcess) -> None:
    """Check that each value array matches its measurability level on the lattice."""
    for t, vals in proc.values.items():
        level = proc.known_at[t]
        if level > t:
            raise ValidationError(f"{proc.name!r}: value at {t} claimed known only at {level}")
        if len(vals) != lattice.n_nodes(level):
            raise ValidationError(
                f"{proc.name!r}: {len(vals)} values at time {t}, "
                f"expected {lattice.n_nodes(level)} (level {level})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError(f"{proc.name!r}: non-finite value at time {t}")


# ---------------------------------------------------------------------------
# stopping times
# ---------------------------------------------------------------------------


@dataclass
class StoppingTime:
    """Adapted stopping time on a lattice, values in ``{0, ..., T + 1}``.

    Represented by per-level boolean arrays ``stopped_by[t][node] = (tau <= t)``;
    adaptedness is built into the representation and monotonicity along paths
    is validated.  ``T + 1`` (never stopped) encodes complete run-off.
    """

    lattice: ScenarioLattice
    stopped_by: List[np.ndarray]

    def __post_init__(self) -> None:
        lat = self.lattice
        if len(self.stopped_by) != lat.horizon + 1:
            raise ValidationError("stopped_by must cover levels 0..T")
        self.stopped_by = [np.asarray(s, dtype=bool) for s in self.stopped_by]
        for t, s in enumerate(self.stopped_by):
            if len(s) != lat.n_nodes(t):
                raise ValidationError(f"stopped_by[{t}] has wrong length")
        for t in range(1, lat.horizon + 1):
            inherited = self.stopped_by[t - 1][lat.parents[t]]
            if np.any(inherited & ~self.stopped_by[t]):
                raise ValidationError(f"stopping decision retracted at level {t}")

    @classmethod
    def constant(cls, lattice: ScenarioLattice, value: int) -> "StoppingTime":
        return cls(
            lattice,
            [np.full(lattice.n_nodes(t), t >= value) for t in range(lattice.horizon + 1)],
        )

    def value_at_leaves(self) -> np.ndarray:
        """tau along each terminal path (``T + 1`` when never stopped)."""
        lat = self.lattice
        out = np.full(lat.n_nodes(lat.horizon), lat.horizon + 1, dtype=np.int64)
        stopped = np.zeros(lat.n_nodes(lat.horizon), dtype=bool)
        idx = np.arange(lat.n_nodes(lat.horizon))
        ancestors = idx
        chain = [idx]
        for t in range(lat.horizon, 0, -1):
            ancestors = lat.parents[t][ancestors]
            chain.append(ancestors)
        chain.reverse()  # chain[t] = ancestor at level t per leaf
        for t in range(lat.horizon + 1):
            hit = self.stopped_by[t][chain[t]] & ~stopped
            out[hit] = t
            stopped |= hit
        return out


# ---------------------------------------------------------------------------
# path samples
# ---------------------------------------------------------------------------


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Counter-based generator for an independent, reproducible substream.

    Distinct non-negative seeds give distinct substreams; a negative seed is
    rejected.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *ids])))


def simulate_paths(n_columns: int, n: int, seed: int) -> np.ndarray:
    """An ``(n, n_columns)`` matrix of iid standard normal innovations.

    Deterministic in ``(n_columns, n, seed)``.  Each column uses its own
    counter-based substream, and each column is generated in fixed blocks with
    per-block substreams, so adding a column or changing the block schedule
    never perturbs existing draws.
    """
    if n_columns < 1:
        raise ValidationError("need at least one innovation column")
    if n < 1:
        raise ValidationError("path count must be at least 1")
    draws = np.empty((n, n_columns))
    for c in range(n_columns):
        for b, start in enumerate(range(0, n, _DRAW_BLOCK)):
            stop = min(start + _DRAW_BLOCK, n)
            draws[start:stop, c] = substream(seed, c, b).standard_normal(stop - start)
    return draws
