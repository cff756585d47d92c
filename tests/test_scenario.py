"""Lattice, adapted processes, stopping times and seeded innovations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambival.errors import ValidationError
from ambival.scenario import (
    AdaptedProcess,
    ScenarioLattice,
    StoppingTime,
    assert_adapted,
    build_lattice,
    simulate_paths,
    substream,
)
from conftest import make_lattice, reblocked


def one_period(row):
    """The one-period lattice of ``row`` through the lattice constructor."""
    return ScenarioLattice(horizon=1, parents=[[-1], [0] * len(row)], probs=[[1.0], row])


def per_row_reference(transitions):
    """``(parents, probs, child_offsets)`` per level, one row at a time."""
    parents, probs, offsets = [np.array([-1])], [np.array([1.0])], []
    for rows in transitions:
        parents.append(np.concatenate([np.full(len(r), j) for j, r in enumerate(rows)]))
        probs.append(np.concatenate([np.asarray(r, dtype=np.float64) for r in rows]))
        offsets.append(np.concatenate(([0], np.cumsum([len(r) for r in rows]))))
    return parents, probs, offsets


@st.composite
def transition_rows(draw):
    """Per-period rows of a tree of horizon 1-3, 1-4 children per node; a
    level drawn ``uniform`` gives every node the same number of children."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transitions, n_nodes = [], 1
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # uniform
            sizes = [draw(st.integers(1, 4))] * n_nodes
        else:
            sizes = draw(st.lists(st.integers(1, 4), min_size=n_nodes, max_size=n_nodes))
        rows = []
        for k in sizes:
            w = rng.uniform(0.1, 1.0, k)
            rows.append(w / w.sum())
        transitions.append(rows)
        n_nodes = sum(sizes)
    return transitions


class TestBuildLattice:
    def test_binomial_shape(self, binomial_lattice):
        lat = binomial_lattice
        assert lat.horizon == 2
        assert [lat.n_nodes(t) for t in range(3)] == [1, 2, 4]
        np.testing.assert_array_equal(lat.parents[2], [0, 0, 1, 1])
        np.testing.assert_array_equal(lat.children(1, 1), [2, 3])

    def test_path_probs_sum_to_one(self, rng):
        for shape in [(1, 3), (2, 2), (3, 2)]:
            lat = make_lattice(rng, *shape)
            for t in range(lat.horizon + 1):
                assert abs(lat.path_probs(t).sum() - 1.0) < 1e-12

    def test_lift_replicates_parent_values(self, binomial_lattice):
        lifted = binomial_lattice.lift(np.array([10.0, 20.0]), 1, 2)
        np.testing.assert_array_equal(lifted, [10.0, 10.0, 20.0, 20.0])

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ValidationError, match="sum to"):
            build_lattice([[[0.6, 0.5]]])
        # an infinite probability is positive but sums to inf, in either constructor
        for row in ([0.6, 0.5], [np.inf, 0.5]):
            with pytest.raises(ValidationError, match="sum to"):
                build_lattice([[row]])
            with pytest.raises(ValidationError, match="sum to"):
                one_period(row)

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValidationError, match="non-positive"):
            build_lattice([[[1.0, 0.0]]])
        # NaN compares false both ways: it must fail the positivity check
        for row in ([1.0, 0.0], [np.nan, 0.5], [np.nan, 1.0], [-np.inf, 1.0]):
            with pytest.raises(ValidationError, match="non-positive"):
                build_lattice([[row]])
            with pytest.raises(ValidationError, match="non-positive"):
                one_period(row)

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValidationError, match="rows"):
            build_lattice([[[0.5, 0.5]], [[1.0]]])

    @pytest.mark.parametrize(
        "transitions, message",
        [
            ([[0.5]], "probability rows at level 0"),  # a scalar row
            ([[[[0.5, 0.5]]]], "probability rows at level 0"),  # a 2-D row
            # rows of mixed dimension
            ([[[0.5, 0.5]], [[[0.5, 0.5]], [1.0]]], "probability rows at level 1"),
            ([[[0.5, 0.5]], [[1.0], [[1.0]]]], "probability rows at level 1"),
            ([np.full((1, 1, 2), 0.5)], "probability rows at level 0"),  # a 3-D period
            # a period that is not a sequence of rows
            ([0.5], "probability rows at level 0: period 1 is not a sequence of rows"),
            # transitions that are not a sequence of periods
            (0.5, "transitions must be a sequence of periods, got float"),
            (None, "transitions must be a sequence of periods, got NoneType"),
        ],
        ids=[
            "scalar-row", "2d-row", "mixed-2d-first", "mixed-1d-first", "3d-period",
            "scalar-period", "scalar-transitions", "none-transitions",
        ],
    )
    def test_rejects_malformed_rows(self, transitions, message):
        with pytest.raises(ValidationError, match=message):
            build_lattice(transitions)

    def test_rejects_an_empty_row(self):
        with pytest.raises(ValidationError, match="node without children at level 1"):
            build_lattice([[[0.5, 0.5]], [[1.0], []]])

    @pytest.mark.parametrize(
        "transitions",
        [
            [[[0.5, 0.5]], [[], []]],
            [[[0.5, 0.5]], [[], []], [[1.0]]],  # not reported as the next period's row count
        ],
        ids=["last-period", "period-followed"],
    )
    def test_rejects_a_level_of_empty_rows(self, transitions):
        with pytest.raises(ValidationError, match="node without children at level 1"):
            build_lattice(transitions)

    @settings(max_examples=100, deadline=None)
    @given(transition_rows())
    def test_matches_a_per_row_build(self, transitions):
        parents, probs, offsets = per_row_reference(transitions)
        # the same tree with each uniform level given as one 2-D array
        arrays = [np.array(rows) if len(set(map(len, rows))) == 1 else rows for rows in transitions]
        for form in (transitions, arrays):
            lat = build_lattice(form)
            for t in range(lat.horizon + 1):
                assert lat.parents[t].dtype == np.int64
                np.testing.assert_array_equal(lat.parents[t], parents[t])
                assert lat.probs[t].tobytes() == probs[t].tobytes()
            for t in range(lat.horizon):
                np.testing.assert_array_equal(lat.child_offsets[t], offsets[t])

    def test_cond_sum_adds_each_parents_children(self):
        lat = build_lattice([[[0.2, 0.3, 0.5]], [[0.5, 0.5], [1.0], [0.1, 0.9]]])
        np.testing.assert_array_equal(lat.cond_sum(1, np.arange(5.0)), [1.0, 2.0, 7.0])

    def test_child_offsets_are_always_derived(self, binomial_lattice):
        with pytest.raises(TypeError):
            ScenarioLattice(
                horizon=1, parents=[[-1], [0, 0]], probs=[[1.0], [0.5, 0.5]],
                child_offsets=[np.array([0, 1])],
            )
        np.testing.assert_array_equal(binomial_lattice.child_offsets[1], [0, 2, 4])


class TestBlocks:
    """Each level is cut once, greedily, into blocks of whole sibling groups."""

    # level 1 of this tree has sibling groups of 1, 2, 4, 1 and 1 children
    SIZES = (1, 2, 4, 1, 1)

    def tree(self):
        root = [np.full(len(self.SIZES), 1.0 / len(self.SIZES))]
        return build_lattice([root, [np.full(k, 1.0 / k) for k in self.SIZES]])

    def test_cut_of_a_level(self):
        lat = reblocked(self.tree(), 3)
        level = lat.blocks[1]
        # parents 0-1 fill 3 children; parent 2 has 4, more than the limit,
        # so it is a block on its own; parents 3-4 share the last one
        assert [(b.nodes.start, b.nodes.stop) for b in level] == [(0, 2), (2, 3), (3, 5)]
        assert [(b.children.start, b.children.stop) for b in level] == [(0, 3), (3, 7), (7, 9)]
        for b, starts in zip(level, ([0, 1], [0], [0, 1])):
            np.testing.assert_array_equal(b.starts, starts)
        # the root's five children exceed the limit: one oversized block
        (root,) = lat.blocks[0]
        assert root.nodes == slice(0, 1) and root.children == slice(0, 5)

    def test_a_level_within_the_limit_is_the_whole_level(self, rng):
        lat = make_lattice(rng, 3, 4)
        assert lat.blocks == [(None,)] * 3
        assert reblocked(self.tree(), 9).blocks == [(None,), (None,)]

    def test_widths(self, rng):
        # the common child count of a level's nodes, 0 where the counts differ
        assert make_lattice(rng, 3, 3).widths == [3, 3, 3]
        # a single parent (the root's 5 children), then the ragged level 1
        assert self.tree().widths == [5, 0]
        # every node with one child
        assert build_lattice([[[0.5, 0.5]], [[1.0], [1.0]]]).widths == [2, 1]

    # 16 leaves in groups of 4: one parent per block above the limit, else two
    @pytest.mark.parametrize("max_children, n_blocks", [(3, 4), (8, 2)])
    def test_recutting_a_uniform_level_keeps_its_width(self, rng, max_children, n_blocks):
        lat = make_lattice(rng, 2, 4)
        split = reblocked(lat, max_children)
        assert len(split.blocks[1]) == n_blocks
        assert split.widths == lat.widths == [4, 4]

    def test_cond_sum_by_block(self):
        lat = reblocked(self.tree(), 3)
        vals = np.arange(9.0)
        parts = [lat.cond_sum(1, vals[b.children], b) for b in lat.blocks[1]]
        np.testing.assert_array_equal(np.concatenate(parts), lat.cond_sum(1, vals))

    def test_cond_sum_rejects_another_length(self, rng):
        lat = make_lattice(rng, 2, 3)
        with pytest.raises(ValidationError, match="8 values for 9 children at level 2"):
            lat.cond_sum(1, np.ones(8))
        split = reblocked(self.tree(), 3)
        first = split.blocks[1][0]  # parents 0-1 and their 3 children
        with pytest.raises(ValidationError, match="2 values for 3 children at level 2"):
            split.cond_sum(1, np.ones(2), first)


class TestCondExpectation:
    """``E_t[Y]`` is ``cond_sum(t, probs[t + 1] * Y)``; reweighting multiplies in a factor."""

    @staticmethod
    def cond_exp(lat, vals, t, weights=1.0):
        return lat.cond_sum(t, lat.probs[t + 1] * weights * vals)

    def test_matches_hand_value(self, binomial_lattice):
        vals = np.array([4.0, 0.0, 2.0, -2.0])
        out = self.cond_exp(binomial_lattice, vals, 1)
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_tower_property(self, rng):
        lat = make_lattice(rng, 2, 3)
        vals = rng.normal(size=lat.n_nodes(2))
        once = self.cond_exp(lat, self.cond_exp(lat, vals, 1), 0)
        direct = float(np.dot(lat.path_probs(2), vals))
        assert abs(once[0] - direct) < 1e-12

    def test_reweighted_expectation(self, binomial_lattice):
        vals = np.array([1.0, 0.0])
        w = np.array([1.5, 0.5])
        out = self.cond_exp(binomial_lattice, vals, 0, weights=w)
        assert abs(out[0] - 0.75) < 1e-15


class TestAdaptedProcess:
    def test_assert_adapted_passes(self, binomial_lattice):
        proc = AdaptedProcess(name="Y", values={1: np.zeros(2), 2: np.zeros(4)})
        assert_adapted(binomial_lattice, proc)

    def test_predictable_process_checks_level(self, binomial_lattice):
        proc = AdaptedProcess(name="H", values={2: np.zeros(2)}, known_at={2: 1})
        assert_adapted(binomial_lattice, proc)

    def test_rejects_wrong_length(self, binomial_lattice):
        proc = AdaptedProcess(name="Y", values={2: np.zeros(3)})
        with pytest.raises(ValidationError, match="expected 4"):
            assert_adapted(binomial_lattice, proc)


class TestStoppingTime:
    def test_constant_values(self, binomial_lattice):
        tau = StoppingTime.constant(binomial_lattice, 1)
        np.testing.assert_array_equal(tau.value_at_leaves(), [1, 1, 1, 1])
        never = StoppingTime.constant(binomial_lattice, 3)
        np.testing.assert_array_equal(never.value_at_leaves(), [3, 3, 3, 3])
        assert never.value_at_leaves().max() == 3

    def test_state_dependent_rule(self, binomial_lattice):
        stopped = [
            np.array([False]),
            np.array([True, False]),
            np.array([True, True, False, True]),
        ]
        tau = StoppingTime(binomial_lattice, stopped)
        np.testing.assert_array_equal(tau.value_at_leaves(), [1, 1, 3, 2])

    def test_rejects_retracted_decision(self, binomial_lattice):
        stopped = [
            np.array([False]),
            np.array([True, False]),
            np.array([False, True, False, False]),
        ]
        with pytest.raises(ValidationError, match="retracted"):
            StoppingTime(binomial_lattice, stopped)


class TestPathSample:
    def test_deterministic_in_seed(self):
        s1 = simulate_paths(2, 500, seed=7)
        s2 = simulate_paths(2, 500, seed=7)
        assert s1.shape == (500, 2)
        np.testing.assert_array_equal(s1, s2)
        s3 = simulate_paths(2, 500, seed=8)
        assert not np.array_equal(s1, s3)

    def test_prefix_stable_under_larger_n(self):
        small = simulate_paths(1, 70_000, seed=0)
        big = simulate_paths(1, 80_000, seed=0)
        np.testing.assert_array_equal(small, big[:70_000])

    def test_columns_independent_of_order(self):
        # column c of a k-column draw is column c of any wider draw
        wide = simulate_paths(3, 100, seed=0)
        for k in (1, 2):
            np.testing.assert_array_equal(simulate_paths(k, 100, seed=0), wide[:, :k])

    def test_substream_reproducible(self):
        x = substream(3, 1, 2).standard_normal(5)
        y = substream(3, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(x, y)

    def test_seeds_are_never_aliased(self):
        # the draws of seeds in [0, 2^63) are those of the plain SeedSequence
        for seed in (0, 5, 2**63 - 1):
            ref = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1, 2])))
            np.testing.assert_array_equal(
                substream(seed, 1, 2).standard_normal(5), ref.standard_normal(5)
            )
        assert not np.array_equal(simulate_paths(2, 5, 2**63), simulate_paths(2, 5, 0))
        for seed in (-1, -(2**63)):
            with pytest.raises(ValidationError, match=f"seed must be non-negative, got {seed}"):
                substream(seed)
            with pytest.raises(ValidationError, match="non-negative"):
                simulate_paths(2, 5, seed)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValidationError, match="column"):
            simulate_paths(0, 10, seed=0)
        with pytest.raises(ValidationError, match="path count"):
            simulate_paths(1, 0, seed=0)
