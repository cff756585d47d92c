"""Lattice, adapted processes, stopping times and seeded innovations."""

import numpy as np
import pytest

from ambival.errors import ValidationError
from ambival.scenario import (
    AdaptedProcess,
    InnovationSpec,
    ScenarioLattice,
    StoppingTime,
    assert_adapted,
    build_lattice,
    cond_expectation,
    simulate_paths,
    substream,
)
from conftest import make_lattice


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

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValidationError, match="non-positive"):
            build_lattice([[[1.0, 0.0]]])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValidationError, match="rows"):
            build_lattice([[[0.5, 0.5]], [[1.0]]])

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


class TestCondExpectation:
    def test_matches_hand_value(self, binomial_lattice):
        vals = np.array([4.0, 0.0, 2.0, -2.0])
        out = cond_expectation(binomial_lattice, vals, 1)
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_tower_property(self, rng):
        lat = make_lattice(rng, 2, 3)
        vals = rng.normal(size=lat.n_nodes(2))
        once = cond_expectation(lat, cond_expectation(lat, vals, 1), 0)
        direct = float(np.dot(lat.path_probs(2), vals))
        assert abs(once[0] - direct) < 1e-12

    def test_reweighted_expectation(self, binomial_lattice):
        vals = np.array([1.0, 0.0])
        w = np.array([1.5, 0.5])
        out = cond_expectation(binomial_lattice, vals, 0, weights=w)
        assert abs(out[0] - 0.75) < 1e-15

    def test_rejects_bad_weight_mean(self, binomial_lattice):
        with pytest.raises(ValidationError, match="conditional mean"):
            cond_expectation(
                binomial_lattice, np.zeros(2), 0, weights=np.array([1.5, 0.6])
            )

    def test_rejects_nonpositive_weights(self, binomial_lattice):
        with pytest.raises(ValidationError, match="positive"):
            cond_expectation(
                binomial_lattice, np.zeros(2), 0, weights=np.array([2.0, 0.0])
            )


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
        assert never.max_value() == 3

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
        spec = InnovationSpec(("a", "b"))
        s1 = simulate_paths(spec, 500, seed=7)
        s2 = simulate_paths(spec, 500, seed=7)
        np.testing.assert_array_equal(s1.draws, s2.draws)
        s3 = simulate_paths(spec, 500, seed=8)
        assert not np.array_equal(s1.draws, s3.draws)

    def test_prefix_stable_under_larger_n(self):
        spec = InnovationSpec(("a",))
        small = simulate_paths(spec, 70_000, seed=0)
        big = simulate_paths(spec, 80_000, seed=0)
        np.testing.assert_array_equal(small.draws, big.draws[:70_000])

    def test_columns_independent_of_order(self):
        a_only = simulate_paths(InnovationSpec(("a",)), 100, seed=0)
        ab = simulate_paths(InnovationSpec(("a", "b")), 100, seed=0)
        np.testing.assert_array_equal(a_only.column("a"), ab.column("a"))

    def test_substream_reproducible(self):
        x = substream(3, 1, 2).standard_normal(5)
        y = substream(3, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(x, y)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValidationError):
            InnovationSpec(("a", "a"))
        with pytest.raises(ValidationError):
            InnovationSpec(())

