"""Brute-force enumeration oracle and its agreement with the recursion."""

import numpy as np
import pytest
from hypothesis import given, settings

from ambival.errors import CapExceededError, ValidationError
from ambival.oracle import (
    count_stopping_times,
    enumerate_selections,
    enumerate_stopping_times,
    random_suite,
    selection_densities,
    snell_bruteforce,
)
from ambival.priors import ExponentialTiltFamily, density_process
from ambival.riskmeasures import AVAR, VAR, RiskMeasureSpec
from ambival.scenario import AdaptedProcess, StoppingTime, build_lattice
from ambival.valuation import CashFlowSpec, value_multiprior
from conftest import level_choice, make_instance, ragged_selections


def chain_lattice(horizon):
    """Deterministic single-branch tree."""
    return build_lattice([[[1.0]] for _ in range(horizon)])


def as_stopping_time(lattice, leaf_values):
    """The stopping time with ``tau <= t`` at a level-``t`` node iff at its leaves.

    Fails if the leaves below one node disagree, i.e. if the rule is not
    adapted.
    """
    T = lattice.horizon
    node = np.arange(lattice.n_nodes(T))  # level-t ancestor of each leaf
    stopped = [None] * (T + 1)
    for t in range(T, -1, -1):
        stopped[t] = np.zeros(lattice.n_nodes(t), dtype=bool)
        stopped[t][node] = leaf_values <= t
        np.testing.assert_array_equal(stopped[t][node], leaf_values <= t)
        node = lattice.parents[t][node] if t > 0 else node
    return StoppingTime(lattice, stopped)


class TestCounts:
    def test_deterministic_trees(self):
        # on a chain the rule is just a deterministic time in 1..T+1
        assert count_stopping_times(chain_lattice(1)) == 2
        assert count_stopping_times(chain_lattice(2)) == 3
        assert count_stopping_times(chain_lattice(5)) == 6

    def test_binomial_counts(self, binomial_lattice):
        # each time-1 node stops at 1 or decides per child in {2, 3}: 1 + 2 * 2;
        # the root cannot stop, so its two subtrees choose independently
        assert count_stopping_times(binomial_lattice) == 25

    def test_counts_match_enumeration(self, rng):
        for shape in [(1, 3), (2, 2), (3, 2)]:
            lattice, _, _, _ = make_instance(rng, *shape)
            taus = enumerate_stopping_times(lattice)
            assert len(taus) == count_stopping_times(lattice)
            # all rules distinct
            seen = {tuple(tau) for tau in taus}
            assert len(seen) == len(taus)

    def test_selection_count(self, binomial_lattice):
        sels = enumerate_selections(binomial_lattice, [0.0, 1.0])
        assert sels.shape == (2 ** (1 + 2), 1 + 2)
        assert len({tuple(s) for s in sels}) == len(sels)

    def test_caps_fail_loudly(self, binomial_lattice):
        with pytest.raises(CapExceededError, match="cap"):
            enumerate_stopping_times(binomial_lattice, cap=10)
        with pytest.raises(CapExceededError, match="cap"):
            enumerate_selections(binomial_lattice, [0.0, 1.0], cap=5)


class TestEnumeratedObjects:
    def test_rules_are_valid_stopping_times(self, rng):
        lattice, _, _, _ = make_instance(rng, 2, 2)
        for tau in enumerate_stopping_times(lattice):
            st = as_stopping_time(lattice, tau)  # validates adaptedness
            np.testing.assert_array_equal(st.value_at_leaves(), tau)

    def test_selection_round_trip(self, binomial_lattice):
        grid = [10.0, 20.0]
        sels = enumerate_selections(binomial_lattice, grid)
        # selection 5 = 1 + 0 * 2 + 1 * 4: digits per state, least significant first
        np.testing.assert_array_equal(sels[5], [1, 0, 1])
        choice = level_choice(binomial_lattice, sels[5])
        assert {t: c.tolist() for t, c in choice.items()} == {0: [1], 1: [0, 1]}
        # density_process reads the row in the same layout: level, then node
        family = ExponentialTiltFamily(binomial_lattice, [0.0, [0.1, -0.1], [0.1, -0.1, 0.2, 0.0]])
        d = density_process(family, grid, {0: [1], 1: [0, 1]}, binomial_lattice)
        batch = selection_densities(binomial_lattice, family, grid, sels[5:6])
        assert batch[0].tobytes() == d.values[2].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(ragged_selections())
    def test_batch_densities_match_density_process(self, problem):
        lattice, family, grid, codes = problem
        batch = selection_densities(lattice, family, grid, codes)
        for code, row in zip(codes, batch):
            d = density_process(family, grid, level_choice(lattice, code), lattice)
            assert row.tobytes() == d.values[lattice.horizon].tobytes()


class TestBruteForce:
    def payoff_inputs(self, rng, lattice, payload, family, grid, rm):
        cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=payload))
        out = value_multiprior(cf, rm, family, grid, lattice)
        return cf, out

    def test_matches_recursion_on_random_trees(self, rng):
        worst = 0.0
        for trial in range(40):
            shape = [(1, 3), (2, 2), (2, 3), (3, 2)][trial % 4]
            grid_vals = [-0.5, 0.7] if shape == (3, 2) else [-0.5, 0.0, 0.7]
            lattice, payload, family, grid = make_instance(rng, *shape, grid=grid_vals)
            rm = RiskMeasureSpec(AVAR if trial % 2 else VAR, 0.1)
            cf, out = self.payoff_inputs(rng, lattice, payload, family, grid, rm)
            res = snell_bruteforce(lattice, family, grid, out.R, payload)
            worst = max(
                worst,
                abs(res.sup_inf - out.c0),
                abs(res.inf_sup - out.c0),
                abs(res.envelope - out.c0),
            )
        assert worst < 1e-12

    def test_weak_duality(self, rng):
        for trial in range(10):
            lattice, payload, family, grid = make_instance(rng, 2, 2)
            rm = RiskMeasureSpec(VAR, 0.2)
            cf, out = self.payoff_inputs(rng, lattice, payload, family, grid, rm)
            res = snell_bruteforce(lattice, family, grid, out.R, payload)
            assert res.sup_inf <= res.inf_sup + 1e-12

    def test_single_prior_reduces_to_classical_snell(self, rng):
        lattice, payload, family, _ = make_instance(rng, 2, 3)
        rm = RiskMeasureSpec(VAR, 0.1)
        cf, out = self.payoff_inputs(rng, lattice, payload, family, [0.4], rm)
        res = snell_bruteforce(lattice, family, [0.4], out.R, payload)
        assert res.n_selections == 1
        assert abs(res.sup_inf - res.inf_sup) < 1e-15
        assert abs(res.sup_inf - out.c0) < 1e-12

    def test_increasing_payoff_waits_until_the_end(self, rng):
        # X = -1 each period with zero capital makes H_t = t - 1, so never stop
        lattice = chain_lattice(3)
        payload = {t: np.array([-1.0]) for t in (1, 2, 3)}
        _, _, family, grid = make_instance(rng, 3, 1, grid=[0.0])
        r_levels = {t: np.zeros(1) for t in range(4)}
        res = snell_bruteforce(lattice, family, grid, r_levels, payload)
        assert abs(res.sup_inf - 3.0) < 1e-15
        np.testing.assert_array_equal(res.best_tau, [4])

    def test_grid_relabeling_invariance(self, rng):
        lattice, payload, family, grid = make_instance(rng, 2, 2)
        rm = RiskMeasureSpec(VAR, 0.1)
        cf, out = self.payoff_inputs(rng, lattice, payload, family, grid, rm)
        a = snell_bruteforce(lattice, family, grid, out.R, payload)
        b = snell_bruteforce(lattice, family, grid[::-1], out.R, payload)
        assert abs(a.sup_inf - b.sup_inf) < 1e-15

    def test_payoff_table_shape(self, rng):
        lattice, payload, family, grid = make_instance(rng, 1, 3)
        rm = RiskMeasureSpec(VAR, 0.1)
        cf, out = self.payoff_inputs(rng, lattice, payload, family, grid, rm)
        res = snell_bruteforce(lattice, family, grid, out.R, payload)
        assert res.payoff_table.shape == (res.n_selections, res.n_stopping_times)
        np.testing.assert_allclose(
            res.payoff_table.min(axis=0).max(), res.sup_inf, atol=1e-15
        )


class TestRandomInstance:
    def test_suite_rejects_a_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
            next(random_suite(-1, 2))

    @pytest.mark.parametrize("horizon, branching", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_a_level_drawn_as_one_matrix_is_the_per_row_stream(self, horizon, branching):
        # row after row of a (nodes, branching) draw, and the same draws after it
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        lattice, payload, family, _ = make_instance(ours, horizon, branching)
        for t in range(1, horizon + 1):
            rows = [ref.uniform(0.1, 1.0, branching) for _ in range(lattice.n_nodes(t - 1))]
            expected = np.concatenate([w / w.sum() for w in rows])
            assert lattice.probs[t].tobytes() == expected.tobytes()
        for t in range(1, horizon + 1):
            assert payload[t].tobytes() == ref.uniform(-1.0, 1.0, lattice.n_nodes(t)).tobytes()
        for t in range(horizon + 1):
            assert family.scores[t].tobytes() == ref.normal(0.0, 1.0, lattice.n_nodes(t)).tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
