"""Backward recursion, bounds, default times and diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambival.errors import NumericalError, ValidationError
from ambival.oracle import snell_bruteforce
from ambival.priors import ExponentialTiltFamily
from ambival.riskmeasures import AVAR, VAR, RiskMeasureSpec, apply_discrete
from ambival.scenario import AdaptedProcess, ScenarioLattice, build_lattice
from ambival.valuation import (
    CashFlowSpec,
    lower_bound,
    optimal_default_times,
    payoff_process,
    supermartingale_diagnostic,
    upper_bound,
    value_multiprior,
    value_singleprior,
    worst_case_cond_exp,
)
from conftest import make_instance, ragged_selections, reblocked


def make_cf(payload):
    return CashFlowSpec(liability=AdaptedProcess(name="L", values=payload))


def rectangular_upper(lattice, family, grid, cf):
    """Iterated worst-case expected total cash flow over the rectangular hull."""
    u = np.zeros(lattice.n_nodes(lattice.horizon))
    for t in range(lattice.horizon - 1, -1, -1):
        y = cf.x(t + 1) + u
        neg_u, _ = worst_case_cond_exp(lattice, family, grid, -y, t)
        u = -neg_u
    return float(u[0])


class TestCashFlowSpec:
    def test_residual_subtracts_replicating(self):
        liab = AdaptedProcess(name="L", values={1: np.array([3.0, 1.0])})
        repl = AdaptedProcess(name="A", values={1: np.array([1.0, 1.0])})
        cf = CashFlowSpec(liability=liab, replicating=repl)
        np.testing.assert_array_equal(cf.x(1), [2.0, 0.0])
        assert cf.horizon == 1

    def test_rejects_gaps(self):
        with pytest.raises(ValidationError, match="1..T"):
            CashFlowSpec(liability=AdaptedProcess(name="L", values={2: np.zeros(3)}))

    def test_rejects_horizon_mismatch(self):
        liab = AdaptedProcess(name="L", values={1: np.zeros(2), 2: np.zeros(4)})
        repl = AdaptedProcess(name="A", values={1: np.zeros(2)})
        with pytest.raises(ValidationError, match="mismatch"):
            CashFlowSpec(liability=liab, replicating=repl)


class TestPayoffProcess:
    def test_zero_inputs_give_zero_payoff(self, rng):
        lattice, _, _, _ = make_instance(rng, 2, 2)
        r = AdaptedProcess(name="R", values={t: np.zeros(lattice.n_nodes(t)) for t in range(3)})
        x = AdaptedProcess(name="X", values={t: np.zeros(lattice.n_nodes(t)) for t in (1, 2)})
        h = payoff_process(r, x, lattice)
        for t in (1, 2, 3):
            np.testing.assert_array_equal(h.at(t), 0.0)
            assert h.known_at[t] == t - 1

    def test_hand_example(self, binomial_lattice):
        r = AdaptedProcess(
            name="R",
            values={0: np.array([1.0]), 1: np.array([0.5, 0.5]), 2: np.zeros(4)},
        )
        x = AdaptedProcess(
            name="X", values={1: np.full(2, 0.2), 2: np.full(4, 0.1)}
        )
        h = payoff_process(r, x, binomial_lattice)
        np.testing.assert_array_equal(h.at(1), [0.0])
        np.testing.assert_allclose(h.at(2), [0.3, 0.3])
        np.testing.assert_allclose(h.at(3), [0.7, 0.7, 0.7, 0.7])

    def test_telescoping_without_cash_flows(self, rng):
        # with X = 0 the total released surplus is R_0 minus terminal R = R_0
        lattice, _, _, _ = make_instance(rng, 2, 3)
        rvals = {
            0: np.array([2.0]),
            1: rng.uniform(0.0, 1.0, 3),
            2: np.zeros(9),
        }
        r = AdaptedProcess(name="R", values=rvals)
        x = AdaptedProcess(name="X", values={1: np.zeros(3), 2: np.zeros(9)})
        h = payoff_process(r, x, lattice)
        np.testing.assert_allclose(h.at(3), 2.0)

    def test_rejects_nonzero_terminal_requirement(self, binomial_lattice):
        r = AdaptedProcess(name="R", values={t: np.ones(binomial_lattice.n_nodes(t)) for t in range(3)})
        x = AdaptedProcess(name="X", values={1: np.zeros(2), 2: np.zeros(4)})
        with pytest.raises(ValidationError, match="terminal"):
            payoff_process(r, x, binomial_lattice)


class TestWorstCase:
    def test_singleton_grid_is_plain_expectation(self, rng):
        lattice, _, family, _ = make_instance(rng, 2, 3)
        vals = rng.normal(size=9)
        w = family.factors(2, 0.4)
        expected = lattice.cond_sum(1, lattice.probs[2] * w * vals)
        got, arg = worst_case_cond_exp(lattice, family, [0.4], vals, 1)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        np.testing.assert_array_equal(arg, 0)

    def test_inf_below_sup(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        vals = rng.normal(size=4)
        lo, _ = worst_case_cond_exp(lattice, family, grid, vals, 1)
        neg_hi, _ = worst_case_cond_exp(lattice, family, grid, -vals, 1)
        assert np.all(lo <= -neg_hi + 1e-15)

    def test_constant_value_is_invariant(self, rng):
        lattice, _, family, grid = make_instance(rng, 1, 3)
        got, _ = worst_case_cond_exp(lattice, family, grid, np.full(3, 2.5), 0)
        np.testing.assert_allclose(got, 2.5, atol=1e-12)

    @pytest.mark.parametrize("max_children", [None, 4])
    def test_rejects_values_of_another_length(self, rng, max_children):
        lattice, _, family, grid = make_instance(rng, 2, 3)
        if max_children is not None:
            lattice = reblocked(lattice, max_children)
            family = ExponentialTiltFamily(lattice, family.scores)
            assert len(lattice.blocks[1]) == 3
        # one value is not broadcast over the level
        for n in (1, 8, 10):
            with pytest.raises(ValidationError, match=rf"level 2 have shape \({n},\), not \(9,\)"):
                worst_case_cond_exp(lattice, family, grid, np.full(n, 2.0), 1)

    def test_tie_breaks_to_lowest_index(self, rng):
        lattice, _, family, _ = make_instance(rng, 1, 2)
        _, arg = worst_case_cond_exp(lattice, family, [0.3, 0.3], np.ones(2), 0)
        np.testing.assert_array_equal(arg, 0)


class TestBlocks:
    """A level evaluated block by block gives the whole-level result bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(ragged_selections(), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_blocks_change_no_bit(self, problem, max_children, seed):
        lattice, family, grid, _ = problem
        split = reblocked(lattice, max_children)
        split_family = ExponentialTiltFamily(split, family.scores)
        rng = np.random.default_rng(seed)
        for t in range(lattice.horizon):
            blocks = split.blocks[t]
            vals = rng.normal(size=lattice.n_nodes(t + 1))
            # a None block is the whole level
            parts = [split.cond_sum(t, vals[b.children if b else slice(None)], b) for b in blocks]
            assert np.concatenate(parts).tobytes() == lattice.cond_sum(t, vals).tobytes()
            for theta in grid:
                parts = [split_family.factors(t + 1, theta, b) for b in blocks]
                assert np.concatenate(parts).tobytes() == family.factors(t + 1, theta).tobytes()
            whole = worst_case_cond_exp(lattice, family, grid, vals, t)
            by_block = worst_case_cond_exp(split, split_family, grid, vals, t)
            for a, b in zip(whole, by_block):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        payload = {
            t: rng.uniform(-1.0, 1.0, lattice.n_nodes(t)) for t in range(1, lattice.horizon + 1)
        }
        for kind in (VAR, AVAR):
            rm = RiskMeasureSpec(kind, 0.3)
            whole = value_multiprior(make_cf(payload), rm, family, grid, lattice)
            by_block = value_multiprior(make_cf(payload), rm, split_family, grid, split)
            for name in ("R", "C", "V", "theta_star"):
                for t, a in getattr(whole, name).items():
                    assert a.tobytes() == getattr(by_block, name)[t].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(ragged_selections(), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_matches_the_normalised_factor_form(self, problem, max_children, seed):
        # E_t[w v] / E_t[w] against E_t[f v] with the family's normalised factors
        lattice, family, grid, _ = problem
        split = reblocked(lattice, max_children)
        split_family = ExponentialTiltFamily(split, family.scores)
        rng = np.random.default_rng(seed)
        for t in range(lattice.horizon):
            vals = rng.normal(size=lattice.n_nodes(t + 1)) * 10.0 ** rng.integers(-2, 3)
            p = lattice.probs[t + 1]
            table = np.array([lattice.cond_sum(t, p * family.factors(t + 1, th) * vals) for th in grid])
            got, arg = worst_case_cond_exp(split, split_family, grid, vals, t)
            tol = 1e-14 * max(1.0, np.max(np.abs(vals)))
            np.testing.assert_allclose(got, table.min(axis=0), rtol=0.0, atol=tol)
            if len(grid) > 1:  # the argmin, wherever the two best differ by more than 1e-12
                clear = np.sort(table, axis=0)[1] - table.min(axis=0) > 1e-12
                np.testing.assert_array_equal(arg[clear], np.argmin(table, axis=0)[clear])

    def test_a_level_of_two_blocks_at_full_size(self):
        # 300 children per node: the 90,000 leaves make two blocks of 218 and 82 parents
        b = 300
        rng = np.random.default_rng(7)
        w = rng.uniform(0.1, 1.0, (b + 1, b))
        probs = w / w.sum(axis=1, keepdims=True)
        lattice = ScenarioLattice(
            horizon=2,
            parents=[[-1], np.zeros(b, dtype=np.int64), np.repeat(np.arange(b), b)],
            probs=[[1.0], probs[0], probs[1:].ravel()],
        )
        assert lattice.blocks[0] == (None,)
        assert [blk.nodes for blk in lattice.blocks[1]] == [slice(0, 218), slice(218, 300)]
        payload = {1: rng.uniform(-1.0, 1.0, b), 2: rng.uniform(-1.0, 1.0, b * b)}
        scores = [rng.normal(size=n) for n in (1, b, b * b)]
        grid = list(np.linspace(-1.0, 1.0, 5))
        family = ExponentialTiltFamily(lattice, scores)
        rm = RiskMeasureSpec(AVAR, 0.05)
        out = value_multiprior(make_cf(payload), rm, family, grid, lattice)
        # whole-level reference: each level a (parents, children) matrix, one pass per theta
        v = np.zeros(b * b)
        for t in (1, 0):
            p = lattice.probs[t + 1].reshape(-1, b)
            pos = np.maximum(out.R[t][lattice.parents[t + 1]] - payload[t + 1] - v, 0.0)
            table = []
            for theta in grid:
                raw = np.exp(theta * scores[t + 1]).reshape(-1, b)
                f = raw / (p * raw).sum(axis=1, keepdims=True)
                table.append((p * f * pos.reshape(-1, b)).sum(axis=1))
            c = np.min(table, axis=0)
            np.testing.assert_allclose(out.C[t], c, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(out.theta_star[t], np.argmin(table, axis=0))
            v = out.R[t] - c
            np.testing.assert_allclose(out.V[t], v, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("max_children", [None, 2])
    def test_non_finite_expectation_names_the_global_state(self, max_children):
        # the tilt of leaf 5, the second child of time-1 state 2, overflows at theta = 1
        lattice = build_lattice([[[0.2, 0.3, 0.5]], [[0.5, 0.5]] * 3])
        if max_children is not None:
            lattice = reblocked(lattice, max_children)
            assert lattice.blocks[1][-1].nodes == slice(2, 3)  # state 2 opens the last block
        scores = [np.zeros(1), np.zeros(3), np.array([0.0, 0.0, 0.0, 0.0, 0.0, 800.0])]
        family = ExponentialTiltFamily(lattice, scores)
        cf = make_cf({1: np.zeros(3), 2: np.ones(6)})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"at t=1, state 2, theta=1\.0"):
                value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), family, [0.0, 1.0], lattice)


class TestRecursion:
    def test_zero_cash_flow_values_to_zero(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        cf = make_cf({1: np.zeros(2), 2: np.zeros(4)})
        out = value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), family, grid, lattice)
        for t in range(3):
            np.testing.assert_allclose(out.R[t], 0.0, atol=1e-14)
            np.testing.assert_allclose(out.V[t], 0.0, atol=1e-14)

    def test_deterministic_total_is_priced_exactly(self, rng):
        # X_1 = Z, X_2 = 5 - Z: the total cash flow is riskless, so V_0 = 5
        lattice, _, family, grid = make_instance(rng, 2, 2)
        z = rng.uniform(-1.0, 1.0, 2)
        cf = make_cf({1: z, 2: 5.0 - z[lattice.parents[2]]})
        out = value_multiprior(cf, RiskMeasureSpec(VAR, 0.05), family, grid, lattice)
        assert abs(out.v0 - 5.0) < 1e-12
        assert abs(out.c0) < 1e-12

    def test_value_decomposition(self, rng):
        lattice, payload, family, grid = make_instance(rng, 2, 3)
        out = value_multiprior(make_cf(payload), RiskMeasureSpec(AVAR, 0.1), family, grid, lattice)
        for t in range(3):
            np.testing.assert_allclose(out.V[t], out.R[t] - out.C[t], atol=1e-14)
        assert np.all(out.C[0] >= -1e-14)  # deficit option value is nonnegative

    def test_r_is_the_conditional_risk_measure(self, rng):
        lattice, payload, family, grid = make_instance(rng, 2, 2)
        rm = RiskMeasureSpec(VAR, 0.2)
        out = value_multiprior(make_cf(payload), rm, family, grid, lattice)
        y1 = payload[1] + out.V[1]
        # rho of the time-1 position -(X_1 + V_1); the loss is the amount owed
        got = apply_discrete(rm, -y1, lattice.probs[1], [0, len(y1)])
        assert got.shape == (1,) and abs(out.r0 - got[0]) < 1e-14

    def test_singleprior_matches_singleton_grid(self, rng):
        lattice, payload, family, grid = make_instance(rng, 2, 2)
        rm = RiskMeasureSpec(VAR, 0.1)
        a = value_singleprior(make_cf(payload), rm, family, grid[1], lattice)
        b = value_multiprior(make_cf(payload), rm, family, [grid[1]], lattice)
        assert a.v0 == b.v0

    def test_singleprior_enforces_region(self, rng):
        from ambival.priors import point_region

        lattice, payload, family, _ = make_instance(rng, 1, 3)
        family.region = point_region(np.array([0.2]))
        with pytest.raises(ValidationError, match="region"):
            value_singleprior(make_cf(payload), RiskMeasureSpec(VAR, 0.1), family, 0.5, lattice)

    @pytest.mark.parametrize("bound", ["value_multiprior", "lower_bound"])
    def test_grid_outside_the_region_is_rejected(self, rng, bound):
        from ambival.priors import ellipsoid_region

        lattice, payload, family, _ = make_instance(rng, 1, 3)
        family.region = ellipsoid_region(np.zeros(1), np.eye(1), 0.5, 1)  # radius 0.67
        fn = {"value_multiprior": value_multiprior, "lower_bound": lower_bound}[bound]
        with pytest.raises(ValidationError, match="outside the parameter region"):
            fn(make_cf(payload), RiskMeasureSpec(VAR, 0.1), family, [0.0, 5.0], lattice)

    def test_sample_backend_without_layer_is_rejected(self, rng):
        # only a lattice carries the conditional layers the recursion needs
        lattice, payload, family, grid = make_instance(rng, 1, 3)
        with pytest.raises(ValidationError, match="needs a ScenarioLattice"):
            value_multiprior(
                make_cf(payload), RiskMeasureSpec(VAR, 0.1), family, grid, object()
            )

    def test_rejects_cash_flow_with_too_few_values(self, binomial_lattice):
        # one value at time 1 on a two-node level must not be broadcast
        cf = make_cf({1: np.array([0.3]), 2: np.array([0.5])})
        family = ExponentialTiltFamily(binomial_lattice, [np.zeros(n) for n in (1, 2, 4)])
        with pytest.raises(ValidationError, match="expected 2"):
            value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), family, [0.0], binomial_lattice)

    def test_rejects_cash_flow_with_too_many_values(self, binomial_lattice):
        cf = make_cf({1: np.zeros(3), 2: np.zeros(4)})
        family = ExponentialTiltFamily(binomial_lattice, [np.zeros(n) for n in (1, 2, 4)])
        with pytest.raises(ValidationError, match="expected 2"):
            value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), family, [0.0], binomial_lattice)

    def test_grid_enlargement_never_lowers_the_value(self, rng):
        for trial in range(10):
            lattice, payload, family, _ = make_instance(rng, 2, 2)
            rm = RiskMeasureSpec(VAR, 0.1)
            small = value_multiprior(make_cf(payload), rm, family, [-0.5, 0.7], lattice)
            big = value_multiprior(
                make_cf(payload), rm, family, [-0.5, 0.0, 0.3, 0.7], lattice
            )
            assert big.v0 >= small.v0 - 1e-12


class TestAxioms:
    def one_step_value(self, lattice, family, grid, rm, x1):
        cf = make_cf({1: x1})
        return value_multiprior(cf, rm, family, grid, lattice).v0

    def test_translation_monotonicity_normalization(self, rng):
        for trial in range(50):
            lattice, _, family, grid = make_instance(rng, 1, 3)
            rm = RiskMeasureSpec(AVAR if trial % 2 else VAR, 0.1 + 0.2 * (trial % 3))
            x1 = rng.uniform(-1.0, 1.0, 3)
            lam = rng.uniform(-2.0, 2.0)
            v = self.one_step_value(lattice, family, grid, rm, x1)
            v_shift = self.one_step_value(lattice, family, grid, rm, x1 + lam)
            assert abs(v_shift - (v + lam)) < 1e-10
            bump = rng.uniform(0.0, 1.0, 3)
            v_up = self.one_step_value(lattice, family, grid, rm, x1 + bump)
            assert v_up >= v - 1e-10
            assert abs(self.one_step_value(lattice, family, grid, rm, np.zeros(3))) < 1e-10

    def test_prudence_orderings(self, rng):
        for trial in range(10):
            lattice, payload, family, grid = make_instance(rng, 2, 2)
            cf = make_cf(payload)
            v_strict = value_multiprior(cf, RiskMeasureSpec(VAR, 0.05), family, grid, lattice).v0
            v_loose = value_multiprior(cf, RiskMeasureSpec(VAR, 0.2), family, grid, lattice).v0
            assert v_strict >= v_loose - 1e-12
            v_var = value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), family, grid, lattice).v0
            v_avar = value_multiprior(cf, RiskMeasureSpec(AVAR, 0.1), family, grid, lattice).v0
            assert v_avar >= v_var - 1e-12


class TestBounds:
    def test_sandwich_on_random_lattices(self, rng):
        for trial in range(20):
            lattice, payload, family, grid = make_instance(rng, 2, 2)
            cf = make_cf(payload)
            rm = RiskMeasureSpec(VAR, 0.1)
            out = value_multiprior(cf, rm, family, grid, lattice)
            lo, arg = lower_bound(cf, rm, family, grid, lattice)
            hi = rectangular_upper(lattice, family, grid, cf)
            assert lo <= out.v0 + 1e-12
            assert out.v0 <= hi + 1e-12
            assert arg in grid

    def test_upper_bound_constant_priors(self, rng):
        lattice, payload, family, grid = make_instance(rng, 2, 3)
        cf = make_cf(payload)
        hi_const = upper_bound(cf, family, grid, lattice)
        hi_rect = rectangular_upper(lattice, family, grid, cf)
        assert hi_const <= hi_rect + 1e-12


class TestDefaultTimes:
    def test_no_risk_means_no_default(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        cf = make_cf({1: np.zeros(2), 2: np.zeros(4)})
        out = value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), family, grid, lattice)
        tau = optimal_default_times(out, cf, lattice)[0]
        np.testing.assert_array_equal(tau.value_at_leaves(), 3)

    def test_default_rule_achieves_the_oracle_value(self, rng):
        for trial in range(20):
            lattice, payload, family, grid = make_instance(rng, 2, 2)
            cf = make_cf(payload)
            rm = RiskMeasureSpec(AVAR if trial % 2 else VAR, 0.15)
            out = value_multiprior(cf, rm, family, grid, lattice)
            tau = optimal_default_times(out, cf, lattice)[0]
            res = snell_bruteforce(lattice, family, grid, out.R, payload)
            leaf = tau.value_at_leaves()
            # locate the enumerated rule equal to the recursion's default time
            from ambival.oracle import enumerate_stopping_times

            (col,) = np.nonzero((enumerate_stopping_times(lattice) == leaf).all(axis=1))[0]
            worst_for_tau = res.payoff_table[:, col].min()
            assert abs(worst_for_tau - out.c0) < 1e-12


class TestDiagnostics:
    def test_supermartingale_margins_zero_without_cash_flows(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        cf = make_cf({1: np.zeros(2), 2: np.zeros(4)})
        out = value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), family, grid, lattice)
        report = supermartingale_diagnostic(out, cf, lattice)
        assert report.ok
        for t in (0, 1):
            np.testing.assert_allclose(report.step_margins[t], 0.0, atol=1e-12)
            np.testing.assert_allclose(report.risk_margins[t], 0.0, atol=1e-12)

    def test_margins_are_reported_not_raised(self, rng):
        lattice, payload, family, grid = make_instance(rng, 2, 3)
        cf = make_cf(payload)
        out = value_multiprior(cf, RiskMeasureSpec(VAR, 0.4), family, grid, lattice)
        report = supermartingale_diagnostic(out, cf, lattice)  # must not raise
        assert set(report.step_margins) == {0, 1}
