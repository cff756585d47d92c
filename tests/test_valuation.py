"""Backward recursion, bounds, default times and diagnostics."""

import numpy as np
import pytest

from ambival.errors import ValidationError
from ambival.oracle import snell_bruteforce
from ambival.priors import ExponentialTiltFamily
from ambival.riskmeasures import AVAR, VAR, RiskMeasureSpec, apply_discrete
from ambival.scenario import AdaptedProcess, build_lattice, cond_expectation
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
from conftest import make_instance


def make_cf(payload):
    return CashFlowSpec(liability=AdaptedProcess(name="L", values=payload))


def rectangular_upper(lattice, family, grid, cf):
    """Iterated worst-case expected total cash flow over the rectangular hull."""
    u = np.zeros(lattice.n_nodes(lattice.horizon))
    for t in range(lattice.horizon - 1, -1, -1):
        y = cf.x(t + 1) + u
        u, _ = worst_case_cond_exp(lattice, family, grid, y, t, direction="SUP")
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
        expected = cond_expectation(lattice, vals, 1, weights=w)
        got, arg = worst_case_cond_exp(lattice, family, [0.4], vals, 1)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        np.testing.assert_array_equal(arg, 0)

    def test_inf_below_sup(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        vals = rng.normal(size=4)
        lo, _ = worst_case_cond_exp(lattice, family, grid, vals, 1, direction="INF")
        hi, _ = worst_case_cond_exp(lattice, family, grid, vals, 1, direction="SUP")
        assert np.all(lo <= hi + 1e-15)

    def test_constant_value_is_invariant(self, rng):
        lattice, _, family, grid = make_instance(rng, 1, 3)
        got, _ = worst_case_cond_exp(lattice, family, grid, np.full(3, 2.5), 0)
        np.testing.assert_allclose(got, 2.5, atol=1e-12)

    def test_tie_breaks_to_lowest_index(self, rng):
        lattice, _, family, _ = make_instance(rng, 1, 2)
        _, arg = worst_case_cond_exp(lattice, family, [0.3, 0.3], np.ones(2), 0)
        np.testing.assert_array_equal(arg, 0)

    def test_rejects_unknown_direction(self, rng):
        lattice, _, family, grid = make_instance(rng, 1, 2)
        with pytest.raises(ValidationError, match="direction"):
            worst_case_cond_exp(lattice, family, grid, np.ones(2), 0, direction="MAX")


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
        got = apply_discrete(rm, -y1, lattice.probs[1])
        assert abs(out.r0 - got) < 1e-14

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
            res = snell_bruteforce(lattice, family, grid, out.R, payload, keep_table=True)
            leaf = tau.value_at_leaves()
            # locate the enumerated rule equal to the recursion's default time
            from ambival.oracle import enumerate_stopping_times

            col = None
            for i, cand in enumerate(enumerate_stopping_times(lattice)):
                if np.array_equal(cand.leaf_values, leaf):
                    col = i
                    break
            assert col is not None
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

    def test_output_serialization(self, rng):
        lattice, payload, family, grid = make_instance(rng, 1, 3)
        out = value_multiprior(make_cf(payload), RiskMeasureSpec(VAR, 0.1), family, grid, lattice)
        text = out.to_keyvalue()
        assert "horizon = 1" in text
        assert "R_0 = " in text and "V_0 = " in text
