"""Value-at-risk and average value-at-risk estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambival.errors import ValidationError
from ambival.riskmeasures import (
    AVAR,
    VAR,
    RiskMeasureSpec,
    apply_discrete,
    apply_empirical,
    avar_discrete,
    gaussian_c,
    var_discrete,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=50).map(np.array)
levels = st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 0.9])


def var_empirical(sample, q):
    return apply_empirical(RiskMeasureSpec(VAR, q), sample)


def avar_empirical(sample, q):
    return apply_empirical(RiskMeasureSpec(AVAR, q), sample)


class TestSpec:
    def test_rejects_bad_level(self):
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ValidationError, match=r"level must lie in \(0,1\)"):
                RiskMeasureSpec(VAR, bad)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            RiskMeasureSpec("CVAR", 0.5)


class TestHandValues:
    def test_var_small_sample(self):
        # losses are {-1, 0, 1, 2}; the ceil(0.75 * 4) = 3rd order statistic is 1
        sample = np.array([-2.0, -1.0, 0.0, 1.0])
        assert var_empirical(sample, 0.25) == 1.0

    def test_avar_concentrated_tail(self):
        # the worst quarter of outcomes is the single -4, so the tail mean is 4
        sample = np.array([0.0, 0.0, 0.0, -4.0])
        assert avar_empirical(sample, 0.25) == 4.0
        assert var_empirical(sample, 0.25) == 0.0

    def test_avar_fractional_atom(self):
        # q = 0.375: the tail holds the full -4 atom (0.25) plus half a 0 atom
        sample = np.array([0.0, 0.0, 0.0, -4.0])
        expected = (0.25 * 4.0 + 0.125 * 0.0) / 0.375
        assert abs(avar_empirical(sample, 0.375) - expected) < 1e-12

    def test_discrete_matches_empirical_for_uniform_probs(self, rng):
        sample = rng.normal(size=37)
        probs = np.full(37, 1.0 / 37)
        for q in (0.05, 0.1, 0.5):
            assert var_discrete(sample, probs, q) == var_empirical(sample, q)
            assert abs(avar_discrete(sample, probs, q) - avar_empirical(sample, q)) < 1e-12

    def test_discrete_weighted_atoms(self):
        values = np.array([0.0, -10.0])
        probs = np.array([0.95, 0.05])
        assert var_discrete(values, probs, 0.1) == 0.0
        assert var_discrete(values, probs, 0.04) == 10.0
        # tail of mass 0.1 = the full -10 atom plus 0.05 of the 0 atom
        assert abs(avar_discrete(values, probs, 0.1) - 5.0) < 1e-12

    def test_gaussian_constants(self):
        assert abs(gaussian_c(RiskMeasureSpec(VAR, 0.05)) - 1.6448536269514722) < 1e-12
        assert abs(gaussian_c(RiskMeasureSpec(VAR, 0.01)) - 2.3263478740408408) < 1e-12
        assert abs(gaussian_c(RiskMeasureSpec(AVAR, 0.05)) - 2.0627128075074275) < 1e-12
        assert abs(gaussian_c(RiskMeasureSpec(AVAR, 0.5)) - 0.7978845608028654) < 1e-12

    def test_gaussian_constants_match_monte_carlo(self):
        z = np.random.default_rng(1).standard_normal(10**6)
        assert abs(var_empirical(z, 0.05) - gaussian_c(RiskMeasureSpec(VAR, 0.05))) < 0.01
        assert abs(avar_empirical(z, 0.05) - gaussian_c(RiskMeasureSpec(AVAR, 0.05))) < 0.02


class TestValidation:
    def test_rejects_empty_sample(self):
        with pytest.raises(ValidationError, match="empty"):
            var_empirical(np.array([]), 0.1)
        with pytest.raises(ValidationError, match="empty"):
            avar_empirical(np.empty((3, 0)), 0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            avar_empirical(np.array([1.0, np.nan]), 0.1)

    @pytest.mark.parametrize("kind", [VAR, AVAR])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_anywhere_in_a_batch(self, kind, bad):
        y = np.random.default_rng(0).normal(size=(2, 1000))
        for row, col in ((0, 0), (0, 517), (1, 999)):
            z = y.copy()
            z[row, col] = bad
            with pytest.raises(ValidationError, match="finite"):
                apply_empirical(RiskMeasureSpec(kind, 0.05), z)


class TestBatch:
    def test_batch_matches_rows_bit_for_bit(self):
        y = np.random.default_rng(4).normal(size=(5, 997))
        for kind in (VAR, AVAR):
            for q in (0.005, 0.05, 0.1, 0.5):
                rm = RiskMeasureSpec(kind, q)
                batch = apply_empirical(rm, y)
                assert batch.shape == (5,)
                rows = [apply_empirical(rm, row) for row in y]
                assert all(np.ndim(r) == 0 for r in rows)
                np.testing.assert_array_equal(batch, rows)


class TestAxioms:
    @given(sample=samples, q=levels, shift=finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_cash_invariance(self, sample, q, shift):
        scale = max(1.0, np.max(np.abs(sample)), abs(shift))
        for fn in (var_empirical, avar_empirical):
            assert abs(fn(sample + shift, q) - (fn(sample, q) - shift)) < 1e-9 * scale

    @given(sample=samples, q=levels, bump=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, sample, q, bump):
        for fn in (var_empirical, avar_empirical):
            assert fn(sample + bump, q) <= fn(sample, q) + 1e-9

    @given(sample=samples, q=levels)
    @settings(max_examples=200, deadline=None)
    def test_avar_dominates_var(self, sample, q):
        scale = max(1.0, np.max(np.abs(sample)))
        assert avar_empirical(sample, q) >= var_empirical(sample, q) - 1e-9 * scale

    @given(sample=samples)
    @settings(max_examples=200, deadline=None)
    def test_var_nonincreasing_in_level(self, sample):
        # a smaller exceedance level is the more prudent requirement
        qs = [0.01, 0.05, 0.1, 0.5, 0.9]
        vals = [var_empirical(sample, q) for q in qs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @given(sample=samples, q=levels)
    @settings(max_examples=100, deadline=None)
    def test_avar_positive_homogeneity(self, sample, q):
        scale = max(1.0, np.max(np.abs(sample)))
        assert abs(avar_empirical(2.5 * sample, q) - 2.5 * avar_empirical(sample, q)) < 1e-9 * scale


def test_apply_dispatch():
    sample = np.array([1.0, -1.0, 3.0, -3.0])
    probs = np.full(4, 0.25)
    # losses {-3, -1, 1, 3}: the ceil(0.7 * 4) = 3rd is 1; the 0.3 tail is 3 and 0.05 of 1
    assert apply_empirical(RiskMeasureSpec(VAR, 0.3), sample) == 1.0
    assert abs(apply_empirical(RiskMeasureSpec(AVAR, 0.3), sample) - 0.8 / 0.3) < 1e-12
    assert apply_discrete(RiskMeasureSpec(VAR, 0.3), sample, probs) == var_discrete(
        sample, probs, 0.3
    )
    assert apply_discrete(RiskMeasureSpec(AVAR, 0.3), sample, probs) == avar_discrete(
        sample, probs, 0.3
    )
