"""Value-at-risk and average value-at-risk estimators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambival.errors import ValidationError
from ambival.riskmeasures import (
    AVAR,
    VAR,
    RiskMeasureSpec,
    apply_discrete,
    apply_empirical,
    gaussian_c,
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


def discrete(kind, values, probs, q):
    """The lattice kernel on a level of one segment: a single discrete law."""
    return apply_discrete(RiskMeasureSpec(kind, q), values, probs, [0, len(values)])[0]


def one_law_reference(kind, values, probs, q):
    """One discrete law at a time with 1-D sorts, cumulative sums and dot products."""
    losses = -values
    if kind == VAR:
        order = np.argsort(losses, kind="stable")
        idx = int(np.searchsorted(np.cumsum(probs[order]), (1.0 - q) - 1e-12))
        return losses[order][min(idx, len(losses) - 1)]
    order = np.argsort(-losses, kind="stable")
    cum_before = np.concatenate(([0.0], np.cumsum(probs[order])[:-1]))
    return np.dot(np.clip(q - cum_before, 0.0, probs[order]), losses[order]) / q


def full_sort_reference(kind, y, q):
    """Each row's risk measure from a full sort of its losses, every weight kept."""
    losses = np.sort(-y, axis=-1)
    n = losses.shape[-1]
    if kind == VAR:
        k = min(max(int(np.ceil((1.0 - q) * n - 1e-9)), 1), n)
        return losses[..., k - 1]
    tail_w = np.clip(q - np.arange(n) / n, 0.0, 1.0 / n)
    return losses[..., ::-1] @ tail_w / q


@st.composite
def sample_batches(draw):
    """Rows of 1-300 rounded values (ties likely) and a level q with q n below 1,
    whole, or anywhere in (0, 1)."""
    n = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.round(rng.normal(size=(rows, n)) * 10.0 ** draw(st.integers(-2, 6)),
                 draw(st.sampled_from([0, 1, 8])))
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    q = draw(st.one_of(
        unit,
        unit.map(lambda u: u / n).filter(lambda q: q > 0.0),
        st.integers(1, max(n - 1, 1)).map(lambda j: j / n).filter(lambda q: q < 1.0),
    ))
    return y, q


@st.composite
def ragged_levels(draw):
    """A level of 1-8 laws with 1-6 weighted atoms each, tied atoms likely."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    n = sum(sizes)
    atom = st.one_of(st.integers(-2, 2).map(float), finite_floats)
    values = np.array(draw(st.lists(atom, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    probs = w / np.repeat(np.add.reduceat(w, offsets[:-1]), sizes)
    return values, probs, offsets


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
            assert discrete(VAR, sample, probs, q) == var_empirical(sample, q)
            assert abs(discrete(AVAR, sample, probs, q) - avar_empirical(sample, q)) < 1e-12

    def test_discrete_weighted_atoms(self):
        values = np.array([0.0, -10.0])
        probs = np.array([0.95, 0.05])
        assert discrete(VAR, values, probs, 0.1) == 0.0
        assert discrete(VAR, values, probs, 0.04) == 10.0
        # tail of mass 0.1 = the full -10 atom plus 0.05 of the 0 atom
        assert abs(discrete(AVAR, values, probs, 0.1) - 5.0) < 1e-12

    def test_discrete_quantile_threshold_absorbs_rounding(self):
        # 0.7 + 0.2 rounds to 0.8999999999999999; the 1e-12 slack still
        # makes the loss-1 atom reach the 0.9 quantile, in a level too
        values, probs = np.array([0.0, -1.0, -2.0]), np.array([0.7, 0.2, 0.1])
        assert discrete(VAR, values, probs, 0.1) == 1.0
        level = apply_discrete(
            RiskMeasureSpec(VAR, 0.1), np.tile(values, 2), np.tile(probs, 2), [0, 3, 6]
        )
        np.testing.assert_array_equal(level, [1.0, 1.0])

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
        with pytest.raises(ValidationError, match="finite"):
            discrete(VAR, np.array([1.0, np.inf]), np.array([0.5, 0.5]), 0.1)

    def test_discrete_rejects_bad_segments(self):
        rm = RiskMeasureSpec(AVAR, 0.1)
        values, probs = np.array([1.0, 2.0, 3.0]), np.full(3, 0.5)
        with pytest.raises(ValidationError, match="empty"):
            apply_discrete(rm, values[:0], probs[:0], [0])
        for offsets in ([0, 1, 1, 3], [0, 2], [1, 3], [0, 4], [0]):
            with pytest.raises(ValidationError, match="nonempty segments"):
                apply_discrete(rm, values, probs, offsets)
        with pytest.raises(ValidationError, match="nonempty segments"):
            apply_discrete(rm, values, probs[:2], [0, 3])

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


    @given(batch=sample_batches())
    @example(batch=(np.random.default_rng(7).normal(size=(2, 10**5)), 0.0512345))
    @example(batch=(np.round(np.random.default_rng(8).normal(size=(1, 10**5)) * 10.0), 0.0123456))
    @settings(max_examples=300, deadline=None)
    def test_matches_a_full_sort_in_any_row_order(self, batch):
        # only the upper tail is sorted; the sample order never matters.  At
        # n = 10^5 np.partition leaves that tail unordered (at 300 it does not)
        y, q = batch
        tol = 1e-14 * np.max(np.abs(y), axis=-1)
        shuffled = np.random.default_rng(0).permuted(y, axis=-1)
        var, avar = RiskMeasureSpec(VAR, q), RiskMeasureSpec(AVAR, q)
        ref = full_sort_reference(AVAR, y, q)
        for z in (y, shuffled):
            np.testing.assert_array_equal(apply_empirical(var, z), full_sort_reference(VAR, y, q))
            assert np.all(np.abs(apply_empirical(avar, z) - ref) <= tol)
            for row, r, t in zip(z, ref, tol):
                assert abs(apply_empirical(avar, row) - r) <= t


class TestLevel:
    @given(level=ragged_levels(), q=levels)
    @settings(max_examples=300, deadline=None)
    def test_level_equals_each_segment_alone(self, level, q):
        values, probs, offsets = level
        for kind in (VAR, AVAR):
            whole = apply_discrete(RiskMeasureSpec(kind, q), values, probs, offsets)
            segments = list(zip(offsets[:-1], offsets[1:]))
            alone = [discrete(kind, values[a:b], probs[a:b], q) for a, b in segments]
            np.testing.assert_array_equal(whole, alone)
            reference = [
                one_law_reference(kind, values[a:b], probs[a:b], q) for a, b in segments
            ]
            np.testing.assert_array_equal(whole, reference)

    def test_blocks_do_not_change_values(self):
        # a level several matrix blocks long per segment size equals its pieces
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 7, 200_000)
        values = rng.integers(-3, 4, sizes.sum()) / 2.0 + (rng.random(sizes.sum()) < 0.5)
        probs = rng.uniform(0.1, 1.0, sizes.sum())
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        probs /= np.repeat(np.add.reduceat(probs, offsets[:-1]), sizes)
        cuts = [0, 1, 17, 45_000, 125_001, 200_000]
        for kind in (VAR, AVAR):
            rm = RiskMeasureSpec(kind, 0.1)
            pieces = [
                apply_discrete(rm, values[offsets[i]:offsets[j]], probs[offsets[i]:offsets[j]],
                               offsets[i:j + 1] - offsets[i])
                for i, j in zip(cuts[:-1], cuts[1:])
            ]
            np.testing.assert_array_equal(
                apply_discrete(rm, values, probs, offsets), np.concatenate(pieces)
            )

    @given(level=ragged_levels(), q=levels, shift=finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_cash_invariance(self, level, q, shift):
        values, probs, offsets = level
        scale = max(1.0, np.max(np.abs(values)), abs(shift))
        for kind in (VAR, AVAR):
            rm = RiskMeasureSpec(kind, q)
            moved = apply_discrete(rm, values + shift, probs, offsets)
            base = apply_discrete(rm, values, probs, offsets)
            np.testing.assert_allclose(moved, base - shift, rtol=0.0, atol=1e-9 * scale)

    @given(level=ragged_levels(), q=levels, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, level, q, data):
        values, probs, offsets = level
        bump = np.array(
            data.draw(st.lists(st.floats(0.0, 100.0), min_size=len(values), max_size=len(values)))
        )
        for kind in (VAR, AVAR):
            rm = RiskMeasureSpec(kind, q)
            better = apply_discrete(rm, values + bump, probs, offsets)
            assert np.all(better <= apply_discrete(rm, values, probs, offsets) + 1e-9)

    @given(level=ragged_levels(), q=levels)
    @settings(max_examples=200, deadline=None)
    def test_avar_dominates_var(self, level, q):
        values, probs, offsets = level
        scale = max(1.0, np.max(np.abs(values)))
        var = apply_discrete(RiskMeasureSpec(VAR, q), values, probs, offsets)
        avar = apply_discrete(RiskMeasureSpec(AVAR, q), values, probs, offsets)
        assert np.all(avar >= var - 1e-9 * scale)


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
    assert discrete(VAR, sample, probs, 0.3) == 1.0
    assert abs(discrete(AVAR, sample, probs, 0.3) - 0.8 / 0.3) < 1e-12
