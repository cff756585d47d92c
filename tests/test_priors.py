"""Density families, density processes, pasting and parameter regions."""

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.stats import chi2, norm, qmc

from ambival.errors import ValidationError
from ambival.priors import (
    DensityFamily,
    DensityProcess,
    ExponentialTiltFamily,
    ParamRegion,
    boundary_grid,
    density_process,
    ellipsoid_region,
    interior_grid,
    paste,
    point_region,
    project_region,
)
from ambival.scenario import StoppingTime
from ambival.valuation import worst_case_cond_exp
from conftest import level_choice, make_instance, ragged_selections, reblocked


class ExplicitFactorFamily(DensityFamily):
    """Lattice family with hand-specified factor arrays per (theta, level)."""

    def __init__(self, tables):
        self.tables = {k: [np.asarray(a, dtype=np.float64) for a in v] for k, v in tables.items()}

    def factors(self, t, theta):
        return self.tables[theta][t - 1]


class SummedTiltFamily(DensityFamily):
    """Two-parameter family: the tilt of ``theta[0] + theta[1]``."""

    def __init__(self, tilt):
        self.tilt = tilt

    def factors(self, t, theta):
        return self.tilt.factors(t, theta[0] + theta[1])


class TestWeights:
    """Weights are proportional to the factors within each sibling group."""

    @settings(max_examples=100, deadline=None)
    @given(ragged_selections())
    def test_tilt_factors_are_the_normalised_weights(self, problem):
        lattice, family, grid, _ = problem
        split = reblocked(lattice, 2)
        split_family = ExponentialTiltFamily(split, family.scores)
        for t in range(1, lattice.horizon + 1):
            for theta in grid:
                raw = np.exp(theta * family.scores[t])
                assert family.weights(t, theta).tobytes() == raw.tobytes()
                parts = [split_family.weights(t, theta, b) for b in split.blocks[t - 1]]
                assert np.concatenate(parts).tobytes() == raw.tobytes()
                z = lattice.cond_sum(t - 1, lattice.probs[t] * raw)
                expected = raw / z[lattice.parents[t]]
                assert family.factors(t, theta).tobytes() == expected.tobytes()

    def test_a_family_of_factors_only_is_weighted_by_its_factors(self, rng):
        lattice, _, tilt, grid = make_instance(rng, 2, 3)
        family = ExplicitFactorFamily({th: [tilt.factors(t, th) for t in (1, 2)] for th in grid})
        assert family.weights(2, grid[1]) is family.factors(2, grid[1])
        vals = rng.normal(size=9)
        table = [lattice.cond_sum(1, lattice.probs[2] * family.factors(2, th) * vals) for th in grid]
        got, arg = worst_case_cond_exp(lattice, family, grid, vals, 1)
        np.testing.assert_allclose(got, np.min(table, axis=0), rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(arg, np.argmin(table, axis=0))
        by_tilt = worst_case_cond_exp(lattice, tilt, grid, vals, 1)
        np.testing.assert_allclose(got, by_tilt[0], rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(arg, by_tilt[1])


class TestDensityProcess:
    def test_zero_tilt_is_identity(self, rng):
        lattice, _, family, _ = make_instance(rng, 2, 3)
        d = density_process(family, [0.0], 0, lattice)
        for t in range(3):
            np.testing.assert_allclose(d.values[t], 1.0, atol=1e-14)

    def test_explicit_hand_factors(self, binomial_lattice):
        family = ExplicitFactorFamily(
            {"a": [np.array([1.2, 0.8]), np.array([0.9, 1.1, 0.9, 1.1])]}
        )
        d = density_process(family, ["a"], 0, binomial_lattice)
        np.testing.assert_allclose(d.values[2], [1.08, 1.32, 0.72, 0.88])
        assert abs(d.expectation(2) - 1.0) < 1e-14
        np.testing.assert_allclose(d.ratio(2), [0.9, 1.1, 0.9, 1.1])

    def test_martingale_and_positivity_hold(self, rng):
        for trial in range(10):
            lattice, _, family, grid = make_instance(rng, 2, 2)
            for k in range(len(grid)):
                d = density_process(family, grid, k, lattice)
                for t in range(lattice.horizon + 1):
                    assert np.all(d.values[t] > 0.0)
                    assert abs(d.expectation(t) - 1.0) < 1e-12

    def test_rejects_broken_martingale(self, binomial_lattice):
        # the second-period factor has mean 1.25 under the first time-1 node
        factors = [np.array([1.5, 0.5]), np.array([1.5, 1.0, 1.0, 1.0])]
        with pytest.raises(ValidationError, match="martingale property violated at level 1"):
            DensityProcess(lattice=binomial_lattice, factors=factors)

    def test_rejects_nan_factors(self, binomial_lattice):
        with pytest.raises(ValidationError, match="not positive at level 1"):
            DensityProcess(lattice=binomial_lattice, factors=[np.full(2, np.nan), np.ones(4)])

    def test_rejects_an_overflowing_tilt(self, binomial_lattice):
        # exp(800) overflows, so both time-1 factors are inf / inf = NaN
        family = ExponentialTiltFamily(binomial_lattice, [0.0, [800.0, 801.0], 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="not positive at level 1"):
                density_process(family, [1.0], 0, binomial_lattice)

    def test_explicit_weights_by_block(self, binomial_lattice):
        # the default weights slice the whole-level factors per block
        family = ExplicitFactorFamily(
            {"a": [np.array([1.2, 0.8]), np.array([0.9, 1.1, 0.7, 1.3])]}
        )
        lat = reblocked(binomial_lattice, 2)
        assert len(lat.blocks[1]) == 2
        parts = [family.weights(2, "a", b) for b in lat.blocks[1]]
        assert np.concatenate(parts).tobytes() == family.factors(2, "a").tobytes()

    def test_rejects_bad_factor_levels(self, binomial_lattice):
        ok = [np.ones(2), np.ones(4)]
        with pytest.raises(ValidationError, match="one factor per period"):
            DensityProcess(lattice=binomial_lattice, factors=ok[:1])
        with pytest.raises(ValidationError, match="wrong length"):
            DensityProcess(lattice=binomial_lattice, factors=[ok[0], np.ones(3)])
        with pytest.raises(ValidationError, match="not positive at level 2"):
            DensityProcess(lattice=binomial_lattice, factors=[ok[0], np.array([2.0, 0.0, 1.0, 1.0])])

    @settings(max_examples=100, deadline=None)
    @given(ragged_selections())
    def test_per_state_values_are_the_node_by_node_product(self, problem):
        lattice, family, grid, codes = problem
        choice = level_choice(lattice, codes[0])
        d = density_process(family, grid, choice, lattice)
        expected = np.ones(1)
        for t in range(1, lattice.horizon + 1):
            level = np.empty(lattice.n_nodes(t))
            for i, parent in enumerate(lattice.parents[t]):
                level[i] = expected[parent] * family.factors(t, grid[choice[t - 1][parent]])[i]
            expected = level
            assert d.values[t].tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "theta", [(0.5, -0.5), np.array([0.5, -0.5]), [0.5, 3.0]], ids=["tuple", "ndarray", "list"]
    )
    def test_tilt_rejects_a_theta_of_several_values(self, rng, theta):
        lattice, _, family, _ = make_instance(rng, 2, 2)
        with pytest.raises(ValidationError, match="scalar"):
            family.factors(1, theta)
        with pytest.raises(ValidationError, match="scalar"):
            family.weights(1, theta)
        # a grid point is one theta, whatever its type
        with pytest.raises(ValidationError, match="scalar"):
            density_process(family, [0.0, theta], {0: [0], 1: [1, 1]}, lattice)

    def test_tilt_rejects_scores_of_another_length(self, binomial_lattice):
        with pytest.raises(ValidationError, match=r"level 2 has shape \(3,\), not \(4,\)"):
            ExponentialTiltFamily(binomial_lattice, [0.0, np.zeros(2), np.zeros(3)])
        with pytest.raises(ValidationError, match="one score array per level"):
            ExponentialTiltFamily(binomial_lattice, [0.0, np.zeros(2)])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_tilt_rejects_non_finite_scores(self, binomial_lattice, bad):
        # exp(0 * inf) is NaN: such a score breaks the factors even at theta = 0
        with pytest.raises(ValidationError, match="non-finite score at level 2"):
            ExponentialTiltFamily(binomial_lattice, [0.0, np.zeros(2), [0.0, bad, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="non-finite score at level 1"):
            ExponentialTiltFamily(binomial_lattice, [0.0, bad, np.zeros(4)])

    def test_per_state_selection(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        d = density_process(family, grid, {0: [0], 1: [1, 2]}, lattice)
        np.testing.assert_array_equal(d.ratio(1), family.factors(1, grid[0]))
        # the period-2 factor under each time-1 node matches its own theta
        for j, theta in enumerate([grid[1], grid[2]]):
            f = family.factors(2, theta)
            idx = lattice.children(1, j)
            np.testing.assert_array_equal(d.ratio(2)[idx], f[idx])

    def test_per_state_selection_outside_the_region_is_rejected(self, rng):
        lattice, _, family, _ = make_instance(rng, 2, 2)
        family.region = ellipsoid_region(np.zeros(1), np.eye(1), 0.5)
        # only the chosen grid points are checked
        grid = [0.0, 0.5, -0.5, 5.0]
        inside = density_process(family, grid, {0: [0], 1: [1, 2]}, lattice)
        with pytest.raises(ValidationError, match="outside the region"):
            density_process(family, grid, {0: [0], 1: [1, 3]}, lattice)
        family.region = None
        free = density_process(family, grid, {0: [0], 1: [1, 2]}, lattice)
        for a, b in zip(inside.values, free.values):
            np.testing.assert_array_equal(a, b)

    def test_per_state_selection_must_be_adapted(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        with pytest.raises(ValidationError, match="adapted"):
            density_process(family, grid, {0: [0], 1: [0, 1, 2, 0]}, lattice)

    def test_rejects_periods_outside_the_horizon(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        for extra in (-1, 2, 5):
            with pytest.raises(ValidationError, match=r"levels 0..1"):
                density_process(family, grid, {0: [0], 1: [0, 0], extra: [1]}, lattice)
        with pytest.raises(ValidationError, match=r"levels 0..1, got \[1\]"):
            density_process(family, grid, {1: 0}, lattice)

    @pytest.mark.parametrize(
        "choice",
        [0.0, True, [0], [0, 1], {0: 0, 1: [0, 1]}, {0: [0], 1: [0.0, 1.0]}, {0: [0], 1: [[0], 1]}],
    )
    def test_rejects_a_choice_that_is_not_grid_indices(self, rng, choice):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        with pytest.raises(ValidationError, match="one grid index"):
            density_process(family, grid, choice, lattice)

    @pytest.mark.parametrize("choice", [3, -1, {0: [0], 1: [2, 3]}])
    def test_rejects_an_index_past_the_grid(self, rng, choice):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        with pytest.raises(ValidationError, match="past a 3-point grid"):
            density_process(family, grid, choice, lattice)

    def test_a_grid_point_given_as_a_list_is_one_theta(self, rng):
        lattice, _, tilt, _ = make_instance(rng, 2, 2)
        family = SummedTiltFamily(tilt)
        family.region = ellipsoid_region(np.zeros(2), np.eye(2), 0.5)
        grid = [[0.1, 0.2], (0.3, -0.1)]
        d = density_process(family, grid, {0: [0], 1: [0, 1]}, lattice)
        expected = density_process(tilt, [0.1 + 0.2, 0.3 + -0.1], {0: [0], 1: [0, 1]}, lattice)
        for a, b in zip(d.values, expected.values):
            assert a.tobytes() == b.tobytes()
        with pytest.raises(ValidationError, match="outside the region"):
            density_process(family, [[0.1, 2.0]], 0, lattice)


class TestPasting:
    def test_pasted_process_is_valid_and_spliced(self, rng):
        for trial in range(10):
            lattice, _, family, grid = make_instance(rng, 2, 2)
            d1 = density_process(family, grid, 0, lattice)
            d2 = density_process(family, grid, 2, lattice)
            stopped = [
                np.array([False]),
                rng.random(2) < 0.5,
                np.ones(4, dtype=bool),
            ]
            stopped[2] |= stopped[1][lattice.parents[2]]
            tau = StoppingTime(lattice, stopped)
            d = paste(d1, d2, tau)  # validated as a martingale on construction
            # factors agree with d1 up to and including tau, with d2 after
            after1 = tau.stopped_by[0][lattice.parents[1]]
            np.testing.assert_allclose(
                d.ratio(1), np.where(after1, d2.ratio(1), d1.ratio(1))
            )
            after2 = tau.stopped_by[1][lattice.parents[2]]
            np.testing.assert_allclose(
                d.ratio(2), np.where(after2, d2.ratio(2), d1.ratio(2))
            )

    def test_paste_at_horizon_returns_first(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        d1 = density_process(family, grid, 0, lattice)
        d2 = density_process(family, grid, 1, lattice)
        tau = StoppingTime.constant(lattice, lattice.horizon)
        d = paste(d1, d2, tau)
        for t in range(3):
            np.testing.assert_allclose(d.values[t], d1.values[t])

    def test_paste_rejects_unbounded_stopping_time(self, rng):
        lattice, _, family, grid = make_instance(rng, 2, 2)
        d1 = density_process(family, grid, 0, lattice)
        tau = StoppingTime.constant(lattice, lattice.horizon + 1)
        with pytest.raises(ValidationError, match="bounded"):
            paste(d1, d1, tau)


class TestRegions:
    def test_chi_square_radius(self):
        region = ellipsoid_region(np.zeros(4), np.eye(4), 0.9)
        assert abs(region.radius2 - 7.779440339734858) < 1e-12
        region = ellipsoid_region(np.zeros(4), np.eye(4), 0.1)
        assert abs(region.radius2 - 1.063623216779224) < 1e-12

    def test_membership(self):
        region = ellipsoid_region(np.array([1.0, 2.0]), np.diag([4.0, 1.0]), 0.5)
        assert region.membership(region.center)
        r = np.sqrt(region.radius2)
        on_boundary = region.center + np.array([2.0 * r, 0.0])
        assert region.membership(on_boundary)
        assert not region.membership(region.center + np.array([2.0 * r + 0.01, 0.0]))

    def test_rejects_theta_of_another_dimension(self):
        plane = ellipsoid_region(np.zeros(2), np.eye(2), 0.5)
        line = ellipsoid_region(np.zeros(1), np.eye(1), 0.5)
        for region, theta in ((plane, 0.1), (plane, [0.1, 0.1, 0.1]), (line, [0.1, 0.1])):
            with pytest.raises(ValidationError, match="coordinates"):
                region.membership(theta)
            with pytest.raises(ValidationError, match="coordinates"):
                region.mahalanobis2(np.atleast_2d(theta))
        assert plane.membership([0.1, 0.1]) and line.membership(0.1)

    def test_mahalanobis2_is_a_scalar_per_point_and_an_array_per_batch(self):
        region = ellipsoid_region(np.zeros(3), np.diag([1.0, 4.0, 9.0]), 0.5)
        assert region.mahalanobis2(np.array([1.0, 2.0, 3.0])) == 3.0
        one = region.mahalanobis2(np.zeros((1, 3)))
        assert isinstance(one, np.ndarray) and one.shape == (1,) and one[0] == 0.0
        two = region.mahalanobis2(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(two, [1.0, 1.0])
        with pytest.raises(ValidationError, match="2-D batch"):
            region.mahalanobis2(np.zeros((1, 1, 3)))
        assert region.membership(np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_mean_or_covariance(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            ellipsoid_region(np.array([0.0, bad]), np.eye(2), 0.5)
        with pytest.raises(ValidationError, match="must be finite"):
            ellipsoid_region(np.zeros(2), np.array([[1.0, bad], [bad, 1.0]]), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_center(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            point_region([bad, 1.0])
        with pytest.raises(ValidationError, match="must be finite"):
            ParamRegion(center=np.array([0.0, bad]), chol=np.eye(2), radius2=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_cholesky_factor(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            ParamRegion(center=np.zeros(2), chol=np.array([[1.0, 0.0], [bad, 1.0]]), radius2=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_squared_radius(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            ParamRegion(center=np.zeros(2), chol=np.eye(2), radius2=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_theta(self, bad):
        region = ellipsoid_region(np.zeros(2), np.eye(2), 0.5)
        with pytest.raises(ValidationError, match=r"theta must be finite, got \[\S+, 0\.0\]$"):
            region.membership([bad, 0.0])
        with pytest.raises(ValidationError, match=r"got \[0\.0, \S+\] in row 1 of the batch"):
            region.mahalanobis2(np.array([[0.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("coords", [[0, 0], [], [0, 3], [-1]])
    def test_projection_rejects_bad_coordinates(self, coords):
        region = ellipsoid_region(np.zeros(3), np.eye(3), 0.5)
        with pytest.raises(ValidationError, match=r"projection coordinates"):
            project_region(region, coords)

    @pytest.mark.parametrize("positive", [(5,), (-1,), (0, 3)])
    def test_grids_reject_positive_coordinates_out_of_range(self, positive):
        for region in (ellipsoid_region(np.ones(3), np.eye(3), 0.5), point_region(np.ones(3))):
            with pytest.raises(ValidationError, match="positive coordinates .* out of range"):
                boundary_grid(region, 8, positive=positive)
            with pytest.raises(ValidationError, match="positive coordinates .* out of range"):
                interior_grid(region, 8, positive=positive)

    def test_point_region(self):
        region = point_region(np.array([1.0, 2.0, 3.0]))
        assert region.is_point
        assert region.membership(np.array([1.0, 2.0, 3.0]))
        assert not region.membership(np.array([1.0, 2.0, 3.1]))

    def test_rejects_non_positive_definite(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValidationError, match="positive definite"):
            ellipsoid_region(np.zeros(2), sigma, 0.5)

    def test_projection_keeps_radius_and_covariance_block(self):
        sigma = np.array(
            [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]]
        )
        region = ellipsoid_region(np.array([1.0, 2.0, 3.0]), sigma, 0.8)
        proj = project_region(region, [0, 2])
        assert proj.radius2 == region.radius2
        np.testing.assert_allclose(proj.center, [1.0, 3.0])
        np.testing.assert_allclose(
            proj.chol @ proj.chol.T, sigma[np.ix_([0, 2], [0, 2])], atol=1e-12
        )

    def test_projection_is_a_shadow(self, rng):
        # every region point projects into the projected region
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        region = ellipsoid_region(np.array([0.5, -0.5]), sigma, 0.7)
        proj = project_region(region, [0])
        pts = boundary_grid(region, 100).points
        for z in pts:
            assert proj.membership(z[[0]])

    def test_boundary_grid_on_boundary(self):
        sigma = np.array([[1.0, 0.2, 0.0, 0.0], [0.2, 2.0, 0.1, 0.0],
                          [0.0, 0.1, 1.5, 0.3], [0.0, 0.0, 0.3, 0.8]])
        region = ellipsoid_region(np.full(4, 10.0), sigma, 0.9)
        grid = boundary_grid(region, 128)
        assert grid.n_dropped == 0
        m2 = region.mahalanobis2(grid.points)
        np.testing.assert_allclose(m2, region.radius2, atol=1e-10)

    def test_boundary_grid_two_dim_axes(self):
        region = ellipsoid_region(np.zeros(2), np.eye(2), 0.5)
        r = np.sqrt(region.radius2)
        pts = boundary_grid(region, 4).points
        np.testing.assert_allclose(
            pts, [[r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]], atol=1e-12
        )

    def test_boundary_grid_drops_and_fails_loudly(self):
        region = ellipsoid_region(np.zeros(2), np.eye(2), 0.5)
        with pytest.raises(ValidationError, match="admissibility"):
            boundary_grid(region, 100, positive=(0,))

    def test_boundary_refinement_improves_linear_max(self):
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        region = ellipsoid_region(np.array([5.0, 5.0]), sigma, 0.9)

        def f(pts):
            return pts[:, 0] + 2.0 * pts[:, 1]

        coarse = f(boundary_grid(region, 8).points).max()
        fine = f(boundary_grid(region, 256).points).max()
        assert fine >= coarse - 1e-12
        # the exact maximum of a linear form over the ellipse
        w = np.array([1.0, 2.0])
        exact = w @ region.center + np.sqrt(region.radius2 * w @ sigma @ w)
        assert abs(fine - exact) < 1e-3

    def test_interior_grid_inside(self):
        sigma = np.array([[1.0, 0.2], [0.2, 0.5]])
        region = ellipsoid_region(np.array([3.0, 4.0]), sigma, 0.9)
        pts = interior_grid(region, 64)
        assert len(pts) == 65  # the center plus the requested points
        assert np.all(region.mahalanobis2(pts) <= region.radius2 + 1e-10)

    def test_point_region_grids(self):
        region = point_region(np.array([1.0, 2.0]))
        assert len(boundary_grid(region, 10).points) == 1
        assert len(interior_grid(region, 10)) == 1


def correlated_region(k):
    """A ``k``-dim region with unequal scales and correlations."""
    a = np.tril(np.full((k, k), 0.3)) + np.diag(np.arange(1.0, k + 1))
    return ellipsoid_region(np.arange(1.0, k + 1), a @ a.T, 0.9)


def scipy_stats_directions(u):
    z = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestScipySpecialEqualsScipyStats:
    """The regions use scipy.special and a radical inverse; the points are
    those of scipy.stats' chi-square quantile, normal quantile and unscrambled
    Halton sequence, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_radius_is_the_chi_square_quantile(self, k):
        for p in (0.1, 0.5, 0.8, 0.9, 0.95, 0.99):
            assert ellipsoid_region(np.zeros(k), np.eye(k), p).radius2 == chi2.ppf(p, k)

    @pytest.mark.parametrize("m", [64, 360, 512, 4096])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_boundary_grid(self, k, m):
        region = correlated_region(k)
        s = scipy_stats_directions(qmc.Halton(d=k, scramble=False).random(m + 1)[1:])
        expected = region.center + np.sqrt(region.radius2) * (s @ region.chol.T)
        np.testing.assert_array_equal(boundary_grid(region, m).points, expected)

    @pytest.mark.parametrize("m", [64, 360, 512, 4096])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_interior_grid(self, k, m):
        region = correlated_region(k)
        u = qmc.Halton(d=k + 1, scramble=False).random(m + 1)[1:]
        s = scipy_stats_directions(u[:, :k])
        r = np.sqrt(region.radius2) * u[:, k] ** (1.0 / k)
        expected = np.vstack([region.center, region.center + (r[:, None] * s) @ region.chol.T])
        np.testing.assert_array_equal(interior_grid(region, m), expected)
