"""Two-period Gaussian chain-ladder study: model, estimators, closed forms and searches."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2, norm

import ambival.gaussian
from ambival.cli import FIGURE1_N_REP, main
from ambival.errors import ValidationError
from ambival.gaussian import (
    _CLOUD_BLOCK,
    TABLE1_P,
    CaseConfig,
    GaussianModel,
    GaussianStepFamily,
    _BaseSample,
    _boundary_search,
    _Case1R0,
    _Case1Value,
    _deficit,
    _estimators,
    _h_exact,
    _hermite_nodes,
    _p_sample,
    _pareto_arcs,
    _x1_plus_r1,
    case1_bounds,
    case1_upper,
    case2_upper,
    case2_value,
    closed_form_g,
    estimator_cloud,
    fit_h,
    fit_params,
    paper_model,
    r1_closed_form,
    region_for,
    simulate_triangle,
)
from ambival.priors import (
    ParamRegion,
    boundary_grid,
    density_process,
    ellipsoid_region,
    interior_grid,
    point_region,
    project_region,
)
from ambival.riskmeasures import AVAR, VAR, RiskMeasureSpec, apply_empirical, gaussian_c
from ambival.scenario import AdaptedProcess, simulate_paths, substream
from ambival.valuation import CashFlowSpec, value_multiprior


class TestModel:
    def test_paper_model_parameters(self):
        m = paper_model()
        np.testing.assert_allclose(m.theta, [2.0 / 3.0, 0.2, 1.5, 0.2])
        assert m.v0 == 1.0 and m.v_m1 == 1.0
        assert m.c_m11 == m.beta0

    def test_rejects_negative_volatility(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            GaussianModel(beta0=1.0, sigma0=-0.1, beta1=1.5, sigma1=0.2)

    def test_zero_volatility_is_floored(self):
        m = GaussianModel(beta0=1.0, sigma0=0.0, beta1=1.5, sigma1=0.2)
        assert m.sigma0 > 0.0
        c1, _ = simulate_triangle(m, 5, seed=0)
        np.testing.assert_allclose(c1, 1.0, atol=1e-9)

    def test_rejects_late_first_year(self):
        with pytest.raises(ValidationError, match="precede"):
            GaussianModel(beta0=1.0, sigma0=0.1, beta1=1.5, sigma1=0.2, i0=-1)

    def test_rejects_bad_exposures(self):
        with pytest.raises(ValidationError, match="exposure"):
            GaussianModel(
                beta0=1.0, sigma0=0.1, beta1=1.5, sigma1=0.2, i0=-3,
                exposures=np.array([1.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"beta0": math.inf}, "beta0 must be finite"),
            ({"sigma0": math.nan}, "sigma0 must be finite"),
            ({"beta1": math.nan}, "beta1 must be finite"),
            ({"sigma1": math.inf}, "sigma1 must be finite"),
            ({"c_m11": -math.inf}, "c_m11 must be finite"),
            ({"exposures": [1.0, math.nan, 1.0]}, "finite positive exposure"),
            ({"exposures": [1.0, 1.0, math.inf]}, "finite positive exposure"),
        ],
        ids=["beta0=inf", "sigma0=nan", "beta1=nan", "sigma1=inf", "c_m11=-inf",
             "exposure=nan", "exposure=inf"],
    )
    def test_rejects_non_finite_parameters(self, bad, match):
        base = {"beta0": 1.0, "sigma0": 0.1, "beta1": 1.5, "sigma1": 0.2, "i0": -2}
        with pytest.raises(ValidationError, match=match):
            GaussianModel(**{**base, **bad})


class TestTrianglesAndEstimators:
    def test_triangle_shapes_and_determinism(self):
        m = paper_model()
        c1, c2 = simulate_triangle(m, 10, seed=3)
        assert c1.shape == (10,) and c2.shape == (9,)
        c1b, c2b = simulate_triangle(m, 10, seed=3)
        np.testing.assert_array_equal(c1, c1b)
        np.testing.assert_array_equal(c2, c2b)

    def test_triangle_needs_three_years(self):
        with pytest.raises(ValidationError, match="3"):
            simulate_triangle(paper_model(), 2, seed=0)

    def test_triangle_needs_an_exposure_per_year(self):
        # the paper model has 11 exposures (years -10 .. 0)
        with pytest.raises(ValidationError, match="11 exposures"):
            simulate_triangle(paper_model(), 20, seed=0)

    def test_fit_recovers_noiseless_parameters(self):
        c1 = np.full(6, 0.75)
        c2 = 1.4 * c1[:5]
        b0, s0sq, b1, s1sq = fit_params(c1, c2)
        assert abs(b0 - 0.75) < 1e-14
        assert abs(s0sq) < 1e-14
        assert abs(b1 - 1.4) < 1e-14
        assert abs(s1sq) < 1e-14

    def test_fit_rejects_full_second_column(self):
        with pytest.raises(ValidationError, match="shorter"):
            fit_params(np.ones(5), np.ones(5))

    def test_fit_rejects_short_columns(self):
        with pytest.raises(ValidationError, match="at least 3"):
            fit_params(np.ones(4), np.ones(2))

    @pytest.mark.parametrize(
        "exposures",
        [np.ones(4), np.full(5, -1.0), np.zeros(5)],
        ids=["shorter-than-c1", "negative", "all-zero"],
    )
    def test_fit_rejects_bad_exposures(self, exposures):
        c1 = np.array([1.0, 1.1, 0.9, 1.2, 1.0])
        c2 = np.array([1.5, 1.6, 1.4, 1.7])
        with pytest.raises(ValidationError, match="positive exposure"):
            fit_params(c1, c2, exposures)

    def test_estimator_cloud_is_nearly_unbiased(self):
        m = paper_model()
        n_rep = 20_000
        cloud = estimator_cloud(m, n_rep, seed=0)
        assert cloud.cloud.shape == (n_rep, 4)
        se = np.sqrt(np.diag(cloud.sigma) / n_rep)
        # sqrt of a variance estimate is slightly biased down; allow for it
        bias_allowance = np.array([0.0, 0.02, 0.0, 0.02])
        assert np.all(np.abs(cloud.mu - m.theta) <= 4.0 * se + bias_allowance)
        # covariance is positive definite (cholesky succeeded inside)
        assert np.all(np.linalg.eigvalsh(cloud.sigma) > 0.0)

    def test_cloud_needs_replications(self):
        with pytest.raises(ValidationError, match="100"):
            estimator_cloud(paper_model(), 50, seed=0)

    def test_cloud_needs_three_accident_years(self):
        with pytest.raises(ValidationError, match="at least 3 accident years"):
            estimator_cloud(GaussianModel(2.0 / 3.0, 0.2, 1.5, 0.2, i0=-2), 2000, seed=0)

    def test_region_radius(self):
        cloud = estimator_cloud(paper_model(), 2000, seed=0)
        region = region_for(cloud, 0.9)
        assert abs(region.radius2 - 7.779440339734858) < 1e-12
        assert region.membership(cloud.mu)


def one_shot_triangles(model, n_years, n_rep, seed):
    """All ``n_rep`` triangles drawn at once, each column from its own substream."""
    v = model.exposures[:n_years]
    e1 = substream(seed, 0).standard_normal((n_rep, n_years))
    e2 = substream(seed, 1).standard_normal((n_rep, n_years - 1))
    c1 = model.beta0 + model.sigma0 / np.sqrt(v) * e1
    c2 = model.beta1 * c1[:, : n_years - 1] + model.sigma1 / np.sqrt(v[: n_years - 1]) * e2
    return c1, c2


class TestCloudBlocks:
    """The cloud is simulated and fitted in blocks; nothing depends on the block size."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "n_rep",
        [100, _CLOUD_BLOCK - 1, _CLOUD_BLOCK, _CLOUD_BLOCK + 1, 3 * _CLOUD_BLOCK + 17],
        ids=["100", "B-1", "B", "B+1", "3B+17"],
    )
    def test_cloud_equals_one_shot_fit(self, n_rep, seed):
        m = paper_model()
        n_years = -m.i0
        c1, c2 = one_shot_triangles(m, n_years, n_rep, seed)
        b0, s0sq, b1, s1sq = _estimators(c1, c2, m.exposures[:n_years])
        cloud = np.column_stack([b0, np.sqrt(s0sq), b1, np.sqrt(s1sq)])
        result = estimator_cloud(m, n_rep, seed)
        np.testing.assert_array_equal(result.cloud, cloud)
        np.testing.assert_array_equal(result.mu, cloud.mean(axis=0))
        np.testing.assert_array_equal(result.sigma, np.cov(cloud, rowvar=False, ddof=1))

    @pytest.mark.parametrize("n_years", [3, 10, 11])
    def test_triangle_is_the_first_one_shot_row(self, n_years):
        m = paper_model()
        c1, c2 = simulate_triangle(m, n_years, seed=5)
        one1, one2 = one_shot_triangles(m, n_years, 4, seed=5)
        np.testing.assert_array_equal(c1, one1[0])
        np.testing.assert_array_equal(c2, one2[0])

    def test_traced_peak_is_a_small_multiple_of_the_cloud(self):
        estimator_cloud(paper_model(), 100, 0)  # scipy.linalg imported before tracing
        tracemalloc.start()
        try:
            result = estimator_cloud(paper_model(), 10**6, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * result.cloud.nbytes


class TestClosedForms:
    def test_r1_frozen_value(self):
        m = paper_model()
        c = gaussian_c(RiskMeasureSpec(VAR, 0.005))
        assert abs(r1_closed_form(2.0 / 3.0, m, c) - 0.8484991940431135) < 1e-12

    def test_r1_matches_empirical_quantile(self):
        m = paper_model()
        q = 0.05
        c = gaussian_c(RiskMeasureSpec(VAR, q))
        rng = np.random.default_rng(5)
        c01 = 0.7
        x2 = m.v0 * (m.beta1 - 1.0) * c01 + math.sqrt(m.v0) * m.sigma1 * rng.standard_normal(10**5)
        assert abs(apply_empirical(RiskMeasureSpec(VAR, q), -x2) - r1_closed_form(c01, m, c)) < 0.01

    def test_g_at_zero_drift(self):
        # with theta1 = base parameters and c = 0 the kink sits at the mean
        m = paper_model()
        g = closed_form_g(np.array([m.beta1, m.sigma1]), 0.5, m, 0.0)
        assert abs(g - 0.2 * 0.3989422804014327) < 1e-12

    def test_g_deep_in_the_money(self):
        m = paper_model()
        # tiny sigma1 under the prior: the option value is just the intrinsic part
        g = closed_form_g(np.array([1.0, 1e-4]), 1.0, m, 1.0)
        intrinsic = m.v0 * (m.beta1 - 1.0) * 1.0 + math.sqrt(m.v0) * m.sigma1 * 1.0
        assert abs(g - intrinsic) < 1e-6

    def test_g_matches_monte_carlo(self):
        m = paper_model()
        rng = np.random.default_rng(11)
        eps = rng.standard_normal(10**6)
        for b1, s1, c01, c in [(1.4, 0.25, 0.6, 1.6), (1.6, 0.1, 0.9, 0.5)]:
            a = m.v0 * (m.beta1 - b1) * c01 + math.sqrt(m.v0) * m.sigma1 * c
            sample = np.maximum(a + math.sqrt(m.v0) * s1 * eps, 0.0)
            se = sample.std() / 1000.0
            got = closed_form_g(np.array([b1, s1]), c01, m, c)
            assert abs(got - sample.mean()) < 4.0 * se

    def test_g_rejects_nonpositive_sigma(self):
        with pytest.raises(ValidationError, match="sigma1"):
            closed_form_g(np.array([1.5, 0.0]), 0.5, paper_model(), 1.0)


class TestStepFamily:
    def test_base_parameters_give_unit_factor(self):
        m = paper_model()
        fam = GaussianStepFamily(m)
        ctx1 = {"eps_m12": np.array([0.3, -1.2]), "eps_01": np.array([0.5, 2.0])}
        np.testing.assert_allclose(fam.step(1, m.theta, ctx1), 1.0, atol=1e-14)
        ctx2 = {"eps_02": np.array([0.4]), "c01": np.array([0.8])}
        np.testing.assert_allclose(fam.step(2, m.theta, ctx2), 1.0, atol=1e-14)

    def test_factors_integrate_to_one(self):
        m = paper_model()
        fam = GaussianStepFamily(m)
        rng = np.random.default_rng(2)
        for _ in range(3):
            th = np.array(
                [rng.uniform(0.3, 1.0), rng.uniform(0.05, 0.5),
                 rng.uniform(1.0, 2.0), rng.uniform(0.05, 0.5)]
            )
            c01 = rng.normal(0.7, 0.3)
            val, _ = quad(
                lambda e: fam.step(2, th, {"eps_02": np.array([e]), "c01": np.array([c01])})[0]
                * norm.pdf(e),
                -40.0, 40.0, limit=200,
            )
            assert abs(val - 1.0) < 1e-8

    def test_rejects_unknown_step(self):
        fam = GaussianStepFamily(paper_model())
        with pytest.raises(ValidationError, match="step"):
            fam.step(3, paper_model().theta, {})

    def test_has_no_lattice_factors(self, binomial_lattice):
        m = paper_model()
        fam = GaussianStepFamily(m)
        with pytest.raises(ValidationError, match="GaussianStepFamily has no lattice factors"):
            density_process(fam, [m.theta], 0, binomial_lattice)
        cf = CashFlowSpec(
            liability=AdaptedProcess(name="X", values={1: np.zeros(2), 2: np.zeros(4)})
        )
        with pytest.raises(ValidationError, match="GaussianStepFamily has no lattice factors"):
            value_multiprior(cf, RiskMeasureSpec(VAR, 0.1), fam, [m.theta], binomial_lattice)

    def test_rejects_nonpositive_volatility(self):
        fam = GaussianStepFamily(paper_model())
        with pytest.raises(ValidationError, match="positive"):
            fam.step(2, np.array([0.6, 0.2, 1.5, 0.0]), {})


class TestBoundarySearch:
    def test_linear_objective_exact_optimum(self):
        sigma = np.diag([1.0, 4.0])
        region = ellipsoid_region(np.array([10.0, 10.0]), sigma, 0.9)
        w = np.array([1.0, -0.5])

        def obj(pts):
            return pts @ w

        exact = w @ region.center + math.sqrt(region.radius2 * w @ sigma @ w)
        for smooth in (False, True):
            val, theta = _boundary_search(
                region, obj, maximize=True, m=128, positive=(), cap=(), smooth=smooth
            )
            assert abs(val - exact) < 1e-8
            assert region.membership(theta)

    def test_point_region_shortcut(self):
        region = point_region(np.array([2.0, 3.0]))
        val, theta = _boundary_search(
            region, lambda pts: pts[:, 0] + pts[:, 1], maximize=True, m=16, positive=(), cap=(),
            smooth=False,
        )
        assert val == 5.0

    @staticmethod
    def grid_then(polish, maximize, smooth):
        """The search's value for an objective that is 0 on the coarse grid and
        ``polish`` on every batch the polish asks for: a single row
        (Nelder-Mead) or 2k + 1 rows (the gradient polish)."""
        region = ellipsoid_region(np.array([10.0, 10.0]), np.diag([1.0, 4.0]), 0.9)
        calls = []

        def obj(pts):
            calls.append(len(pts))
            return np.full(len(pts), 0.0 if len(calls) == 1 else polish)

        val, _ = _boundary_search(
            region, obj, maximize=maximize, m=16, positive=(), cap=(), smooth=smooth
        )
        assert len(calls) > 1 and set(calls[1:]) == {5 if smooth else 1}
        return val

    @pytest.mark.parametrize("maximize, expected", [(True, 1.0), (False, 0.0)])
    def test_polish_is_kept_only_where_it_improves(self, maximize, expected):
        # 1 on the polish's batches: better than the grid when maximizing,
        # worse when minimizing
        for smooth in (False, True):
            assert self.grid_then(1.0, maximize, smooth) == expected

    @pytest.mark.parametrize("maximize", [True, False])
    def test_a_polish_worse_than_the_grid_is_dropped(self, maximize):
        worse = -1.0 if maximize else 1.0
        for smooth in (False, True):
            assert self.grid_then(worse, maximize, smooth) == 0.0

    def test_grid_is_the_cap(self):
        # the coarse grid is the boundary grid's points whose outward normal
        # Sigma^{-1} (theta - mu) is nonnegative on the cap coordinates
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        sigma = a @ a.T + np.eye(4)
        region = ellipsoid_region(rng.normal(size=4), sigma, 0.5)
        batches = []

        def obj(pts):
            batches.append(pts.copy())
            return pts[:, 0]

        _boundary_search(region, obj, maximize=True, m=512, positive=(), cap=(0, 2), smooth=False)
        grid = boundary_grid(region, 512).points
        normal = np.linalg.solve(sigma, (grid - region.center).T)[[0, 2]]
        tol = 1e-9 * np.abs(normal).max()
        seen = {row.tobytes() for row in batches[0]}
        kept = np.array([row.tobytes() in seen for row in grid])
        assert kept.sum() == len(batches[0]) and 64 < len(batches[0]) < 256
        assert np.all(normal[:, kept] >= -tol)
        assert np.all(kept[np.all(normal > tol, axis=0)])

    def test_an_empty_cap_raises(self):
        # the first two points of the 3-D grid both have a negative coordinate
        region = ParamRegion(center=np.zeros(3), chol=np.eye(3), radius2=1.0)
        with pytest.raises(ValidationError, match="cap"):
            _boundary_search(
                region, lambda pts: pts[:, 0], maximize=True, m=2, positive=(), cap=(0, 1, 2),
                smooth=True,
            )

    def test_gradient_polish_never_evaluates_a_nonpositive_coordinate(self, caplog):
        # sqrt(sigma) warns below 0, which pytest makes an error; its minimum
        # over the boundary is at sigma = 0, where the polish's rows cross
        region = ParamRegion(center=np.array([0.0, 1.0]), chol=np.eye(2), radius2=1.02**2)

        def obj(pts):
            assert np.all(pts[:, 1] > 0.0)
            return np.sqrt(pts[:, 1])

        val, theta = _boundary_search(
            region, obj, maximize=False, m=64, positive=(1,), cap=(), smooth=True
        )
        assert theta[1] > 0.0 and val == math.sqrt(theta[1])
        assert "gradient polish stopped" in caplog.text

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradient_polish_reaches_the_exact_case1_upper(self, seed):
        # case1_upper's bilinear objective over random models and ellipses,
        # against its exact maximum from the roots of a quartic
        rng = np.random.default_rng(seed)
        m = GaussianModel(
            beta0=rng.uniform(-2.0, 2.0),
            sigma0=0.2,
            beta1=rng.uniform(-2.0, 2.0),
            sigma1=0.2,
            exposures=rng.uniform(0.25, 4.0, 11),
            c_m11=rng.uniform(-2.0, 2.0),
        )
        chol = np.tril(rng.normal(size=(4, 4)), -1) + np.diag(rng.uniform(0.1, 1.0, 4))
        region = ParamRegion(
            center=rng.uniform(-2.0, 2.0, 4),
            chol=chol * 10.0 ** rng.uniform(-3.0, 1.0),
            radius2=rng.uniform(0.01, 10.0),
        )

        def obj(pts):
            return m.v_m1 * (pts[:, 1] - 1.0) * m.c_m11 + m.v0 * pts[:, 0] * pts[:, 1]

        val, _ = _boundary_search(
            project_region(region, [0, 2]), obj, maximize=True, m=4096, positive=(), cap=(),
            smooth=True,
        )
        exact = case1_upper(m, region)
        assert abs(val - exact) <= 1e-10 * max(1.0, abs(exact))


class TestCaseBounds:
    def setup_method(self):
        self.model = paper_model()
        self.cloud = estimator_cloud(self.model, 5000, seed=0)

    def fast_cfg(self):
        return CaseConfig(rm=RiskMeasureSpec(VAR, 0.05), n=4000, seed=0)

    def test_case1_upper_at_degenerate_region(self):
        region = point_region(self.model.theta)
        assert abs(case1_upper(self.model, region) - 4.0 / 3.0) < 1e-12

    def test_case1_upper_grows_with_the_region(self):
        r1 = region_for(self.cloud, 0.1)
        r9 = region_for(self.cloud, 0.9)
        u1 = case1_upper(self.model, r1)
        u9 = case1_upper(self.model, r9)
        assert 4.0 / 3.0 < u1 < u9

    @pytest.mark.parametrize("p", TABLE1_P)
    def test_case1_upper_matches_a_dense_boundary_maximum(self, p):
        # the seed-0 Table-1 region, against 2^18 evenly spaced boundary angles
        m = self.model
        region = region_for(estimator_cloud(m, 10**5, seed=0), p)
        proj = project_region(region, [0, 2])
        ang = 2.0 * np.pi * np.arange(2**18) / 2**18
        pts = proj.center + math.sqrt(proj.radius2) * (
            np.column_stack([np.cos(ang), np.sin(ang)]) @ proj.chol.T
        )
        dense = np.max(m.v_m1 * (pts[:, 1] - 1.0) * m.c_m11 + m.v0 * pts[:, 0] * pts[:, 1])
        assert abs(case1_upper(m, region) - dense) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flat=st.sampled_from([1.0, 1e-2, 1e-4, 1e-5]))
    def test_case1_upper_is_never_below_a_boundary_grid(self, seed, flat):
        # random models and ellipses; a small ``flat`` makes beta1 nearly a
        # multiple of beta0 on the region, so the projected ellipse nearly a segment
        rng = np.random.default_rng(seed)
        m = GaussianModel(
            beta0=rng.uniform(-2.0, 2.0),
            sigma0=0.2,
            beta1=rng.uniform(-2.0, 2.0),
            sigma1=0.2,
            exposures=rng.uniform(0.25, 4.0, 11),
            c_m11=rng.uniform(-2.0, 2.0),
        )
        chol = np.tril(rng.normal(size=(4, 4)), -1) + np.diag(rng.uniform(0.1, 1.0, 4))
        chol[2, 1:] *= flat
        region = ParamRegion(
            center=rng.uniform(-2.0, 2.0, 4),
            chol=chol * 10.0 ** rng.uniform(-3.0, 1.0),
            radius2=rng.uniform(0.01, 10.0),
        )
        proj = project_region(region, [0, 2])
        ang = 2.0 * np.pi * np.arange(4096) / 4096
        pts = proj.center + math.sqrt(proj.radius2) * (
            np.column_stack([np.cos(ang), np.sin(ang)]) @ proj.chol.T
        )
        lin = m.v_m1 * (pts[:, 1] - 1.0) * m.c_m11
        bil = m.v0 * pts[:, 0] * pts[:, 1]
        scale = np.max(np.abs(lin) + np.abs(m.v_m1 * m.c_m11) + np.abs(bil))
        assert case1_upper(m, region) >= np.max(lin + bil) - 1e-12 * scale

    def test_case1_bounds_ordered(self):
        region = region_for(self.cloud, 0.1)
        lower, upper, arg = case1_bounds(self.fast_cfg(), self.model, region)
        assert lower <= upper
        assert 1.2 < lower < 1.7
        assert region.membership(arg)

    def test_case2_value_and_bounds(self):
        region = region_for(self.cloud, 0.1)
        v0, upper, arg = case2_value(self.fast_cfg(), self.model, region)
        assert v0 <= upper
        assert 1.2 < v0 < 1.8
        assert region.membership(arg)

    def test_case2_at_least_case1(self):
        region = region_for(self.cloud, 0.1)
        lo1, _, _ = case1_bounds(self.fast_cfg(), self.model, region)
        v2, _, _ = case2_value(self.fast_cfg(), self.model, region)
        assert v2 >= lo1 - 0.005

    @pytest.mark.parametrize("v0", [0.25, 4.0])
    def test_case2_upper_is_the_expectation_under_the_statewise_extreme_beta1(self, v0):
        # A region thin in every coordinate but beta1, whose range is [1.3, 1.7]:
        # the bound is E[X_1 + X_2] at theta = (2/3, 0.2, 1.7) with beta1 chosen
        # per state, 1.7 when C_{0,1} > 0 and 1.3 otherwise.  C_{0,1} has
        # standard deviation sigma0 / sqrt(v0).
        m = GaussianModel(
            beta0=2.0 / 3.0, sigma0=0.2, beta1=1.5, sigma1=0.2, exposures=[1.0] * 10 + [v0]
        )
        var_b1 = 0.2**2 / chi2.ppf(0.5, 4)  # radius times standard deviation is 0.2
        region = ellipsoid_region(m.theta, np.diag([1e-16, 1e-16, var_b1, 1e-16]), 0.5)
        b1_min, b1_max = 1.3, 1.7
        b0, sd = m.beta0, m.sigma0 / math.sqrt(v0)

        def mean_c01(lo, hi):  # E[C_{0,1}; lo < eps_{0,1} < hi]
            return quad(lambda e: (b0 + sd * e) * norm.pdf(e), lo, hi, epsabs=1e-14)[0]

        e0 = -b0 / sd  # C_{0,1} = 0
        expected = m.v_m1 * (b1_max - 1.0) * m.c_m11 + m.v0 * (
            b1_max * mean_c01(e0, 12.0) + b1_min * mean_c01(-12.0, e0)
        )
        assert abs(case2_upper(m, region) - expected) < 1e-8

    def test_case2_upper_rejects_beta1_reaching_one(self):
        region = region_for(self.cloud, 1.0 - 1e-12)
        with pytest.raises(ValidationError, match="beta1"):
            case2_upper(self.model, region)

    @pytest.mark.parametrize(
        "bounds, model_beta1, region_beta1, match",
        [
            (case1_bounds, -0.5, None, "beta1 > 0"),
            (case1_bounds, 0.0, None, "beta1 > 0"),
            (case1_bounds, None, 0.0, "beta1 > 0"),
            (case2_value, -0.5, None, "beta1 > 0"),
            (case2_value, None, 0.0, "beta1 > 0"),
            (case2_value, None, 1.0, "beta1 > 1"),
        ],
    )
    def test_lemma_conditions_are_checked_before_any_work(
        self, monkeypatch, bounds, model_beta1, region_beta1, match
    ):
        # a model beta1, or a region centred at a beta1 that its radius
        # reaches below; the base sample must not be drawn
        def drawn(*args):
            raise AssertionError("the base sample was drawn")

        monkeypatch.setattr(ambival.gaussian, "_p_sample", drawn)
        model, region = self.model, region_for(self.cloud, 0.1)
        if model_beta1 is not None:
            model = replace(model, beta1=model_beta1)
        if region_beta1 is not None:
            center = region.center.copy()
            center[2] = region_beta1
            region = replace(region, center=center)
        with pytest.raises(ValidationError, match=match):
            bounds(self.fast_cfg(), model, region)

    def test_case1_upper_rejects_a_numerically_singular_projection(self):
        # the beta1 row of the Cholesky factor is the beta0 row up to 1e-9:
        # the (beta0, beta1) covariance block rounds to a singular one
        chol = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.3, 0.5, 0.0, 0.0],
                [0.8, 0.3e-9, 0.4e-9, 0.0],
                [0.1, 0.2, 0.3, 0.4],
            ]
        )
        region = ParamRegion(center=self.model.theta, chol=0.01 * chol, radius2=1.0)
        with pytest.raises(ValidationError, match=r"coordinates \[0, 2\] is numerically singular"):
            case1_upper(self.model, region)

    def test_threads_do_not_change_the_result(self):
        region = region_for(self.cloud, 0.1)
        for rm in (RiskMeasureSpec(VAR, 0.05), RiskMeasureSpec(AVAR, 0.05)):
            cfg = replace(self.fast_cfg(), rm=rm)
            for bounds in (case1_bounds, case2_value):
                lo1, up1, arg1 = bounds(cfg, self.model, region)
                lo2, up2, arg2 = bounds(replace(cfg, threads=2), self.model, region)
                assert (lo1, up1) == (lo2, up2)
                np.testing.assert_array_equal(arg1, arg2)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="n >= 1000"):
            CaseConfig(rm=RiskMeasureSpec(VAR, 0.05), n=10)

    @pytest.mark.parametrize(
        "bad", [{"threads": 0}, {"threads": -3}], ids=["threads=0", "threads=-3"],
    )
    def test_config_checks_its_bounds(self, bad):
        (name,) = bad
        with pytest.raises(ValidationError, match=f"{name} must be at least"):
            CaseConfig(rm=RiskMeasureSpec(VAR, 0.05), **bad)


class TestCase1R0:
    """The case-1 time-0 risk measure from candidate paths against the full sample."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(1000, 20000), st.integers(5, 100).map(lambda k: 200 * k)),
        seed=st.integers(0, 2**32),
        decimals=st.sampled_from([None, 1, 2, 3]),
        bin_size=st.sampled_from([1, 2, 7, 128, 1000]),
        kind=st.sampled_from([VAR, AVAR]),
        level=st.one_of(st.sampled_from([0.25, 0.1, 0.05, 0.01, 0.005]), st.floats(1e-4, 0.5)),
        beta1=st.one_of(st.just(paper_model().beta1), st.floats(0.5, 2.5)),
        sigma1=st.one_of(st.sampled_from([1e-8, 1e-3, 1e3, 1e6]), st.floats(0.01, 1.0)),
    )
    def test_equals_the_full_measure_bit_for_bit(
        self, n, seed, decimals, bin_size, kind, level, beta1, sigma1
    ):
        # n a multiple of 200 makes (1 - q) n whole for the listed levels;
        # rounding C_{0,1} repeats values across the bin cuts, and beta1 equal
        # to the model's makes g constant.
        m = paper_model()
        rm = RiskMeasureSpec(kind, level)
        c = gaussian_c(rm)
        base = _p_sample(m, n, seed, c)
        assert np.all(np.diff(base.c01) >= 0.0)
        if decimals is not None:
            base = _BaseSample(np.round(base.c01, decimals), base.y)
        theta1 = np.array([beta1, sigma1])
        full = apply_empirical(rm, -(base.y - closed_form_g(theta1, base.c01, m, c)))
        with mock.patch.object(ambival.gaussian, "_BIN", bin_size):
            got = _Case1R0(rm, base, m, c)(theta1)
        assert np.float64(got).tobytes() == np.float64(full).tobytes()

    @pytest.mark.parametrize(
        "theta1", [[np.nan, 0.2], [1.5, np.inf]], ids=["beta1=nan", "sigma1=inf"]
    )
    def test_non_finite_g_is_rejected_as_by_the_full_measure(self, theta1):
        m = paper_model()
        rm = RiskMeasureSpec(VAR, 0.05)
        c = gaussian_c(rm)
        base = _p_sample(m, 2000, 0, c)
        theta1 = np.array(theta1)
        with pytest.raises(ValidationError, match="non-finite sample values"):
            apply_empirical(rm, -(base.y - closed_form_g(theta1, base.c01, m, c)))
        with pytest.raises(ValidationError, match="non-finite sample values"):
            _Case1R0(rm, base, m, c)(theta1)

    def test_non_finite_sample_is_rejected(self):
        m = paper_model()
        rm = RiskMeasureSpec(AVAR, 0.05)
        base = _p_sample(m, 2000, 0, gaussian_c(rm))
        base.y[1500] = np.inf
        with pytest.raises(ValidationError, match="non-finite sample values"):
            _Case1R0(rm, base, m, gaussian_c(rm))


class TestCase1Value:
    """The pruned case-1 value against a sweep that computes every theta."""

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.floats(0.05, 0.95),
        kind=st.sampled_from([VAR, AVAR]),
        level=st.sampled_from([0.005, 0.01, 0.05, 0.1, 0.2]),
        n=st.integers(1000, 5000),
        cloud_seed=st.integers(0, 3),
        seed=st.integers(0, 2**32),
        base=st.sampled_from([(0.2, 0.2), (1e-6, 0.2), (0.2, 2.0), (1e-6, 2.0)]),
        toward=st.sampled_from([-np.inf, np.inf]),
    )
    def test_pruned_search_equals_the_full_sweep(
        self, p, kind, level, n, cloud_seed, seed, base, toward
    ):
        # The region is the paper model's; the base measure's (sigma0, sigma1)
        # vary.  A small sigma0 makes the max|C_{0,1}| term of the R_0 bound
        # sharp, and a large sigma1 puts R_0 far in the tail of the loss under
        # the region's theta, where the value hardly moves with R_0.  Each
        # grid point's copy one ulp away in (beta1, sigma1) then has a value
        # bound equal to its value up to rounding.
        paper = paper_model()
        m = replace(paper, sigma0=base[0], sigma1=base[1])
        region = region_for(estimator_cloud(paper, 1000, seed=cloud_seed), p)
        cfg = CaseConfig(rm=RiskMeasureSpec(kind, level), n=n, seed=seed)
        value = _Case1Value(cfg, m)
        grid = boundary_grid(region, 512, positive=(1, 3)).points
        near = grid.copy()
        near[:, 2:] = np.nextafter(grid[:, 2:], toward)
        for thetas in (grid, interior_grid(region, 64, positive=(1, 3)), np.vstack([grid, near])):
            full, pruned = value.exact(thetas), value(thetas)
            best = int(np.argmax(full))
            assert int(np.argmax(pruned)) == best
            assert pruned[best].tobytes() == full[best].tobytes()
            assert np.all(pruned >= full)
            ties = full == full[best]
            assert np.all(pruned[~ties] < pruned[best])
            assert pruned[ties].tobytes() == full[ties].tobytes()
        got = case1_bounds(cfg, m, region)
        with mock.patch.object(_Case1Value, "__call__", _Case1Value.exact):
            swept = case1_bounds(cfg, m, region)
        assert np.array(got[:2]).tobytes() == np.array(swept[:2]).tobytes()
        assert got[2].tobytes() == swept[2].tobytes()

    def test_a_single_row_is_exact_bit_for_bit(self):
        m = paper_model()
        region = region_for(estimator_cloud(m, 1000, seed=0), 0.5)
        value = _Case1Value(CaseConfig(rm=RiskMeasureSpec(AVAR, 0.05), n=2000, seed=0), m)
        thetas = np.vstack(
            [boundary_grid(region, 16, positive=(1, 3)).points, interior_grid(region, 8, positive=(1, 3))]
        )
        for theta in thetas:
            assert value(theta[None, :]).tobytes() == value.exact(theta[None, :]).tobytes()
        best = int(np.argmax(value(thetas)))
        assert value(thetas)[best].tobytes() == value(thetas[[best]])[0].tobytes()

    def test_batched_deficit_equals_each_row_alone(self):
        m = paper_model()
        region = region_for(estimator_cloud(m, 1000, seed=0), 0.5)
        thetas = boundary_grid(region, 37, positive=(1, 3)).points
        r0 = np.linspace(1.3, 1.6, len(thetas))
        c = gaussian_c(RiskMeasureSpec(VAR, 0.05))

        def g(th, c01):
            return closed_form_g(th[:, None, [2, 3]], c01, m, c)

        batch = _deficit(m, thetas, r0, c, g, _hermite_nodes())
        alone = [_deficit(m, t[None, :], r0[[i]], c, g, _hermite_nodes()) for i, t in enumerate(thetas)]
        assert batch.tobytes() == np.concatenate(alone).tobytes()


@st.composite
def monotone_problems(draw):
    """``(model, region, thetas, steps)``: a random model and region with beta1 > 0
    and positive volatilities over the region, as well as the model's beta1 > 0;
    points inside the region and an upward step of 1e-3 to 3e-2 for each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = GaussianModel(
        beta0=rng.uniform(0.2, 2.0),
        sigma0=rng.uniform(0.05, 0.5),
        beta1=rng.uniform(0.1, 2.5),
        sigma1=rng.uniform(0.05, 0.5),
        exposures=rng.uniform(0.25, 4.0, 11),
        c_m11=rng.uniform(-1.0, 2.0),
    )
    sd = m.theta * rng.uniform(0.02, 0.2, 4)
    a = rng.normal(size=(4, 4))
    cov = a @ a.T + 4.0 * np.eye(4)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    region = ellipsoid_region(
        m.theta + rng.normal(0.0, sd), sd[:, None] * corr * sd[None, :], draw(st.floats(0.1, 0.9))
    )
    r = math.sqrt(region.radius2)
    lowest = region.center - r * np.sqrt(np.sum(region.chol**2, axis=1))
    assume(np.all(lowest[1:] > 0.0))
    s = rng.normal(size=(8, 4))
    s *= rng.uniform(0.0, 1.0, (8, 1)) ** 0.25 / np.linalg.norm(s, axis=1, keepdims=True)
    thetas = region.center + r * s @ region.chol.T
    return m, region, thetas, rng.uniform(1e-3, 3e-2, 8)


def moved(region, thetas, steps, coord):
    """The rows of ``thetas`` whose step up in ``coord`` stays in the region, before and after."""
    up = thetas.copy()
    up[:, coord] += steps
    inside = region.mahalanobis2(up) <= region.radius2
    return thetas[inside], up[inside]


class TestMonotoneInBeta0:
    """The boundary-attainment lemma of ``case1_bounds`` and ``case2_value``:
    with beta1 > 0 over the region and the model's beta1 > 0, the case-1 value
    does not fall and the case-2 deficit does not rise when beta0 rises; the
    case-2 deficit neither when beta1 rises and ``c_{-1,1} > 0``."""

    @settings(max_examples=30, deadline=None)
    @given(
        problem=monotone_problems(),
        kind=st.sampled_from([VAR, AVAR]),
        level=st.sampled_from([0.005, 0.05, 0.1]),
        seed=st.integers(0, 2**32),
    )
    def test_case1_value_is_nondecreasing_in_beta0(self, problem, kind, level, seed):
        m, region, thetas, steps = problem
        lo, hi = moved(region, thetas, steps, 0)
        assume(len(lo))
        value = _Case1Value(CaseConfig(rm=RiskMeasureSpec(kind, level), n=1000, seed=seed), m)
        before, after = value.exact(lo), value.exact(hi)
        scale = np.maximum(1.0, np.maximum(np.abs(before), np.abs(after)))
        assert np.all(after >= before - 1e-12 * scale)

    @settings(max_examples=30, deadline=None)
    @given(
        problem=monotone_problems(),
        kind=st.sampled_from([VAR, AVAR]),
        level=st.sampled_from([0.005, 0.05, 0.1]),
        u0=st.floats(-2.0, 2.0),
    )
    def test_case2_deficit_is_nonincreasing_in_beta0_and_beta1(self, problem, kind, level, u0):
        m, region, thetas, steps = problem
        c = gaussian_c(RiskMeasureSpec(kind, level))
        arcs = _pareto_arcs(boundary_grid(project_region(region, [2, 3]), 64, positive=(1,)).points)

        def h(th, c01):
            return _h_exact(m, arcs, c01, c)

        # r0 is the time-0 loss at the region's center where eps_{0,1} = u0
        c01, y = _x1_plus_r1(m, region.center, 0.0, np.array([u0]), c)
        r0 = float(y[0] - h(None, c01)[0])
        coords = (0, 2) if m.c_m11 > 0.0 else (0,)
        for coord in coords:
            lo, hi = moved(region, thetas, steps, coord)
            if not len(lo):
                continue
            before, after = (
                _deficit(m, th, np.full(len(th), r0), c, h, _hermite_nodes()) for th in (lo, hi)
            )
            scale = np.maximum(1.0, np.maximum(np.abs(before), np.abs(after)))
            assert np.all(after <= before + 1e-12 * scale)


class TestTimeZeroDeficit:
    """The time-0 deficit expectation by Gauss-Hermite quadrature, on the seed-0 p = 0.9 region."""

    @pytest.fixture(scope="class")
    def region(self):
        return region_for(estimator_cloud(paper_model(), 10**5, seed=0), 0.9)

    @pytest.mark.parametrize("kind", [VAR, AVAR])
    @pytest.mark.parametrize("case", [1, 2])
    def test_agrees_with_monte_carlo(self, region, case, kind):
        # The reference is a Monte Carlo mean over 10^6 paths simulated under
        # theta from the model's equations.  The time-1 value is closed_form_g
        # under theta (case 1) or h over 24 boundary points of the projected
        # region (case 2; the cells use 360, which makes the reference slow).
        m = paper_model()
        rm = RiskMeasureSpec(kind, 0.01)
        c = gaussian_c(rm)
        eps_m12, eps_01 = simulate_paths(2, 10**6, seed=7).T
        base = _p_sample(m, 10**5, 0, c)
        arcs = _pareto_arcs(boundary_grid(project_region(region, [2, 3]), 24, positive=(1,)).points)
        rng = np.random.default_rng(case)
        on = boundary_grid(region, 64, positive=(1, 3)).points[rng.choice(64, 2, replace=False)]
        inside = interior_grid(region, 64, positive=(1, 3))[rng.choice(64, 2, replace=False)]
        for theta in np.vstack([on, inside]):

            def time1(c01, theta=theta):
                if case == 1:
                    return closed_form_g(theta[[2, 3]], c01, m, c)
                return _h_exact(m, arcs, c01, c)

            r0 = apply_empirical(rm, -(base.y - time1(base.c01)))
            b0, s0, b1, s1 = theta
            c01 = b0 + s0 / math.sqrt(m.v0) * eps_01
            x1 = m.v_m1 * (b1 - 1.0) * m.c_m11 + math.sqrt(m.v_m1) * s1 * eps_m12 + m.v0 * c01
            sample = np.maximum(r0 - (x1 + r1_closed_form(c01, m, c) - time1(c01)), 0.0)
            se = sample.std(ddof=1) / math.sqrt(len(sample))
            got = _deficit(
                m, theta[None, :], np.array([r0]), c, lambda th, c01: time1(c01), _hermite_nodes()
            )[0]
            assert se > 1e-4 and abs(got - sample.mean()) < 4.0 * se

    @pytest.mark.parametrize("case, tol", [(1, 1e-10), (2, 1e-6)])
    def test_lower_value_converges_in_the_node_count(self, monkeypatch, region, case, tol):
        m = paper_model()
        cfg = CaseConfig(rm=RiskMeasureSpec(VAR, 0.005), n=10**4, seed=0)
        bounds = case1_bounds if case == 1 else case2_value
        k = ambival.gaussian._NODES
        lower = []
        for nodes in (k, 2 * k):
            monkeypatch.setattr(ambival.gaussian, "_NODES", nodes)
            lower.append(bounds(cfg, m, region)[0])
        assert abs(lower[0] - lower[1]) < tol


class TestHFit:
    def test_degenerate_region_reproduces_g(self):
        m = paper_model()
        c = gaussian_c(RiskMeasureSpec(VAR, 0.01))
        proj = point_region(np.array([m.beta1, m.sigma1]))
        h = fit_h(m, proj, c)
        np.testing.assert_allclose(
            h(h.knots), closed_form_g(np.array([m.beta1, m.sigma1]), h.knots, m, c),
            atol=1e-12,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        beta1=st.floats(0.5, 2.5),
        sigma1=st.floats(0.05, 1.0),
        sd=st.tuples(st.floats(1e-3, 0.5), st.floats(1e-3, 1.0 / 3.0)),
        rho=st.one_of(st.just(0.0), st.floats(-0.99, 0.99)),
        p=st.floats(0.05, 0.95),
        m_points=st.sampled_from([2, 3, 5, 24, 360]),
        c01=st.lists(
            st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-12, 1e-12), st.sampled_from([0.0, -0.0])),
            min_size=1, max_size=40,
        ),
        repeat=st.integers(0, 3),
    )
    def test_h_on_the_arcs_is_the_grid_minimum(
        self, beta1, sigma1, sd, rho, p, m_points, c01, repeat
    ):
        # sd[1] is relative to sigma1, so the grid keeps sigma1 > 0
        m = paper_model()
        c = gaussian_c(RiskMeasureSpec(VAR, 0.05))
        s_b, s_s = sd[0], sd[1] * sigma1 / math.sqrt(chi2.ppf(p, 2))
        cov = np.array([[s_b**2, rho * s_b * s_s], [rho * s_b * s_s, s_s**2]])
        points = boundary_grid(ellipsoid_region(np.array([beta1, sigma1]), cov, p), m_points).points
        c01 = np.array(c01 + [0.0] + c01[:repeat])
        full = closed_form_g(points[:, None, :], c01[None, :], m, c).min(axis=0)
        arcs = _pareto_arcs(points)
        assert _h_exact(m, arcs, c01, c).tobytes() == full.tobytes()
        for arc in arcs:
            assert arc.ndim == 2 and 1 <= len(arc) <= len(points)

    @pytest.mark.parametrize("p", TABLE1_P)
    def test_knots_are_the_grid_minimum(self, p):
        # the seed-0 Table-1 region: h over all 360 boundary points at the knots
        m = paper_model()
        c = gaussian_c(RiskMeasureSpec(VAR, 0.01))
        proj = project_region(region_for(estimator_cloud(m, 10**5, seed=0), p), [2, 3])
        h = fit_h(m, proj, c)
        points = boundary_grid(proj, 360, positive=(1,)).points
        full = closed_form_g(points[:, None, :], h.knots[None, :], m, c).min(axis=0)
        assert h.values.tobytes() == full.tobytes()
        assert sum(len(arc) for arc in h.points) < len(points)

    def test_clamping_is_counted(self):
        m = paper_model()
        c = gaussian_c(RiskMeasureSpec(VAR, 0.05))
        h = fit_h(m, point_region(np.array([m.beta1, m.sigma1])), c)
        h(np.array([100.0, -100.0, m.beta0]))
        assert h.n_clamped == 2


class TestTableAndFigure:
    def test_figure_data_shapes(self, tmp_path):
        # Figure 1 is built by the CLI's figure1 command; its scatters are
        # columns of the estimator cloud drawn with the same seed.
        assert main(["--command", "figure1", "--out", str(tmp_path), "--seed", "2"]) == 0
        cloud = estimator_cloud(paper_model(), FIGURE1_N_REP, 2).cloud
        for (x, y), coords in (("beta0", "beta1"), [0, 2]), (("beta1", "sigma1"), [2, 3]):
            text = (tmp_path / f"figure1_scatter_{x}_{y}.csv").read_text()
            assert text.startswith(f"{x},{y}\n")
            scatter = np.array([line.split(",") for line in text.splitlines()[1:]])
            assert scatter.shape == (1000, 2)
            np.testing.assert_array_equal(scatter.astype(float), cloud[:, coords])
