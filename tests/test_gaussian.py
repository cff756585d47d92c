"""Two-period Gaussian chain-ladder study: closed forms, searches, table and figure."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ambival.errors import ValidationError
from ambival.gaussian import (
    CASE1,
    CaseConfig,
    CloudResult,
    GaussianModel,
    GaussianStepFamily,
    Table1Result,
    _boundary_search,
    case1_bounds,
    case1_upper,
    case2_upper,
    case2_value,
    closed_form_g,
    estimator_cloud,
    figure1_csv,
    figure1_data,
    fit_h,
    fit_params,
    paper_model,
    r1_closed_form,
    region_for,
    simulate_triangle,
    table1_csv,
)
from ambival.priors import density_process, point_region, project_region
from ambival.riskmeasures import AVAR, VAR, RiskMeasureSpec, apply_empirical, gaussian_c
from ambival.scenario import AdaptedProcess
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

    def test_region_radius(self):
        cloud = estimator_cloud(paper_model(), 2000, seed=0)
        region = region_for(cloud, 0.9)
        assert abs(region.radius2 - 7.779440339734858) < 1e-12
        assert region.membership(cloud.mu)


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
            density_process(fam, m.theta, binomial_lattice)
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
        from ambival.priors import ellipsoid_region

        sigma = np.diag([1.0, 4.0])
        region = ellipsoid_region(np.array([10.0, 10.0]), sigma, 0.9, 2)
        w = np.array([1.0, -0.5])

        def obj(pts):
            return pts @ w

        val, theta = _boundary_search(region, obj, maximize=True, m=128, positive=())
        exact = w @ region.center + math.sqrt(region.radius2 * w @ sigma @ w)
        assert abs(val - exact) < 1e-8
        assert region.membership(theta)

    def test_point_region_shortcut(self):
        region = point_region(np.array([2.0, 3.0]))
        val, theta = _boundary_search(
            region, lambda pts: pts[:, 0] + pts[:, 1], maximize=True, m=16, positive=()
        )
        assert val == 5.0


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

    def test_case2_upper_rejects_beta1_reaching_one(self):
        region = region_for(self.cloud, 1.0 - 1e-12)
        with pytest.raises(ValidationError, match="beta1"):
            case2_upper(self.model, region)

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


class TestHFit:
    def test_degenerate_region_reproduces_g(self):
        m = paper_model()
        c = gaussian_c(RiskMeasureSpec(VAR, 0.01))
        proj = point_region(np.array([m.beta1, m.sigma1]))
        h = fit_h(m, proj, c, knots=32)
        np.testing.assert_allclose(
            h(h.knots), closed_form_g(np.array([m.beta1, m.sigma1]), h.knots, m, c),
            atol=1e-12,
        )

    def test_clamping_is_counted(self):
        m = paper_model()
        c = gaussian_c(RiskMeasureSpec(VAR, 0.05))
        h = fit_h(m, point_region(np.array([m.beta1, m.sigma1])), c, knots=16)
        h(np.array([100.0, -100.0, m.beta0]))
        assert h.n_clamped == 2

    def test_needs_enough_knots(self):
        m = paper_model()
        with pytest.raises(ValidationError, match="knots"):
            fit_h(m, point_region(np.array([m.beta1, m.sigma1])), 1.0, knots=4)


class TestTableAndFigure:
    def test_table_csv_format(self):
        result = Table1Result(
            rows=[{"case": CASE1, "p": 0.1, "q": 0.05, "lower": 1.25, "upper": 1.5,
                   "n": 1000, "seed": 0}],
            mu=np.zeros(4), sigma=np.eye(4),
        )
        text = table1_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "case,p,q,lower,upper,n,seed"
        assert lines[1] == "CASE1,0.1,0.05,1.25,1.5,1000,0"

    def test_figure_data_shapes(self):
        data = figure1_data(n_rep=1000, seed=0)
        for stem, pts in data.scatter.items():
            assert pts.shape == (1000, 2)
        files = figure1_csv(data)
        assert set(files) == {
            "figure1_scatter_beta0_beta1.csv",
            "figure1_scatter_beta1_sigma1.csv",
            "figure1_ellipse_p0.1.csv",
            "figure1_ellipse_p0.9.csv",
        }
        scatter = files["figure1_scatter_beta0_beta1.csv"].strip().split("\n")
        assert scatter[0] == "beta0,beta1"
        assert len(scatter) == 1001

    def test_figure_ellipses_close_and_sit_on_the_boundary(self):
        data = figure1_data(n_rep=1000, seed=0)
        region = region_for(data.cloud, 0.9)
        for plane, pts in data.ellipses["figure1_ellipse_p0.9"]:
            np.testing.assert_array_equal(pts[0], pts[-1])
            coords = [0, 2] if plane == "beta0_beta1" else [2, 3]
            proj = project_region(region, coords)
            np.testing.assert_allclose(
                proj.mahalanobis2(pts), proj.radius2, atol=1e-8
            )
