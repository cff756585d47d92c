"""Two-period Gaussian chain-ladder case study.

A liability run-off over two development periods with Gaussian increments:

    C_{i,1} = beta0 + (sigma0 / sqrt(v_i)) e_{i,1}
    C_{i,2} = beta1 C_{i,1} + (sigma1 / sqrt(v_i)) e_{i,2}

Parameter ambiguity is an ellipsoidal region around the regression estimators
of ``theta = (beta0, sigma0, beta1, sigma1)``.  The time-1 layer of the
valuation recursion is available in closed form, so only the time-0 layer
needs Monte Carlo.  Two ambiguity attitudes are supported:

* case 1: one fixed parameter vector for the whole run-off (bounds only);
* case 2: the rectangular hull, re-selecting parameters each period (the
  recursion value itself, plus a nested-supremum upper bound).

All sampling is seeded and deterministic; worst-case searches use
deterministic low-discrepancy boundary grids with local refinement.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.special import ndtr

from . import scenario
from .errors import ValidationError
from .priors import (
    DensityFamily,
    ParamRegion,
    boundary_grid,
    ellipsoid_region,
    interior_grid,
    project_region,
)
from .riskmeasures import VAR, RiskMeasureSpec, apply_empirical, gaussian_c

logger = logging.getLogger(__name__)

CASE1 = "CASE1"
CASE2 = "CASE2"

_SIGMA_FLOOR = 1e-12
_M_SEARCH = 512  # coarse full-dimensional boundary grid of the worst-case searches

# coordinate layout of theta vectors
_B0, _S0, _B1, _S1 = 0, 1, 2, 3

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _npdf(x: np.ndarray) -> np.ndarray:
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


@dataclass
class GaussianModel:
    """Base-measure parameters and exposures of the two-period run-off.

    ``exposures[j]`` is the exposure of accident year ``i0 + j`` (the last
    entry is year 0).  ``c_m11`` is the known first-column amount of year -1.
    """

    beta0: float
    sigma0: float
    beta1: float
    sigma1: float
    i0: int = -10
    exposures: Optional[np.ndarray] = None
    c_m11: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sigma0 < 0.0 or self.sigma1 < 0.0:
            raise ValidationError("volatilities must be nonnegative")
        self.sigma0 = max(float(self.sigma0), _SIGMA_FLOOR)
        self.sigma1 = max(float(self.sigma1), _SIGMA_FLOOR)
        if self.i0 >= -1:
            raise ValidationError("first accident year must precede year -1")
        n_years = -self.i0 + 1
        if self.exposures is None:
            self.exposures = np.ones(n_years)
        self.exposures = np.asarray(self.exposures, dtype=np.float64)
        if self.exposures.shape != (n_years,) or np.any(self.exposures <= 0.0):
            raise ValidationError("need one positive exposure per accident year")
        if self.c_m11 is None:
            self.c_m11 = self.beta0

    @property
    def v0(self) -> float:
        return float(self.exposures[-1])

    @property
    def v_m1(self) -> float:
        return float(self.exposures[-2])

    @property
    def theta(self) -> np.ndarray:
        return np.array([self.beta0, self.sigma0, self.beta1, self.sigma1])


def paper_model() -> GaussianModel:
    """The numerical-illustration setup: theta = (2/3, 1/5, 3/2, 1/5), unit exposures."""
    return GaussianModel(beta0=2.0 / 3.0, sigma0=0.2, beta1=1.5, sigma1=0.2)


@dataclass
class CaseConfig:
    """Knobs for one bound computation."""

    rm: RiskMeasureSpec
    n: int = 10**5
    seed: int = 0
    m_boundary: int = 360  # 2-dim projected boundaries
    knots: int = 64
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n < 10**3:
            raise ValidationError("statistical runs need n >= 1000")


# ---------------------------------------------------------------------------
# triangles and estimators
# ---------------------------------------------------------------------------


def simulate_triangle(
    model: GaussianModel, n_years: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One observed run-off triangle: ``n_years`` first-column values and
    ``n_years - 1`` second-column values (the youngest year is undeveloped)."""
    if n_years < 3:
        raise ValidationError("estimators need at least 3 accident years")
    c1, c2 = _simulate_triangles(model, n_years, 1, seed)
    return c1[0], c2[0]


def _simulate_triangles(
    model: GaussianModel, n_years: int, n_rep: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    v = model.exposures[:n_years]
    e1 = scenario.substream(seed, 0).standard_normal((n_rep, n_years))
    e2 = scenario.substream(seed, 1).standard_normal((n_rep, n_years - 1))
    c1 = model.beta0 + model.sigma0 / np.sqrt(v) * e1
    c2 = model.beta1 * c1[:, : n_years - 1] + model.sigma1 / np.sqrt(v[: n_years - 1]) * e2
    return c1, c2


def fit_params(
    c1: np.ndarray, c2: np.ndarray, exposures: Optional[np.ndarray] = None
) -> Tuple[float, float, float, float]:
    """Regression estimators ``(beta0_hat, sigma0sq_hat, beta1_hat, sigma1sq_hat)``.

    ``beta0_hat`` is the exposure-weighted mean of the first column;
    ``beta1_hat`` regresses the second column on the first through the
    origin.  Variance estimators divide by (years - 1) so all four statistics
    are unbiased.
    """
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    if len(c1) < 3 or len(c2) < 3:
        raise ValidationError("estimators need at least 3 years per column")
    if len(c2) >= len(c1):
        raise ValidationError("second column must be shorter than the first (run-off triangle)")
    v1 = np.ones(len(c1)) if exposures is None else np.asarray(exposures, dtype=np.float64)
    b0, s0sq, b1, s1sq = _estimators(c1[None, :], c2[None, :], v1[: len(c1)])
    return float(b0[0]), float(s0sq[0]), float(b1[0]), float(s1sq[0])


def _estimators(
    c1: np.ndarray, c2: np.ndarray, v1: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four estimators of :func:`fit_params` for each row of a batch of triangles."""
    n1, n2 = c1.shape[1], c2.shape[1]
    v2 = v1[:n2]
    c1h = c1[:, :n2]
    b0 = c1 @ v1 / v1.sum()
    s0sq = ((c1 - b0[:, None]) ** 2) @ v1 / (n1 - 1)
    denom = (v2 * c1h**2).sum(axis=1)
    if np.any(denom == 0.0):
        raise ValidationError("degenerate regression: sum v_i C_{i,1}^2 is zero")
    b1 = (v2 * c1h * c2).sum(axis=1) / denom
    s1sq = (v2 * (c2 - b1[:, None] * c1h) ** 2).sum(axis=1) / (n2 - 1)
    return b0, s0sq, b1, s1sq


@dataclass
class CloudResult:
    mu: np.ndarray  # 4-vector, sigmas as standard deviations
    sigma: np.ndarray  # 4x4 sample covariance
    cloud: np.ndarray  # (n_rep, 4)


def estimator_cloud(model: GaussianModel, n_rep: int, seed: int) -> CloudResult:
    """Repeatedly re-estimate the parameters from fresh simulated triangles.

    Returns the sample mean and covariance of the estimate vectors; the
    volatility coordinates are the square roots of the variance estimators.
    """
    if n_rep < 100:
        raise ValidationError("estimator cloud needs at least 100 replications")
    n_years = -model.i0  # years i0 .. -1 observed with both columns shifted
    c1, c2 = _simulate_triangles(model, n_years, n_rep, seed)
    b0, s0sq, b1, s1sq = _estimators(c1, c2, model.exposures[:n_years])
    cloud = np.column_stack([b0, np.sqrt(s0sq), b1, np.sqrt(s1sq)])
    mu = cloud.mean(axis=0)
    sigma = np.cov(cloud, rowvar=False, ddof=1)
    try:
        scipy.linalg.cholesky(sigma, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(
            f"singular estimator covariance (n_rep={n_rep} too small): {exc}"
        ) from exc
    return CloudResult(mu=mu, sigma=sigma, cloud=cloud)


def region_for(cloud: CloudResult, p: float) -> ParamRegion:
    """Approximate confidence ellipsoid at level ``p`` for the 4 parameters."""
    return ellipsoid_region(cloud.mu, cloud.sigma, p, 4)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def r1_closed_form(c01, model: GaussianModel, c: float):
    """Time-1 capital requirement ``R_1 = v0 (beta1 - 1) C_{0,1} + sqrt(v0) sigma1 c``."""
    c01 = np.asarray(c01, dtype=np.float64)
    out = model.v0 * (model.beta1 - 1.0) * c01 + math.sqrt(model.v0) * model.sigma1 * c
    return float(out) if out.ndim == 0 else out


def closed_form_g(theta1, c01, model: GaussianModel, c: float):
    """Worst-prior-free time-1 value of the deficit option under one prior.

    ``g = a Phi(a/b) + b phi(a/b)`` with ``a = v0 (beta1_P - beta1) C_{0,1}
    + sqrt(v0) sigma1_P c`` and ``b = sqrt(v0) sigma1``; this is the exact
    conditional expectation under the selected prior of the positive part of
    the time-1 surplus.  Broadcasts over arrays of ``theta1`` and ``c01``.
    """
    theta1 = np.asarray(theta1, dtype=np.float64)
    beta1, sigma1 = theta1[..., 0], theta1[..., 1]
    if np.any(sigma1 <= 0.0):
        raise ValidationError("closed form needs sigma1 > 0")
    c01 = np.asarray(c01, dtype=np.float64)
    a = model.v0 * (model.beta1 - beta1) * c01 + math.sqrt(model.v0) * model.sigma1 * c
    b = math.sqrt(model.v0) * sigma1
    z = a / b
    out = a * ndtr(z) + b * _npdf(z)
    return float(out) if out.ndim == 0 else out


class GaussianStepFamily(DensityFamily):
    """One-step density factors of the parametric measure change.

    The factor at each step is the product over newly revealed cells of
    ``phi(eps; mu, s^2) / phi(eps; 0, 1)``, with the mean shift and scale
    implied by requiring the chain-ladder recursion to hold with parameters
    ``theta`` under the new measure.  ``context`` supplies the innovations:
    ``{"eps_m12": ..., "eps_01": ...}`` at t = 1 and
    ``{"eps_02": ..., "c01": ...}`` at t = 2.
    """

    dim = 4

    def __init__(self, model: GaussianModel, region: Optional[ParamRegion] = None) -> None:
        self.model = model
        self.region = region

    @staticmethod
    def _ratio(eps, mu, s):
        eps = np.asarray(eps, dtype=np.float64)
        z = (eps - mu) / s
        return np.exp(0.5 * eps**2 - 0.5 * z * z) / s

    def step(self, t: int, theta, context):
        theta = np.asarray(theta, dtype=np.float64)
        b0, s0, b1, s1 = theta
        if s0 <= 0.0 or s1 <= 0.0:
            raise ValidationError("density factor needs positive volatilities")
        m = self.model
        if t == 1:
            mu_m12 = (b1 - m.beta1) / (m.sigma1 / math.sqrt(m.v_m1)) * m.c_m11
            mu_01 = (b0 - m.beta0) / (m.sigma0 / math.sqrt(m.v0))
            out = self._ratio(context["eps_m12"], mu_m12, s1 / m.sigma1) * self._ratio(
                context["eps_01"], mu_01, s0 / m.sigma0
            )
        elif t == 2:
            mu_02 = (b1 - m.beta1) / (m.sigma1 / math.sqrt(m.v0)) * np.asarray(context["c01"])
            out = self._ratio(context["eps_02"], mu_02, s1 / m.sigma1)
        else:
            raise ValidationError(f"the two-period model has no step {t}")
        return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# worst-case parameter searches
# ---------------------------------------------------------------------------


def _angles_to_sphere(phis: np.ndarray, k: int) -> np.ndarray:
    s = np.ones(k)
    for j in range(k - 1):
        s[j] *= math.cos(phis[j])
        s[j + 1 :] *= math.sin(phis[j])
    return s


def _sphere_to_angles(s: np.ndarray) -> np.ndarray:
    k = len(s)
    phis = np.zeros(k - 1)
    for j in range(k - 2):
        phis[j] = math.atan2(float(np.linalg.norm(s[j + 1 :])), float(s[j]))
    phis[k - 2] = math.atan2(float(s[k - 1]), float(s[k - 2]))
    return phis


def _boundary_search(
    region: ParamRegion,
    objective: Callable[[np.ndarray], np.ndarray],
    maximize: bool,
    m: int,
    positive: Sequence[int],
) -> Tuple[float, np.ndarray]:
    """Optimize a vectorized objective over the region boundary.

    Deterministic: a low-discrepancy coarse grid picks a starting point, then
    a derivative-free local search over spherical angles polishes it.  Points
    violating positivity constraints are excluded (and penalized during the
    local search).
    """
    if region.is_point:
        theta = region.center
        return float(objective(theta[None, :])[0]), theta
    grid = boundary_grid(region, m, positive=positive)
    vals = objective(grid.points)
    idx = int(np.argmax(vals)) if maximize else int(np.argmin(vals))
    best_val, best_theta = float(vals[idx]), grid.points[idx]
    k = region.dim
    r = math.sqrt(region.radius2)
    y = scipy.linalg.solve_triangular(region.chol, best_theta - region.center, lower=True)
    s0 = y / np.linalg.norm(y)
    sign = 1.0 if maximize else -1.0

    def neg(phis: np.ndarray) -> float:
        theta = region.center + r * (region.chol @ _angles_to_sphere(phis, k))
        if any(theta[c] <= 0.0 for c in positive):
            return np.inf
        return -sign * float(objective(theta[None, :])[0])

    res = scipy.optimize.minimize(
        neg,
        _sphere_to_angles(s0),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-9, "maxiter": 400},
    )
    if np.isfinite(res.fun) and sign * (-res.fun) > sign * best_val:
        best_val = float(-sign * res.fun)
        best_theta = region.center + r * (region.chol @ _angles_to_sphere(res.x, k))
    return best_val, best_theta


# ---------------------------------------------------------------------------
# Monte Carlo layer 0
# ---------------------------------------------------------------------------


@dataclass
class _BaseSample:
    """Common random numbers of one cell and the base-measure positions on them.

    Paths are sorted by ``eps_01``: ``C_{0,1}`` then increases along them under
    every theta (``sigma0 > 0``), and no estimator depends on the path order.
    """

    eps_m12: np.ndarray  # development of year -1 in period 1
    eps_01: np.ndarray  # first column of year 0
    c01: np.ndarray  # C_{0,1} under the base measure
    y: np.ndarray  # X_1 + R_1 under the base measure


def _p_sample(model: GaussianModel, n: int, seed: int, c: float) -> _BaseSample:
    eps_m12, eps_01 = scenario.simulate_paths(2, n, seed).T
    order = np.argsort(eps_01, kind="stable")
    eps_m12, eps_01 = eps_m12[order], eps_01[order]
    c01, y = _x1_plus_r1(model, model.theta, eps_m12, eps_01, c)
    return _BaseSample(eps_m12=eps_m12, eps_01=eps_01, c01=c01, y=y)


def _x1_plus_r1(
    model: GaussianModel, theta: np.ndarray, eps_m12: np.ndarray, eps_01: np.ndarray, c: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(C_{0,1}, X_1 + R_1)`` per path when the data evolve under ``theta``.

    ``R_1`` is always the base-measure capital requirement.
    """
    b0, s0, b1, s1 = theta
    c01 = b0 + s0 / math.sqrt(model.v0) * eps_01
    x1 = (
        model.v_m1 * (b1 - 1.0) * model.c_m11
        + math.sqrt(model.v_m1) * s1 * eps_m12
        + model.v0 * c01
    )
    r1 = r1_closed_form(c01, model, c)
    return c01, x1 + r1


def _per_theta(
    fn: Callable[[np.ndarray], float], threads: int = 1
) -> Callable[[np.ndarray], np.ndarray]:
    """Map a single-theta objective over the rows of a theta array (optionally threaded)."""

    def run(thetas: np.ndarray) -> np.ndarray:
        if threads > 1 and len(thetas) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as ex:
                return np.array(list(ex.map(fn, thetas)))
        return np.array([fn(theta) for theta in thetas])

    return run


# ---------------------------------------------------------------------------
# case 1
# ---------------------------------------------------------------------------


def case1_upper(model: GaussianModel, region: ParamRegion) -> float:
    """Worst-case expected total cash flow over fixed-parameter priors.

    ``sup over Theta of v_{-1} (beta1 - 1) C_{-1,1} + v0 beta0 beta1``; only
    ``(beta0, beta1)`` enter, so the supremum runs over that projection's
    boundary (the objective is affine-plus-bilinear, maximized at an extreme
    point).
    """

    def obj(b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
        return model.v_m1 * (b1 - 1.0) * model.c_m11 + model.v0 * b0 * b1

    proj = project_region(region, [_B0, _B1])
    if proj.is_point:
        return float(obj(proj.center[0], proj.center[1]))
    r = math.sqrt(proj.radius2)

    def at(ang: np.ndarray) -> np.ndarray:
        s = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = proj.center + r * (s @ proj.chol.T)
        return obj(pts[:, 0], pts[:, 1])

    ang = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = at(ang)
    i = int(np.argmax(vals))
    lo, hi = ang[i] - 2.0 * np.pi / 4096, ang[i] + 2.0 * np.pi / 4096
    res = scipy.optimize.minimize_scalar(
        lambda a: -float(at(np.array([a]))[0]), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(max(vals[i], -res.fun))


def case1_bounds(
    cfg: CaseConfig, model: GaussianModel, region: ParamRegion
) -> Tuple[float, float, np.ndarray]:
    """Lower and upper bounds for the time-0 value under fixed-parameter priors.

    The lower bound maximizes the fixed-prior value ``V_0^theta = R_0^theta -
    C_0^theta`` over the region boundary.  The time-1 layer is closed form; the
    time-0 quantile is empirical under the base measure and the deficit-option
    expectation is an empirical mean under each fixed prior (simulated directly
    with shifted and scaled innovations), both on common random numbers.  The
    upper bound is the closed-form worst-case expected total cash flow.
    Returns ``(lower, upper, argmax theta)``.
    """
    c = gaussian_c(cfg.rm)
    base = _p_sample(model, cfg.n, cfg.seed, c)

    def value(theta: np.ndarray) -> float:
        c01_q, y_base_q = _x1_plus_r1(model, theta, base.eps_m12, base.eps_01, c)
        g_p = closed_form_g(theta[[_B1, _S1]], base.c01, model, c)
        g_q = closed_form_g(theta[[_B1, _S1]], c01_q, model, c)
        r0 = apply_empirical(cfg.rm, -(base.y - g_p))
        return r0 - np.maximum(r0 - (y_base_q - g_q), 0.0).mean()

    objective = _per_theta(value, cfg.threads)
    lower, arg = _boundary_search(
        region, objective, maximize=True, m=_M_SEARCH, positive=(_S0, _S1)
    )
    if not region.is_point:
        # Boundary attainment of the supremum is plausible but unproven; a
        # coarse interior sweep flags any clear counterexample.
        inner = interior_grid(region, 64, positive=(_S0, _S1))
        excess = float(objective(inner).max()) - lower
        if excess > 0.005:
            logger.warning(
                "interior point beats the boundary maximum by %.4f", excess
            )
    return lower, case1_upper(model, region), arg


# ---------------------------------------------------------------------------
# case 2
# ---------------------------------------------------------------------------


@dataclass
class HFit:
    """Piecewise-linear map from ``C_{0,1}`` to the time-1 deficit-option value.

    Knot values are the per-knot optimum over the boundary of the projected
    ``(beta1, sigma1)`` region; evaluation clamps outside the knot range and
    counts how often that happened.
    """

    knots: np.ndarray
    values: np.ndarray
    n_clamped: int = 0

    def __call__(self, c01: np.ndarray) -> np.ndarray:
        c01 = np.asarray(c01, dtype=np.float64)
        out_of_range = int(np.sum((c01 < self.knots[0]) | (c01 > self.knots[-1])))
        if out_of_range:
            if self.n_clamped == 0:
                logger.warning("h evaluated outside its knot range (clamped; counting)")
            self.n_clamped += out_of_range
        return np.interp(c01, self.knots, self.values)


def fit_h(
    model: GaussianModel,
    proj: ParamRegion,
    c: float,
    m_boundary: int = 360,
    knots: int = 64,
) -> HFit:
    """Tabulate the per-state optimum of the closed-form time-1 layer.

    The knot grid spans +/- 6 conditional standard deviations of ``C_{0,1}``
    around its base-measure mean; at each knot the deficit-option value is
    minimized over the boundary grid of the ``(beta1, sigma1)`` projection.
    """
    if knots < 16:
        raise ValidationError("h-fit needs at least 16 knots")
    sd = model.sigma0 / math.sqrt(model.v0)
    xs = np.linspace(model.beta0 - 6.0 * sd, model.beta0 + 6.0 * sd, knots)
    grid = boundary_grid(proj, m_boundary, positive=(1,)).points  # (m, 2)
    table = closed_form_g(grid[:, None, :], xs[None, :], model, c)  # (m, knots)
    return HFit(knots=xs, values=table.min(axis=0))


def case2_upper(model: GaussianModel, region: ParamRegion) -> float:
    """Worst-case expected total cash flow over the rectangular hull.

    Iterated worst-case expectations: the second-period parameter is re-chosen
    per state, so the inner supremum is attained at the extreme admissible
    ``beta1`` on each sign of ``C_{0,1}`` and has a closed form; the outer
    supremum runs over the region.
    """
    r = math.sqrt(region.radius2)
    sd_b1 = math.sqrt(region.chol[_B1] @ region.chol[_B1])
    b1_max = float(region.center[_B1] + r * sd_b1)
    b1_min = float(region.center[_B1] - r * sd_b1)
    if b1_min <= 1.0 and not region.is_point:
        raise ValidationError(
            f"rectangular upper bound needs beta1 > 1 over the whole region "
            f"(got beta1_min = {b1_min:.6g})"
        )

    def obj(thetas: np.ndarray) -> np.ndarray:
        b0, s0, b1 = thetas[:, 0], thetas[:, 1], thetas[:, 2]
        z = b0 / s0
        pos_mean = b0 * ndtr(z) + s0 * _npdf(z)  # E[C01^+]
        neg_mean = pos_mean - b0  # E[C01^-]
        return (
            model.v_m1 * (b1 - 1.0) * model.c_m11
            + model.v0 * b0
            + model.v0 * (b1_max - 1.0) * pos_mean
            - model.v0 * (b1_min - 1.0) * neg_mean
        )

    proj = project_region(region, [_B0, _S0, _B1])
    val, _ = _boundary_search(proj, obj, maximize=True, m=4096, positive=(1,))
    return val


def case2_value(
    cfg: CaseConfig, model: GaussianModel, region: ParamRegion
) -> Tuple[float, float, np.ndarray]:
    """Rectangular-hull value and upper bound: ``(V_0, upper, argmin theta)``.

    The time-1 layer re-optimizes ``(beta1, sigma1)`` per state through the
    tabulated map ``h``; the time-0 quantile is empirical under the base
    measure, and the deficit-option expectation is minimized over the region
    boundary with per-prior direct simulation.
    """
    c = gaussian_c(cfg.rm)
    base = _p_sample(model, cfg.n, cfg.seed, c)
    proj = project_region(region, [_B1, _S1])
    h = fit_h(model, proj, c, m_boundary=cfg.m_boundary, knots=cfg.knots)
    r0 = float(apply_empirical(cfg.rm, -(base.y - h(base.c01))))

    def deficit(theta: np.ndarray) -> float:
        c01_q, y_base_q = _x1_plus_r1(model, theta, base.eps_m12, base.eps_01, c)
        return np.maximum(r0 - (y_base_q - h(c01_q)), 0.0).mean()

    c0, arg = _boundary_search(
        region, _per_theta(deficit, cfg.threads), maximize=False, m=_M_SEARCH, positive=(_S0, _S1)
    )
    return r0 - c0, case2_upper(model, region), arg


# ---------------------------------------------------------------------------
# table 1 and figure 1
# ---------------------------------------------------------------------------

TABLE1_P = (0.1, 0.5, 0.9)
TABLE1_Q = (0.10, 0.05, 0.01, 0.005)
FIGURE1_P = (0.1, 0.9)


@dataclass
class Table1Result:
    rows: List[Dict[str, object]]
    mu: np.ndarray
    sigma: np.ndarray


def table1(
    model: Optional[GaussianModel] = None,
    n: int = 10**5,
    seed: int = 0,
    cloud_n_rep: int = 10**5,
    kind: str = VAR,
    m_boundary: int = 360,
    knots: int = 64,
    threads: int = 1,
) -> Table1Result:
    """Lower and upper time-0 bounds over the (p, q) grid for both cases.

    The ambiguity region is a confidence ellipsoid around the estimator-cloud
    mean with the cloud's sample covariance; a large cloud keeps the region
    stable across seeds.  All Monte Carlo layers share seeded substreams, so
    the result is a deterministic function of the arguments.
    """
    model = model if model is not None else paper_model()
    cloud = estimator_cloud(model, cloud_n_rep, seed)
    rows: List[Dict[str, object]] = []
    for case in (CASE1, CASE2):
        for p in TABLE1_P:
            region = region_for(cloud, p)
            for q in TABLE1_Q:
                cfg = CaseConfig(
                    rm=RiskMeasureSpec(kind, q),
                    n=n,
                    seed=seed,
                    m_boundary=m_boundary,
                    knots=knots,
                    threads=threads,
                )
                if case == CASE1:
                    lower, upper, _ = case1_bounds(cfg, model, region)
                else:
                    lower, upper, _ = case2_value(cfg, model, region)
                rows.append(
                    {"case": case, "p": p, "q": q, "lower": lower, "upper": upper,
                     "n": n, "seed": seed}
                )
    return Table1Result(rows=rows, mu=cloud.mu, sigma=cloud.sigma)


def table1_csv(result: Table1Result) -> str:
    lines = ["case,p,q,lower,upper,n,seed"]
    for row in result.rows:
        lines.append(
            f"{row['case']},{row['p']!r},{row['q']!r},{row['lower']!r},"
            f"{row['upper']!r},{row['n']},{row['seed']}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class Figure1Data:
    scatter: Dict[str, np.ndarray]  # file stem -> (n_rep, 2) coordinate pairs
    ellipses: Dict[str, List[Tuple[str, np.ndarray]]]  # stem -> [(plane, polyline)]
    cloud: CloudResult


def figure1_data(
    model: Optional[GaussianModel] = None,
    n_rep: int = 1000,
    seed: int = 0,
    m_boundary: int = 360,
) -> Figure1Data:
    """Scatter clouds of the parameter estimates with region boundaries.

    One scatter per coordinate plane ``(beta0, beta1)`` and
    ``(beta1, sigma1)``, and per confidence level in ``FIGURE1_P`` a closed
    polyline for each projected ellipse boundary.
    """
    model = model if model is not None else paper_model()
    cloud = estimator_cloud(model, n_rep, seed)
    scatter = {
        "figure1_scatter_beta0_beta1": cloud.cloud[:, [_B0, _B1]],
        "figure1_scatter_beta1_sigma1": cloud.cloud[:, [_B1, _S1]],
    }
    ellipses: Dict[str, List[Tuple[str, np.ndarray]]] = {}
    for p in FIGURE1_P:
        region = region_for(cloud, p)
        polylines = []
        for plane, coords in (("beta0_beta1", [_B0, _B1]), ("beta1_sigma1", [_B1, _S1])):
            proj = project_region(region, coords)
            pts = boundary_grid(proj, m_boundary).points
            pts = np.vstack([pts, pts[:1]])  # close the polyline
            polylines.append((plane, pts))
        ellipses[f"figure1_ellipse_p{p}"] = polylines
    return Figure1Data(scatter=scatter, ellipses=ellipses, cloud=cloud)


def figure1_csv(data: Figure1Data) -> Dict[str, str]:
    """Render the bundle as CSV texts keyed by file name."""
    files: Dict[str, str] = {}
    for stem, pts in data.scatter.items():
        x_name, y_name = stem.replace("figure1_scatter_", "").split("_", 1)
        lines = [f"{x_name},{y_name}"]
        lines += [f"{x!r},{y!r}" for x, y in pts]
        files[stem + ".csv"] = "\n".join(lines) + "\n"
    for stem, polylines in data.ellipses.items():
        lines = ["plane,x,y"]
        for plane, pts in polylines:
            lines += [f"{plane},{x!r},{y!r}" for x, y in pts]
        files[stem + ".csv"] = "\n".join(lines) + "\n"
    return files
