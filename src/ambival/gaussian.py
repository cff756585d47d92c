"""Two-period Gaussian chain-ladder case study.

A liability run-off over two development periods with Gaussian increments:

    C_{i,1} = beta0 + (sigma0 / sqrt(v_i)) e_{i,1}
    C_{i,2} = beta1 C_{i,1} + (sigma1 / sqrt(v_i)) e_{i,2}

Parameter ambiguity is an ellipsoidal region around the regression estimators
of ``theta = (beta0, sigma0, beta1, sigma1)``.  The time-1 layer of the
valuation recursion is available in closed form.  At time 0 the deficit
expectation under each theta conditions on ``eps_{0,1}`` at Gauss-Hermite
nodes and integrates ``eps_{-1,2}`` in closed form; only the time-0 risk
measure ``R_0`` is Monte Carlo, on the base-measure paths.  In case 1 the
closed form under each theta runs only on the paths whose loss can reach the
tail that ``R_0`` reads, and ``R_0`` keeps the bits of the full sample; the
worst-case search computes ``R_0`` only for the theta that a Lipschitz bound
says can win.  In case 2 the time-1 value ``h`` is a minimum over the Pareto
arc of the projected boundary grid.  Two ambiguity attitudes are supported:

* case 1: one fixed parameter vector for the whole run-off (bounds only);
* case 2: the rectangular hull, re-selecting parameters each period (the
  recursion value itself, plus a nested-supremum upper bound).

All sampling is seeded and deterministic; worst-case searches use
deterministic low-discrepancy boundary grids with local refinement.
scipy loads at first use, inside the functions that call it.  The CLI
(:mod:`ambival.cli`) runs these pieces for Table 1 and Figure 1 and writes
every artifact; this module writes none.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ContextManager, Iterator, Optional, Sequence, Tuple

import numpy as np

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
from .riskmeasures import RiskMeasureSpec, apply_empirical, gaussian_c, tail_count, tail_measure

if TYPE_CHECKING:
    from concurrent.futures import Executor

logger = logging.getLogger(__name__)

CASE1 = "CASE1"
CASE2 = "CASE2"

_SIGMA_FLOOR = 1e-12
_M_SEARCH = 512  # coarse full-dimensional boundary grid of the worst-case searches
_M_BOUNDARY = 360  # points on the (beta1, sigma1) projected boundary of the h table
_M_UPPER = 4096  # boundary grid of the projected upper-bound searches (both cases)
_KNOTS = 64  # C_{0,1} knots of the h table
_CLOUD_BLOCK = 8192  # triangles simulated and fitted at once by estimator_cloud
_NODES = 40  # Gauss-Hermite nodes of the time-0 deficit expectation
# The case-1 R_0 (_Case1R0); _BIN and _TAU_BINS were the fastest of 32-512 and
# 2-8 on the Table-1 cells at n = 10^5, and neither moves a result bit.
_BIN = 128  # consecutive sorted base paths per bin
_TAU_BINS = 4  # the threshold is taken in this many times the fewest bins holding m paths
_G_SLACK = 1e-10  # widening of g's bin bounds, relative to |g| + b
_BOUND_SLACK = 1e-9  # widening of the case-1 value bounds (_Case1Value), relative to their scale
_CHUNK = 16  # theta rows per batched deficit evaluation; 64 raised the gauss-table peak RSS by 3%

# coordinate layout of theta vectors
_B0, _S0, _B1, _S1 = 0, 1, 2, 3

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _npdf(x: np.ndarray) -> np.ndarray:
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _positive_part_mean(a, b):
    """``E[(a + b N)^+] = a Phi(a/b) + b phi(a/b)`` for a standard normal ``N`` and ``b > 0``."""
    from scipy.special import ndtr

    z = a / b
    return a * ndtr(z) + b * _npdf(z)


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
        for name in ("beta0", "sigma0", "beta1", "sigma1", "c_m11"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
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
        if self.exposures.shape != (n_years,) or not np.all(
            np.isfinite(self.exposures) & (self.exposures > 0.0)
        ):
            raise ValidationError("need one finite positive exposure per accident year")
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
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n < 10**3:
            raise ValidationError("statistical runs need n >= 1000")
        if self.threads < 1:
            raise ValidationError("threads must be at least 1")


# ---------------------------------------------------------------------------
# triangles and estimators
# ---------------------------------------------------------------------------


def simulate_triangle(
    model: GaussianModel, n_years: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One observed run-off triangle: ``n_years`` first-column values and
    ``n_years - 1`` second-column values (the youngest year is undeveloped)."""
    if n_years > len(model.exposures):
        raise ValidationError(
            f"{n_years} accident years, but the model has {len(model.exposures)} exposures"
        )
    _, c1, c2 = next(_triangle_blocks(model, n_years, 1, seed))
    return c1[0], c2[0]


def _triangle_blocks(
    model: GaussianModel, n_years: int, n_rep: int, seed: int
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """``n_rep`` simulated triangles in ``(rows, c1, c2)`` blocks of ``_CLOUD_BLOCK`` rows.

    Each column's substream is read in order, so the triangles do not depend
    on the block size.  The last block takes a one-row remainder: numpy fits a
    single row with a dot product in place of the BLAS matrix-vector product,
    whose sums round differently.  The estimators need at least 3 accident years.
    """
    if n_years < 3:
        raise ValidationError("estimators need at least 3 accident years")
    v = model.exposures[:n_years]
    g1, g2 = scenario.substream(seed, 0), scenario.substream(seed, 1)
    edges = [0, *range(_CLOUD_BLOCK, n_rep - 1, _CLOUD_BLOCK), n_rep]
    for start, stop in zip(edges[:-1], edges[1:]):
        e1 = g1.standard_normal((stop - start, n_years))
        e2 = g2.standard_normal((stop - start, n_years - 1))
        c1 = model.beta0 + model.sigma0 / np.sqrt(v) * e1
        c2 = model.beta1 * c1[:, : n_years - 1] + model.sigma1 / np.sqrt(v[: n_years - 1]) * e2
        yield slice(start, stop), c1, c2


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
    if v1.ndim != 1 or len(v1) < len(c1) or not np.all(v1[: len(c1)] > 0.0):
        raise ValidationError("need one positive exposure per year of the first column")
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
    The triangles are simulated and fitted in blocks of ``_CLOUD_BLOCK``
    replications straight into the preallocated ``(n_rep, 4)`` cloud, so
    besides the cloud only a few block-sized arrays are held at once; the
    covariance copies the cloud once, so the peak allocation is about twice
    the cloud's size.  The cloud does not depend on the block size.
    """
    if n_rep < 100:
        raise ValidationError("estimator cloud needs at least 100 replications")
    n_years = -model.i0  # years i0 .. -1 observed with both columns shifted
    v1 = model.exposures[:n_years]
    cloud = np.empty((n_rep, 4))
    for rows, c1, c2 in _triangle_blocks(model, n_years, n_rep, seed):
        b0, s0sq, b1, s1sq = _estimators(c1, c2, v1)
        cloud[rows] = np.column_stack([b0, np.sqrt(s0sq), b1, np.sqrt(s1sq)])
    mu = cloud.mean(axis=0)
    sigma = np.cov(cloud, rowvar=False, ddof=1)
    import scipy.linalg

    try:
        scipy.linalg.cholesky(sigma, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(
            f"singular estimator covariance (n_rep={n_rep} too small): {exc}"
        ) from exc
    return CloudResult(mu=mu, sigma=sigma, cloud=cloud)


def region_for(cloud: CloudResult, p: float) -> ParamRegion:
    """Approximate confidence ellipsoid at level ``p`` for the 4 parameters."""
    return ellipsoid_region(cloud.mu, cloud.sigma, p)


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
    out = _positive_part_mean(a, math.sqrt(model.v0) * sigma1)
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
    a derivative-free local search over spherical angles polishes it and is
    kept only where it improves on the grid's best point.  Points violating
    positivity constraints are excluded (and penalized during the local
    search).  On a batch of rows the objective must be exact at its best
    entry; every other entry may instead be a bound on the losing side
    (below the best when maximizing, above it when minimizing).  Single rows
    must be exact.
    """
    if region.is_point:
        theta = region.center
        return float(objective(theta[None, :])[0]), theta
    grid = boundary_grid(region, m, positive=positive)
    vals = objective(grid.points)
    idx = int(np.argmax(vals)) if maximize else int(np.argmin(vals))
    best_val, best_theta = float(vals[idx]), grid.points[idx]
    import scipy.linalg
    import scipy.optimize

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
    if np.isfinite(res.fun) and -res.fun > sign * best_val:
        best_val = float(-sign * res.fun)
        best_theta = region.center + r * (region.chol @ _angles_to_sphere(res.x, k))
    return best_val, best_theta


# ---------------------------------------------------------------------------
# time-0 layer
# ---------------------------------------------------------------------------


@dataclass
class _BaseSample:
    """The base-measure paths of one cell: the Monte Carlo sample of ``R_0``.

    The paths are sorted by ``C_{0,1}``, which :class:`_Case1R0` relies on.
    ``R_0`` does not depend on the path order: V@R is an order statistic and
    AV@R sorts its own tail.
    """

    c01: np.ndarray  # C_{0,1} under the base measure, ascending
    y: np.ndarray  # X_1 + R_1 under the base measure


def _p_sample(model: GaussianModel, n: int, seed: int, c: float) -> _BaseSample:
    eps_m12, eps_01 = scenario.simulate_paths(2, n, seed).T
    c01, y = _x1_plus_r1(model, model.theta, eps_m12, eps_01, c)
    order = np.argsort(c01)
    return _BaseSample(c01[order], y[order])


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


def _hermite_nodes() -> Tuple[np.ndarray, np.ndarray]:
    """``_NODES`` probabilists' Gauss-Hermite nodes, weighted as expectations over N(0, 1)."""
    from numpy.polynomial.hermite_e import hermegauss

    u, w = hermegauss(_NODES)
    return u, w * _INV_SQRT_2PI


def _deficit(
    model: GaussianModel,
    thetas: np.ndarray,
    r0: np.ndarray,
    c: float,
    time1: Callable[[np.ndarray, np.ndarray], np.ndarray],
    nodes: Tuple[np.ndarray, np.ndarray],
    pool: Optional[Executor] = None,
) -> np.ndarray:
    """Time-0 deficit expectations ``E_theta[(r0 - X_1 - R_1 + V_1)^+]``, one per row of ``thetas``.

    ``r0`` holds one value per row.  ``V_1 = time1(thetas, C_{0,1})`` is the
    time-1 value, with one row of ``C_{0,1}`` per theta.  Given ``eps_{0,1} =
    u``, the deficit is ``(a - b eps_{-1,2})^+`` with ``b = sqrt(v_{-1})
    sigma1`` and ``a`` its value at ``eps_{-1,2} = 0``, whose expectation is
    closed form; the expectation over ``eps_{0,1}`` is the Gauss-Hermite sum
    over ``nodes`` (see :func:`_hermite_nodes`).  The rows go in chunks of
    ``_CHUNK``, mapped over ``pool`` when one is given.  Every row is summed
    by its own ``w @ row``, so its result does not depend on the other rows.
    """
    u, w = nodes

    def chunk(rows: slice) -> np.ndarray:
        th = thetas[rows]
        c01, y = _x1_plus_r1(model, th.T[:, :, None], 0.0, u, c)
        b = math.sqrt(model.v_m1) * th[:, _S1, None]
        deficits = _positive_part_mean(r0[rows, None] - (y - time1(th, c01)), b)
        return np.array([w @ row for row in deficits])

    chunks = [slice(i, i + _CHUNK) for i in range(0, len(thetas), _CHUNK)]
    return np.concatenate(list((pool.map if pool else map)(chunk, chunks)))


def _pool(threads: int) -> ContextManager[Optional[Executor]]:
    """A pool of ``threads`` threads for :func:`_deficit`, or no pool for one thread."""
    if threads == 1:
        import contextlib

        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=threads)


class _Case1R0:
    """Case-1 ``R_0^theta`` on one base sample, from the few paths that can reach the loss tail.

    A call with ``theta1 = (beta1, sigma1)`` returns exactly the bits of
    ``apply_empirical(rm, -(base.y - g(base.c01)))`` for ``g`` the closed form
    under ``theta1``.  ``g`` is monotone in ``C_{0,1}`` and the paths are
    sorted by it, so on each bin of ``_BIN`` consecutive paths ``g`` lies
    between its values at the bin's first and last path, widened by
    ``_G_SLACK (|g| + b)`` for the rounding of the computed ``g`` (a few ulps
    of ``|a| Phi + b phi``, which is at most ``|g| + b``).  That bounds each
    loss ``y - g`` from below and above.  At least ``m = tail_count`` losses
    reach ``tau``, the ``m``-th largest lower bound in the bins whose largest
    lower bounds rank first, so the ``m`` largest losses, ties included, are
    among the candidates: the paths whose upper bound reaches ``tau``.  Only
    those get the closed form and are measured (:func:`tail_measure`).  The
    bins hold ``y`` as the rows of a matrix, the last row padded with
    ``-inf``, which is never a candidate.
    """

    def __init__(self, rm: RiskMeasureSpec, base: _BaseSample, model: GaussianModel, c: float):
        if not np.all(np.isfinite(base.y)):
            raise ValidationError("non-finite sample values")
        self.n = n = len(base.y)
        first = np.arange(0, n, _BIN)
        self.c01 = base.c01
        self.c_edges = base.c01[np.concatenate([first, np.minimum(first + _BIN, n) - 1])]
        self.y = np.full(len(first) * _BIN, -np.inf)
        self.y[:n] = base.y
        self.y_bins = self.y.reshape(len(first), _BIN)
        self.y_max = self.y_bins.max(axis=1)
        self.rm, self.model, self.c = rm, model, c
        self.m = tail_count(rm, n)
        self.k = min(len(first), _TAU_BINS * -(-self.m // _BIN) + 1)

    def __call__(self, theta1: np.ndarray) -> float:
        nb, m = len(self.y_max), self.m
        edges = closed_form_g(theta1, self.c_edges, self.model, self.c)
        if not np.all(np.isfinite(edges)):
            raise ValidationError("non-finite sample values")
        g_first, g_last = edges[:nb], edges[nb:]
        slack = _G_SLACK * (
            np.maximum(abs(g_first), abs(g_last)) + math.sqrt(self.model.v0) * theta1[1]
        )
        g_hi = np.maximum(g_first, g_last) + slack
        g_lo = np.minimum(g_first, g_last) - slack
        ranked = np.argpartition(self.y_max - g_hi, nb - self.k)[nb - self.k :]
        lower = (self.y_bins[ranked] - g_hi[ranked, None]).ravel()
        tau = np.partition(lower, lower.size - m)[lower.size - m]
        bins = np.flatnonzero(self.y_max - g_lo >= tau)
        at = np.flatnonzero(self.y_bins[bins] - g_lo[bins, None] >= tau)
        cand = bins[at // _BIN] * _BIN + at % _BIN
        g = closed_form_g(theta1, self.c01[cand], self.model, self.c)
        return tail_measure(self.rm, self.y[cand] - g, self.n)


# ---------------------------------------------------------------------------
# case 1
# ---------------------------------------------------------------------------


def case1_upper(model: GaussianModel, region: ParamRegion) -> float:
    """Worst-case expected total cash flow over fixed-parameter priors.

    ``sup over Theta of v_{-1} (beta1 - 1) C_{-1,1} + v0 beta0 beta1``; only
    ``(beta0, beta1)`` enter, and the objective is affine-plus-bilinear, so it
    is maximized on the boundary of that projection.  There,
    ``(beta0, beta1) = c + r L (cos phi, sin phi)``, it is a trigonometric
    polynomial of degree 2 in ``phi``: its critical points are the real roots
    of a quartic in ``tan(phi / 2)``, and ``phi = pi``.  The maximum is the
    largest value among them, so it is exact, not found from below.  Complex
    roots enter with their real part, which only adds boundary points.
    """

    def obj(thetas: np.ndarray) -> np.ndarray:
        b0, b1 = thetas[:, 0], thetas[:, 1]
        return model.v_m1 * (b1 - 1.0) * model.c_m11 + model.v0 * b0 * b1

    proj = project_region(region, [_B0, _B1])
    if proj.is_point:
        return float(obj(proj.center[None, :])[0])
    scaled = math.sqrt(proj.radius2) * proj.chol
    (c0, c1), ((a0, a1), (e0, e1)) = proj.center, scaled
    lin, bil = model.v_m1 * model.c_m11, model.v0
    # obj = const + k1 cos phi + k2 sin phi + k3 cos 2 phi + k4 sin 2 phi
    k1 = lin * e0 + bil * (c0 * e0 + c1 * a0)
    k2 = lin * e1 + bil * (c0 * e1 + c1 * a1)
    k3 = bil * (a0 * e0 - a1 * e1) / 2.0
    k4 = bil * (a0 * e1 + a1 * e0) / 2.0
    # (1 + t^2)^2 d obj / d phi at t = tan(phi / 2), ascending powers of t
    quartic = [k2 + 2.0 * k4, -2.0 * k1 - 8.0 * k3, -12.0 * k4, 8.0 * k3 - 2.0 * k1, 2.0 * k4 - k2]
    roots = np.polynomial.polynomial.polyroots(np.trim_zeros(quartic, "b"))
    phis = np.append(2.0 * np.arctan(roots.real), np.pi)
    return float(obj(proj.center + np.column_stack([np.cos(phis), np.sin(phis)]) @ scaled.T).max())


class _Case1Value:
    """The fixed-prior value ``V_0^theta = R_0^theta - C_0^theta`` of one cell, per row of theta.

    :meth:`exact` computes every row.  A call computes ``R_0``
    (:class:`_Case1R0`) only for the rows that can hold the maximum and
    returns every other row as an upper bound strictly below it, as
    :func:`_boundary_search` allows: the maximum and its first index are
    those of :meth:`exact`, ties included.  The bounds:

    * ``R_0`` is monotone and cash-invariant in the time-1 values, and ``g``
      moves by ``Phi <= 1`` per unit of ``a`` and by ``phi <= phi(0)`` per
      unit of ``b``, so ``|R_0^theta - R_0^theta'| <= v0 |d beta1|
      max|C_{0,1}| + sqrt(v0) |d sigma1| phi(0)`` over the base sample;
    * ``r - E_theta[(r - X_1 - R_1 + V_1)^+]`` is nondecreasing in ``r``, so
      the deficit at an upper bound of ``R_0`` gives an upper bound of the
      value.

    Both are widened by ``_BOUND_SLACK`` times the magnitudes they sum (the
    bound, ``max |y|`` and ``|a| + b`` of ``g``) for rounding.  The first
    anchor is the row nearest the middle of the batch; each later one is the
    row of largest bound, until no bound reaches the best exact value.
    """

    def __init__(self, cfg: CaseConfig, model: GaussianModel, pool: Optional[Executor] = None):
        self.c = c = gaussian_c(cfg.rm)
        base = _p_sample(model, cfg.n, cfg.seed, c)
        self.r0_of = _Case1R0(cfg.rm, base, model, c)
        self.model, self.pool, self.nodes = model, pool, _hermite_nodes()
        # the Lipschitz constants of R_0 in (beta1, sigma1)
        self.lip = np.array(
            [model.v0 * max(abs(base.c01[0]), abs(base.c01[-1])), math.sqrt(model.v0) * _INV_SQRT_2PI]
        )
        self.y_max = float(np.abs(base.y).max())

    def _value(self, thetas: np.ndarray, r0: np.ndarray) -> np.ndarray:
        def g(th: np.ndarray, c01: np.ndarray) -> np.ndarray:
            return closed_form_g(th[:, None, [_B1, _S1]], c01, self.model, self.c)

        return r0 - _deficit(self.model, thetas, r0, self.c, g, self.nodes, self.pool)

    def exact(self, thetas: np.ndarray) -> np.ndarray:
        return self._value(thetas, np.array([self.r0_of(t) for t in thetas[:, [_B1, _S1]]]))

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        m = self.model
        theta1 = thetas[:, [_B1, _S1]]
        scale = (
            self.y_max
            + self.lip[0] * np.abs(theta1[:, 0] - m.beta1)
            + math.sqrt(m.v0) * (m.sigma1 * abs(self.c) + theta1[:, 1])
        )

        def widen(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
            return x + _BOUND_SLACK * (np.abs(x) + scale[rows])

        out = np.full(len(thetas), -np.inf)
        r0_hi = np.full(len(thetas), np.inf)
        live = np.arange(len(thetas))
        mid = 0.5 * (theta1.min(axis=0) + theta1.max(axis=0))
        best, nxt = -np.inf, int(np.argmin(np.abs(theta1 - mid) @ self.lip))
        while live.size:
            r0 = self.r0_of(theta1[nxt])
            live = live[live != nxt]
            hi = widen(r0 + np.abs(theta1[live] - theta1[nxt]) @ self.lip, live)
            r0_hi[live] = np.minimum(r0_hi[live], hi)
            vals = self._value(thetas[[nxt, *live]], np.array([r0, *r0_hi[live]]))
            out[nxt], best = vals[0], max(best, vals[0])
            out[live] = widen(vals[1:], live)
            live = live[out[live] >= best]
            if live.size:
                nxt = live[np.argmax(out[live])]
        return out


def case1_bounds(
    cfg: CaseConfig, model: GaussianModel, region: ParamRegion
) -> Tuple[float, float, np.ndarray]:
    """Lower and upper bounds for the time-0 value under fixed-parameter priors.

    The lower bound maximizes the fixed-prior value ``V_0^theta = R_0^theta -
    C_0^theta`` over the region boundary.  The time-1 layer is closed form
    (:func:`closed_form_g` under theta's ``(beta1, sigma1)``).  The time-0 risk
    measure ``R_0^theta`` is empirical on the ``n`` base-measure paths, with
    the same bits as from all of them, but the closed form runs only on the
    paths that can reach the loss tail (:class:`_Case1R0`), and on the coarse
    grids only for the theta whose bound can win (:class:`_Case1Value`).  The
    deficit-option expectation ``C_0^theta`` under theta is exact up to
    Gauss-Hermite quadrature (:func:`_deficit`).  The upper bound is the
    closed-form worst-case expected total cash flow.  Returns ``(lower, upper,
    argmax theta)``.

    Why the boundary: under theta, ``C_{0,1} = beta0 + sigma0 / sqrt(v0)
    eps_{0,1}`` grows with ``beta0`` path by path, and the time-0 loss
    ``L = X_1 + R_1 - V_1`` grows with ``C_{0,1}`` at the rate ``v0 ((1 - Phi)
    beta1_P + Phi beta1)``, with ``beta1_P`` the model's ``beta1`` and
    ``Phi`` the slope of ``g`` in its ``a``.  ``R_0^theta`` does not read
    ``beta0``.  So when ``beta1 > 0`` over the region and ``beta1_P > 0``,
    ``V_0^theta`` is nondecreasing in ``beta0``, node by node of the
    quadrature, and the supremum is attained on the boundary, where the
    outward normal has a nonnegative ``beta0`` component.  The conditions are
    not checked; the interior sweep below logs any clear counterexample.
    """
    with _pool(cfg.threads) as pool:
        objective = _Case1Value(cfg, model, pool)
        lower, arg = _boundary_search(
            region, objective, maximize=True, m=_M_SEARCH, positive=(_S0, _S1)
        )
        if not region.is_point:
            # Boundary attainment holds under the conditions of the lemma in
            # the docstring, which are not checked; a coarse interior sweep
            # flags any clear counterexample.
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

    Knot values are ``h`` (:func:`_h_exact`) over ``points``, the two Pareto
    arcs of the boundary grid of the projected ``(beta1, sigma1)`` region
    (:func:`_pareto_arcs`); evaluation clamps outside the knot range and
    counts how often that happened.  The table serves the Monte Carlo sample
    of ``R_0`` only; the time-0 deficit expectation evaluates ``h`` exactly
    at its quadrature nodes.
    """

    knots: np.ndarray
    values: np.ndarray
    points: Tuple[np.ndarray, np.ndarray]
    n_clamped: int = 0

    def __call__(self, c01: np.ndarray) -> np.ndarray:
        c01 = np.asarray(c01, dtype=np.float64)
        out_of_range = int(np.sum((c01 < self.knots[0]) | (c01 > self.knots[-1])))
        if out_of_range:
            if self.n_clamped == 0:
                logger.warning("h evaluated outside its knot range (clamped; counting)")
            self.n_clamped += out_of_range
        return np.interp(c01, self.knots, self.values)


def _pareto_arcs(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(beta1, sigma1)`` points that can minimize :func:`closed_form_g`, by the sign of ``C_{0,1}``.

    ``g`` increases in ``a`` and ``b``; ``b`` grows with ``sigma1``, and ``a``
    falls with ``beta1`` where ``C_{0,1} > 0`` and grows with it where
    ``C_{0,1} < 0``.  So the minimum over ``points`` is attained on the first
    arc, the points that no other point matches or beats in both larger
    ``beta1`` and smaller ``sigma1``, where ``C_{0,1} >= 0``; and on the
    second, the same with smaller ``beta1``, where ``C_{0,1} < 0``.  At
    ``C_{0,1} = 0``, ``a`` is the same for every point and both arcs hold
    the smallest ``sigma1``.
    """

    def arc(beta1: np.ndarray) -> np.ndarray:
        order = np.lexsort((points[:, 1], -beta1))  # beta1 descending, then sigma1 ascending
        sigma1 = points[order, 1]
        lowest_before = np.minimum.accumulate(np.concatenate([[np.inf], sigma1[:-1]]))
        return points[order[sigma1 < lowest_before]]

    return arc(points[:, 0]), arc(-points[:, 0])


def _h_exact(
    model: GaussianModel, arcs: Tuple[np.ndarray, np.ndarray], c01: np.ndarray, c: float
) -> np.ndarray:
    """The time-1 value ``h`` at each ``C_{0,1}``: :func:`closed_form_g` minimized over ``arcs``.

    ``arcs`` are the :func:`_pareto_arcs` of a grid; the result has the bits
    of the minimum over the whole grid.
    """
    c01 = np.asarray(c01, dtype=np.float64)
    out = np.empty(c01.shape)
    up = c01 >= 0.0
    for arc, at in zip(arcs, (up, ~up)):
        if at.any():
            out[at] = closed_form_g(arc[:, None, :], c01[at][None, :], model, c).min(axis=0)
    return out


def fit_h(model: GaussianModel, proj: ParamRegion, c: float) -> HFit:
    """Tabulate the per-state optimum ``h`` of the closed-form time-1 layer.

    ``_KNOTS`` knots span +/- 6 conditional standard deviations of
    ``C_{0,1}`` around its base-measure mean; each knot value is
    :func:`_h_exact` over the Pareto arcs of the ``_M_BOUNDARY``-point
    boundary grid of the ``(beta1, sigma1)`` projection.  The table is read on
    the Monte Carlo sample of ``R_0``; the arcs are kept as ``points`` so
    that the time-0 deficit expectation evaluates ``h`` exactly at its nodes.
    """
    sd = model.sigma0 / math.sqrt(model.v0)
    xs = np.linspace(model.beta0 - 6.0 * sd, model.beta0 + 6.0 * sd, _KNOTS)
    arcs = _pareto_arcs(boundary_grid(proj, _M_BOUNDARY, positive=(1,)).points)
    return HFit(knots=xs, values=_h_exact(model, arcs, xs, c), points=arcs)


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
        sd = s0 / math.sqrt(model.v0)  # standard deviation of C01
        pos_mean = _positive_part_mean(b0, sd)  # E[C01^+]
        neg_mean = pos_mean - b0  # E[C01^-]
        return (
            model.v_m1 * (b1 - 1.0) * model.c_m11
            + model.v0 * b0
            + model.v0 * (b1_max - 1.0) * pos_mean
            - model.v0 * (b1_min - 1.0) * neg_mean
        )

    proj = project_region(region, [_B0, _S0, _B1])
    val, _ = _boundary_search(proj, obj, maximize=True, m=_M_UPPER, positive=(1,))
    return val


def case2_value(
    cfg: CaseConfig, model: GaussianModel, region: ParamRegion
) -> Tuple[float, float, np.ndarray]:
    """Rectangular-hull value and upper bound: ``(V_0, upper, argmin theta)``.

    The time-1 layer re-optimizes ``(beta1, sigma1)`` per state: ``h`` is the
    minimum of :func:`closed_form_g` over the boundary grid of the projected
    region, taken on its Pareto arcs.  The time-0 risk measure is empirical on
    the ``n`` base-measure paths, read through the tabulated ``h``
    (:func:`fit_h`), once per cell.  The deficit-option expectation is exact
    up to Gauss-Hermite quadrature (:func:`_deficit`, with ``h`` exact at the
    nodes) and is minimized over the region boundary.

    Why the boundary: the time-0 loss ``L = X_1 + R_1 - h`` grows with
    ``C_{0,1}`` at a rate of at least ``v0 min(beta1_P, beta1_min)``, with
    ``beta1_P`` the model's ``beta1`` and ``beta1_min`` the region's
    smallest, since ``h`` is a minimum of :func:`closed_form_g` over the
    region.  ``C_{0,1}`` grows with theta's ``beta0``, and theta's ``beta1``
    enters only ``X_1``, as ``v_{-1} (beta1 - 1) c_{-1,1}``.  So when both
    ``beta1`` are positive, the deficit at a fixed ``R_0`` is nonincreasing
    in ``beta0``, and in ``beta1`` too when ``c_{-1,1} > 0``, node by node of
    the quadrature: the infimum is attained on the boundary.  The conditions
    are not checked here; :func:`case2_upper` requires ``beta1 > 1``.
    """
    c = gaussian_c(cfg.rm)
    base = _p_sample(model, cfg.n, cfg.seed, c)
    h = fit_h(model, project_region(region, [_B1, _S1]), c)
    r0 = float(apply_empirical(cfg.rm, -(base.y - h(base.c01))))
    nodes = _hermite_nodes()

    def h_exact(thetas: np.ndarray, c01: np.ndarray) -> np.ndarray:
        return _h_exact(model, h.points, c01, c)

    with _pool(cfg.threads) as pool:

        def deficit(thetas: np.ndarray) -> np.ndarray:
            return _deficit(model, thetas, np.full(len(thetas), r0), c, h_exact, nodes, pool)

        c0, arg = _boundary_search(
            region, deficit, maximize=False, m=_M_SEARCH, positive=(_S0, _S1)
        )
    return r0 - c0, case2_upper(model, region), arg


# ---------------------------------------------------------------------------
# table 1
# ---------------------------------------------------------------------------

# the (p, q) grid of Table 1, run for both cases by the CLI's table1 command
TABLE1_P = (0.1, 0.5, 0.9)
TABLE1_Q = (0.10, 0.05, 0.01, 0.005)
