"""Parametric ambiguity sets via one-step density factors.

A measure change away from the base measure is encoded as a positive
martingale built from one-step factors ``f_t(theta)``: each factor is known at
time ``t``, strictly positive, and has conditional mean 1 given time ``t - 1``.
Adapted parameter choices generate the rectangular hull of the parametric
family.  A choice picks points of a parameter grid by index: one index for
every state, or per decision level ``t`` one index per time-``t`` node, the
layout of the engine's worst-case ``theta_star``.  Pasting two density
processes at a stopping time stays inside that hull.

Parameter uncertainty is described by ellipsoidal regions with a chi-square
radius, including orthogonal projections (which keep the full-dimensional
radius) and deterministic boundary/interior grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from .errors import ValidationError
from .scenario import LevelBlock, ScenarioLattice, StoppingTime

# scipy is imported inside the functions that use it, here and in gaussian, so
# density processes, the lattice engine and the oracle run with numpy alone.
# The Gaussian study loads only scipy.special, scipy.linalg and scipy.optimize:
# about 49 MB over numpy and 0.5 s to import (scipy 1.17, x86-64, warm cache).

_MARTINGALE_TOL = 1e-10
_MAX_DROP_FRACTION = 0.10


# ---------------------------------------------------------------------------
# density families
# ---------------------------------------------------------------------------


class DensityFamily:
    """One-step density factors ``f_t(theta)``.

    Lattice families implement :meth:`factors`.  ``factors(t, theta)``
    returns one factor per time-``t`` lattice node.

    :meth:`weights` returns positive weights ``w``: the factors times any
    positive constant per time-``t - 1`` node, so that ``f = w /
    E_{t-1}[w]``.  The worst-case expectation needs only these, as
    ``E_{t-1}[f v] = E_{t-1}[w v] / E_{t-1}[w]``.  Only :meth:`weights`
    takes a block: ``weights(t, theta, block)``, with a
    :class:`~ambival.scenario.LevelBlock` of level ``t - 1``, returns the
    weights of the block's children only, in level order, equal to the
    matching slice of the whole-level weights bit for bit.  The default
    slices the whole-level factors.

    ``out``, when given, is scratch storage of the returned shape, float64
    and contiguous, that the caller reuses for the next call: a family may
    write the weights into it and return it, or ignore it and return any
    array, a read-only view included.  Whatever it returns is only read,
    and only until the next call.
    """

    region: Optional["ParamRegion"] = None

    def factors(self, t: int, theta: Any) -> np.ndarray:
        raise ValidationError(f"{type(self).__name__} has no lattice factors")

    def weights(
        self,
        t: int,
        theta: Any,
        block: Optional[LevelBlock] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        f = self.factors(t, theta)
        return f if block is None else f[block.children]


class ExponentialTiltFamily(DensityFamily):
    """Conditionally normalized exponential tilt of a per-node score on a lattice.

    ``f_t(theta)`` at a node is ``exp(theta * score) / Z(parent)`` with the
    normalizer chosen per parent, so conditional mean 1 holds exactly by
    construction and every factor is strictly positive.  Its weights are
    ``exp(theta * score)``, formed in place in ``out`` when one is given.  A
    scalar score stands for the same score at every node of its level;
    scores must be finite.
    """

    def __init__(
        self,
        lattice: ScenarioLattice,
        scores: Sequence[np.ndarray],
        region: Optional["ParamRegion"] = None,
    ) -> None:
        self.lattice = lattice
        if len(scores) != lattice.horizon + 1:
            raise ValidationError("need one score array per level 0..T")
        self.scores = []
        for t, s in enumerate(scores):
            s = np.asarray(s, dtype=np.float64)
            n = lattice.n_nodes(t)
            if s.shape == ():
                s = np.full(n, s)
            elif s.shape != (n,):
                raise ValidationError(f"score at level {t} has shape {s.shape}, not ({n},)")
            if not np.all(np.isfinite(s)):
                raise ValidationError(f"non-finite score at level {t}")
            self.scores.append(s)
        self.region = region

    def weights(
        self,
        t: int,
        theta: Any,
        block: Optional[LevelBlock] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.size != 1:
            raise ValidationError(f"tilt parameter must be a scalar, got {theta.size} values")
        scores = self.scores[t] if block is None else self.scores[t][block.children]
        out = np.multiply(float(theta.reshape(-1)[0]), scores, out=out)
        return np.exp(out, out=out)

    def factors(self, t: int, theta: Any) -> np.ndarray:
        lat = self.lattice
        raw = self.weights(t, theta)
        z = lat.cond_sum(t - 1, lat.probs[t] * raw)
        return raw / z[lat.parents[t]]


# ---------------------------------------------------------------------------
# density processes on lattices
# ---------------------------------------------------------------------------


@dataclass
class DensityProcess:
    """Positive base-measure martingale held as its one-step factors.

    ``factors[t - 1]`` is ``f_t``, one value per time-``t`` node.  The values
    ``D_t = D_{t-1}[parent] * f_t`` with ``D_0 = 1`` are derived on
    construction, after every factor is checked to be positive with
    conditional mean 1 given its parent.
    """

    lattice: ScenarioLattice
    factors: List[np.ndarray]
    values: List[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        lat = self.lattice
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        self.validate()
        self.values = [np.ones(1)]
        for t, f in enumerate(self.factors, start=1):
            self.values.append(self.values[-1][lat.parents[t]] * f)
        for t, v in enumerate(self.values):
            if not np.all(v > 0.0):
                raise ValidationError(f"density process not positive at level {t}")

    def validate(self) -> None:
        lat = self.lattice
        if len(self.factors) != lat.horizon:
            raise ValidationError("density process needs one factor per period 1..T")
        for t, f in enumerate(self.factors, start=1):
            if f.shape != (lat.n_nodes(t),):
                raise ValidationError(f"density factor at level {t} has wrong length")
            # written so that a NaN factor or error fails the check
            if not np.all(f > 0.0):
                raise ValidationError(f"density factor not positive at level {t}")
            err = np.max(np.abs(lat.cond_sum(t - 1, lat.probs[t] * f) - 1.0))
            if not err <= _MARTINGALE_TOL:
                raise ValidationError(
                    f"martingale property violated at level {t - 1} (error {err:.3g})"
                )

    def ratio(self, t: int) -> np.ndarray:
        """One-step factor ``D_t / D_{t-1}`` per time-``t`` node."""
        return self.factors[t - 1]

    def expectation(self, t: int) -> float:
        return float(np.dot(self.lattice.path_probs(t), self.values[t]))


def density_process(
    family: DensityFamily,
    grid: Sequence[Any],
    choice: Union[int, Dict[int, Any]],
    lattice: ScenarioLattice,
) -> DensityProcess:
    """Density process of an adapted choice of grid points.

    ``choice`` is one index into ``grid`` used at every state, or a dict
    that maps each decision level ``t = 0..T-1`` to one grid index per
    time-``t`` node (the rectangular-hull case).  That is the layout of
    ``ValuationOutput.theta_star``, so ``density_process(family, grid,
    out.theta_star, lattice)`` is the engine's worst-case density process.
    Each chosen grid point is checked against the region once per period;
    its step-``t + 1`` factors form one row of a table, and the step factor
    is one gather from that table.
    """
    T = lattice.horizon
    constant = not isinstance(choice, dict)
    if constant:
        choice = dict.fromkeys(range(T), choice)
    elif set(choice) != set(range(T)):
        raise ValidationError(f"a choice needs the levels 0..{T - 1}, got {sorted(choice)}")
    factors = []
    for t in range(T):
        shape = () if constant else (lattice.n_nodes(t),)
        try:  # numpy raises ValueError for a ragged list
            idx = np.asarray(choice[t])
            if idx.shape != shape or idx.dtype.kind not in "iu":
                raise ValueError(f"{idx.dtype} of shape {idx.shape}")
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"choice at level {t} ({exc}): an adapted choice is one grid index, "
                f"or per level one per time-{t} state ({lattice.n_nodes(t)})"
            ) from exc
        rows = sorted(set(idx.ravel().tolist()))  # the chosen grid indices
        if rows[0] < 0 or rows[-1] >= len(grid):
            raise ValidationError(f"choice at level {t} indexes past a {len(grid)}-point grid")
        table = []
        for k in rows:
            if family.region is not None and not family.region.membership(grid[k]):
                raise ValidationError(f"chosen theta {grid[k]!r} outside the region")
            table.append(np.asarray(family.factors(t + 1, grid[k]), dtype=np.float64))
        idx = np.full(lattice.n_nodes(t), idx)  # one grid index per time-t node
        row = np.searchsorted(np.asarray(rows), idx[lattice.parents[t + 1]])
        factors.append(np.stack(table)[row, np.arange(lattice.n_nodes(t + 1))])
    return DensityProcess(lattice=lattice, factors=factors)


def paste(d1: DensityProcess, d2: DensityProcess, tau: StoppingTime) -> DensityProcess:
    """Splice two density processes at a stopping time.

    The result takes one-step factors from ``d1`` while ``s <= tau`` and from
    ``d2`` afterwards; with both inputs valid and ``tau <= T`` adapted, the
    output is again a valid density process.
    """
    lat = d1.lattice
    if d2.lattice is not lat or tau.lattice is not lat:
        raise ValidationError("paste requires both processes and tau on one lattice")
    if not np.all(tau.stopped_by[lat.horizon]):
        raise ValidationError("pasting requires a stopping time bounded by the horizon")
    factors = [
        # {s > tau} is known at s - 1
        np.where(tau.stopped_by[s - 1][lat.parents[s]], d2.ratio(s), d1.ratio(s))
        for s in range(1, lat.horizon + 1)
    ]
    return DensityProcess(lattice=lat, factors=factors)


# ---------------------------------------------------------------------------
# ellipsoidal parameter regions
# ---------------------------------------------------------------------------


@dataclass
class ParamRegion:
    """Ellipsoid ``{mu + r L s : r^2 <= radius2, |s| = 1}``.

    ``L`` is the lower-triangular Cholesky factor of the covariance; the
    Mahalanobis membership test is evaluated by triangular solves, never by
    explicit inversion.  ``radius2 == 0`` encodes the degenerate singleton.
    """

    center: np.ndarray
    chol: np.ndarray
    radius2: float

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64).reshape(-1)
        self.chol = np.asarray(self.chol, dtype=np.float64)
        if self.chol.shape != (self.dim, self.dim):
            raise ValidationError("region Cholesky factor shape inconsistent with the center")
        if not (
            np.all(np.isfinite(self.center))
            and np.all(np.isfinite(self.chol))
            and np.isfinite(self.radius2)
        ):
            raise ValidationError("region center, Cholesky factor and squared radius must be finite")
        if np.any(np.diag(self.chol) <= 0.0) or np.any(np.triu(self.chol, 1) != 0.0):
            raise ValidationError("Cholesky factor must be lower-triangular with positive diagonal")
        if self.radius2 < 0.0:
            raise ValidationError("squared radius must be nonnegative")

    def mahalanobis2(self, z: np.ndarray) -> Union[float, np.ndarray]:
        """Squared Mahalanobis distance: a float for a point, one per row of a 2-D batch."""
        z = np.asarray(z, dtype=np.float64)
        pts = np.atleast_2d(z)
        if z.ndim > 2 or pts.shape[-1] != self.dim:
            raise ValidationError(
                f"theta of shape {z.shape} is not a point or a 2-D batch with {self.dim} coordinates"
            )
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            where = f" in row {i} of the batch" if z.ndim == 2 else ""
            raise ValidationError(f"theta must be finite, got {pts[i].tolist()}{where}")
        import scipy.linalg

        y = scipy.linalg.solve_triangular(self.chol, (pts - self.center).T, lower=True)
        out = np.sum(y * y, axis=0)
        return out if z.ndim == 2 else float(out[0])

    def membership(self, z: np.ndarray) -> bool:
        return bool(self.mahalanobis2(z) <= self.radius2 + 1e-10)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def is_point(self) -> bool:
        return self.radius2 == 0.0


def point_region(center: np.ndarray) -> ParamRegion:
    """Degenerate region containing only ``center``."""
    center = np.asarray(center, dtype=np.float64).reshape(-1)
    return ParamRegion(center=center, chol=np.eye(len(center)), radius2=0.0)


def ellipsoid_region(mu: np.ndarray, sigma: np.ndarray, p: float) -> ParamRegion:
    """Approximate confidence region at level ``p`` for a ``k = len(mu)``-dim estimate.

    Radius is the chi-square(``k``) quantile of ``p`` applied to the squared
    Mahalanobis distance under ``(mu, sigma)``.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    sigma = np.asarray(sigma, dtype=np.float64)
    k = len(mu)
    if sigma.shape != (k, k):
        raise ValidationError("mu/sigma shapes inconsistent")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValidationError("region mean and covariance must be finite")
    if not 0.0 < p < 1.0:
        raise ValidationError("confidence level must lie in (0,1)")
    if np.max(np.abs(sigma - sigma.T)) > 1e-12 * max(1.0, np.max(np.abs(sigma))):
        raise ValidationError("covariance must be symmetric")
    import scipy.linalg

    try:
        chol = scipy.linalg.cholesky(0.5 * (sigma + sigma.T), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(f"covariance not positive definite: {exc}") from exc
    from scipy.special import gammaincinv

    # the chi-square(k) quantile: twice the inverse regularized gamma function at k / 2
    return ParamRegion(center=mu, chol=chol, radius2=float(2.0 * gammaincinv(k / 2, p)))


def project_region(region: ParamRegion, coords: Sequence[int]) -> ParamRegion:
    """Orthogonal projection onto a coordinate subset.

    The projected ellipsoid keeps the full-dimensional squared radius: it is
    the shadow of the original region, described by the sub-vector of the
    center and the Cholesky factor of the covariance sub-block.  A sub-block
    that is numerically singular raises :class:`ValidationError`.
    """
    coords = _coordinates(region, coords, "projection")
    if len(coords) == 0 or len(set(coords)) != len(coords):
        raise ValidationError(f"projection coordinates {coords} must be distinct and nonempty")
    import scipy.linalg

    sigma = region.chol @ region.chol.T
    sub = sigma[np.ix_(coords, coords)]
    try:
        chol = scipy.linalg.cholesky(sub, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(
            f"covariance of the projection onto coordinates {coords} is numerically singular: {exc}"
        ) from exc
    return ParamRegion(center=region.center[coords], chol=chol, radius2=region.radius2)


def _coordinates(region: ParamRegion, coords: Sequence[int], what: str) -> List[int]:
    """``coords`` as a list, each checked to index a coordinate of ``region``."""
    coords = list(coords)
    if any(not 0 <= c < region.dim for c in coords):
        raise ValidationError(f"{what} coordinates {coords} out of range for {region.dim} dims")
    return coords


@dataclass
class BoundaryGrid:
    points: np.ndarray  # (m, k), all exactly on the admissible boundary
    n_dropped: int


def _halton(d: int, m: int) -> np.ndarray:
    """Points ``1..m`` of the unscrambled ``d``-dimensional Halton sequence, one per row.

    Column ``j`` is the radical inverse of the point index in the ``j``-th
    prime base, summed digit by digit from the lowest as scipy's unscrambled
    ``qmc.Halton(d).random(m + 1)[1:]`` sums it, so the points equal those bit
    for bit.
    """
    bases: List[int] = []
    b = 2
    while len(bases) < d:
        if all(b % p for p in bases):
            bases.append(b)
        b += 1
    out = np.empty((m, d))
    for j, b in enumerate(bases):
        i = np.arange(1, m + 1)
        seq = np.zeros(m)
        b2r = 1.0 / b
        while i.any():
            seq += (i % b) * b2r
            b2r /= b
            i //= b
        out[:, j] = seq
    return out


def _normal_directions(u: np.ndarray) -> np.ndarray:
    """Unit vectors along the standard-normal quantiles of the rows of ``u``."""
    from scipy.special import ndtri

    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _sphere_points(k: int, m: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere in R^k."""
    if k == 1:
        reps = (m + 1) // 2
        return np.array([[1.0], [-1.0]] * reps)[:m]
    if k == 2:
        ang = 2.0 * np.pi * np.arange(m) / m
        return np.column_stack([np.cos(ang), np.sin(ang)])
    return _normal_directions(_halton(k, m))


def boundary_grid(
    region: ParamRegion,
    m: int,
    positive: Sequence[int] = (),
) -> BoundaryGrid:
    """``m`` points exactly on the region boundary.

    Points violating admissibility (``positive`` coordinates must be > 0) are
    clipped out and counted; the grid fails loudly when more than 10% of the
    points are dropped.
    """
    if m < 2:
        raise ValidationError("boundary resolution must be at least 2")
    positive = _coordinates(region, positive, "positive")
    if region.is_point:
        return BoundaryGrid(points=region.center[None, :], n_dropped=0)
    s = _sphere_points(region.dim, m)
    pts = region.center + np.sqrt(region.radius2) * (s @ region.chol.T)
    keep = np.ones(len(pts), dtype=bool)
    for c in positive:
        keep &= pts[:, c] > 0.0
    n_dropped = int(m - keep.sum())
    if n_dropped > _MAX_DROP_FRACTION * m:
        raise ValidationError(
            f"{n_dropped} of {m} boundary points violate admissibility constraints"
        )
    return BoundaryGrid(points=pts[keep], n_dropped=n_dropped)


def interior_grid(region: ParamRegion, m: int, positive: Sequence[int] = ()) -> np.ndarray:
    """Deterministic low-discrepancy grid of interior points (center included)."""
    positive = _coordinates(region, positive, "positive")
    if region.is_point:
        return region.center[None, :]
    k = region.dim
    u = _halton(k + 1, m)
    s = _normal_directions(u[:, :k])
    r = np.sqrt(region.radius2) * u[:, k] ** (1.0 / k)
    pts = region.center + (r[:, None] * s) @ region.chol.T
    pts = np.vstack([region.center[None, :], pts])
    keep = np.ones(len(pts), dtype=bool)
    for c in positive:
        keep &= pts[:, c] > 0.0
    return pts[keep]
