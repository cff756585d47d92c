"""Parametric ambiguity sets via one-step density factors.

A measure change away from the base measure is encoded as a positive
martingale built from one-step factors ``f_t(theta)``: each factor is known at
time ``t``, strictly positive, and has conditional mean 1 given time ``t - 1``.
Adapted parameter selections (one theta per time, possibly state-dependent)
generate the rectangular hull of the parametric family; pasting two density
processes at a stopping time stays inside that hull.

Parameter uncertainty is described by ellipsoidal regions with a chi-square
radius, including orthogonal projections (which keep the full-dimensional
radius) and deterministic boundary/interior grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from .errors import ValidationError
from .scenario import LevelBlock, ScenarioLattice, StoppingTime

# scipy.stats (about 22 MB and 0.5 s to import) is imported by the region and
# grid functions that use it, so density processes and the oracle never load it.

_MARTINGALE_TOL = 1e-10
_MAX_DROP_FRACTION = 0.10


# ---------------------------------------------------------------------------
# density families
# ---------------------------------------------------------------------------


class DensityFamily:
    """One-step density factors ``f_t(theta)``.

    Lattice families implement :meth:`factors`.  ``factors(t, theta)``
    returns one factor per time-``t`` lattice node.  ``factors(t, theta,
    block)``, with a :class:`~ambival.scenario.LevelBlock` of level ``t - 1``,
    returns the factors of the block's children only, in level order; they
    equal the matching slice of the whole-level factors bit for bit.

    :meth:`weights` takes the same arguments and returns positive weights
    ``w``: the factors times any positive constant per time-``t - 1`` node,
    so that ``f = w / E_{t-1}[w]``.  The worst-case expectation needs only
    these, as
    ``E_{t-1}[f v] = E_{t-1}[w v] / E_{t-1}[w]``.  A block's weights must
    equal the matching slice of the whole-level weights bit for bit.  The
    default returns the factors themselves.
    """

    dim: int = 1
    region: Optional["ParamRegion"] = None

    def factors(self, t: int, theta: Any, block: Optional[LevelBlock] = None) -> np.ndarray:
        raise ValidationError(f"{type(self).__name__} has no lattice factors")

    def weights(self, t: int, theta: Any, block: Optional[LevelBlock] = None) -> np.ndarray:
        return self.factors(t, theta, block)


class ExponentialTiltFamily(DensityFamily):
    """Conditionally normalized exponential tilt of a per-node score on a lattice.

    ``f_t(theta)`` at a node is ``exp(theta * score) / Z(parent)`` with the
    normalizer chosen per parent, so conditional mean 1 holds exactly by
    construction and every factor is strictly positive.  Its weights are
    ``exp(theta * score)``.  A scalar score stands for the same score at
    every node of its level; scores must be finite.
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
        self.dim = 1
        self.region = region

    def weights(self, t: int, theta: Any, block: Optional[LevelBlock] = None) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.size != 1:
            raise ValidationError(f"tilt parameter must be a scalar, got {theta.size} values")
        scores = self.scores[t] if block is None else self.scores[t][block.children]
        return np.exp(float(theta.reshape(-1)[0]) * scores)

    def factors(self, t: int, theta: Any, block: Optional[LevelBlock] = None) -> np.ndarray:
        lat = self.lattice
        raw = self.weights(t, theta, block)
        probs, parent_of = lat.probs[t], lat.parents[t]
        if block is not None:
            probs, parent_of = probs[block.children], block.parent_of
        z = lat.cond_sum(t - 1, probs * raw, block)
        return raw / z[parent_of]


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


Selection = Union[Any, Dict[int, Any]]


def _selection_rows(
    lattice: ScenarioLattice, selection: Selection, t: int
) -> Tuple[List[Any], np.ndarray]:
    """Distinct thetas of the step-``t`` factor and a row index per time-``t - 1`` node."""
    n_prev = lattice.n_nodes(t - 1)
    if isinstance(selection, dict):
        if t not in selection:
            raise ValidationError(f"selection missing period {t}")
        entry = selection[t]
    else:
        entry = selection
    # Per-state (rectangular) choices are given as a list indexed by the
    # time-(t - 1) nodes; any other type is a single theta used at all states.
    if not isinstance(entry, list):
        return [entry], np.zeros(n_prev, dtype=np.int64)
    if len(entry) != n_prev:
        raise ValidationError(
            f"selection at period {t} has {len(entry)} entries; an adapted "
            f"choice must read only the {n_prev} time-{t - 1} states"
        )
    rows: Dict[Any, int] = {}
    thetas: List[Any] = []
    idx = np.empty(n_prev, dtype=np.int64)
    for j, th in enumerate(entry):
        try:
            key = th
            hash(key)
        except TypeError:
            key = id(th)
        if key not in rows:
            rows[key] = len(thetas)
            thetas.append(th)
        idx[j] = rows[key]
    return thetas, idx


def density_process(
    family: DensityFamily, selection: Selection, lattice: ScenarioLattice
) -> DensityProcess:
    """Density process of an adapted parameter selection.

    ``selection`` is a constant theta, a per-period dict of thetas, or a
    per-period dict of per-state theta lists indexed by time-``t - 1`` nodes
    (the rectangular-hull case).  Each distinct theta is checked against the
    region once per period; its factors form one row of a table, and the
    step-``t`` factor is one gather ``table[idx[parents[t]], arange(n_t)]``.
    """
    periods = range(1, lattice.horizon + 1)
    if isinstance(selection, dict) and not set(selection) <= set(periods):
        raise ValidationError(f"selection periods must lie in 1..{lattice.horizon}")
    factors = []
    for t in periods:
        thetas, idx = _selection_rows(lattice, selection, t)
        table = []
        for th in thetas:
            if family.region is not None and not family.region.membership(th):
                raise ValidationError(f"selected theta {th!r} outside the region")
            table.append(np.asarray(family.factors(t, th), dtype=np.float64))
        nodes = np.arange(lattice.n_nodes(t))
        factors.append(np.stack(table)[idx[lattice.parents[t]], nodes])
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
    if tau.max_value() > lat.horizon:
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
    dim: int

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64).reshape(-1)
        self.chol = np.asarray(self.chol, dtype=np.float64)
        if self.center.shape != (self.dim,) or self.chol.shape != (self.dim, self.dim):
            raise ValidationError("region center/Cholesky shapes inconsistent with dim")
        if np.any(np.diag(self.chol) <= 0.0) or np.any(np.triu(self.chol, 1) != 0.0):
            raise ValidationError("Cholesky factor must be lower-triangular with positive diagonal")
        if self.radius2 < 0.0:
            raise ValidationError("squared radius must be nonnegative")

    def mahalanobis2(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[-1] != self.dim:
            raise ValidationError(f"theta has {z.shape[-1]} coordinates, not {self.dim}")
        y = scipy.linalg.solve_triangular(self.chol, (z - self.center).T, lower=True)
        out = np.sum(y * y, axis=0)
        return out if out.size > 1 else out[0]

    def membership(self, z: np.ndarray) -> bool:
        return bool(self.mahalanobis2(np.asarray(z)) <= self.radius2 + 1e-10)

    @property
    def is_point(self) -> bool:
        return self.radius2 == 0.0


def point_region(center: np.ndarray) -> ParamRegion:
    """Degenerate region containing only ``center``."""
    center = np.asarray(center, dtype=np.float64).reshape(-1)
    return ParamRegion(center=center, chol=np.eye(len(center)), radius2=0.0, dim=len(center))


def ellipsoid_region(mu: np.ndarray, sigma: np.ndarray, p: float, k: int) -> ParamRegion:
    """Approximate confidence region at level ``p`` for a ``k``-dim estimate.

    Radius is the chi-square(``k``) quantile of ``p`` applied to the squared
    Mahalanobis distance under ``(mu, sigma)``.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != (k,) or sigma.shape != (k, k):
        raise ValidationError("mu/sigma shapes inconsistent with k")
    if not 0.0 < p < 1.0:
        raise ValidationError("confidence level must lie in (0,1)")
    if np.max(np.abs(sigma - sigma.T)) > 1e-12 * max(1.0, np.max(np.abs(sigma))):
        raise ValidationError("covariance must be symmetric")
    try:
        chol = scipy.linalg.cholesky(0.5 * (sigma + sigma.T), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(f"covariance not positive definite: {exc}") from exc
    from scipy.stats import chi2

    return ParamRegion(center=mu, chol=chol, radius2=float(chi2.ppf(p, k)), dim=k)


def project_region(region: ParamRegion, coords: Sequence[int]) -> ParamRegion:
    """Orthogonal projection onto a coordinate subset.

    The projected ellipsoid keeps the full-dimensional squared radius: it is
    the shadow of the original region, described by the sub-vector of the
    center and the Cholesky factor of the covariance sub-block.
    """
    coords = list(coords)
    if len(coords) == 0:
        raise ValidationError("coordinate subset must be nonempty")
    if any(c < 0 or c >= region.dim for c in coords):
        raise ValidationError("coordinate index out of range")
    sigma = region.chol @ region.chol.T
    sub = sigma[np.ix_(coords, coords)]
    return ParamRegion(
        center=region.center[coords],
        chol=scipy.linalg.cholesky(sub, lower=True),
        radius2=region.radius2,
        dim=len(coords),
    )


@dataclass
class BoundaryGrid:
    points: np.ndarray  # (m, k), all exactly on the admissible boundary
    n_dropped: int


def _sphere_points(k: int, m: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere in R^k."""
    if k == 1:
        reps = (m + 1) // 2
        return np.array([[1.0], [-1.0]] * reps)[:m]
    if k == 2:
        ang = 2.0 * np.pi * np.arange(m) / m
        return np.column_stack([np.cos(ang), np.sin(ang)])
    from scipy.stats import norm, qmc

    u = qmc.Halton(d=k, scramble=False).random(m + 1)[1:]
    z = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


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
    if region.is_point:
        return region.center[None, :]
    from scipy.stats import norm, qmc

    k = region.dim
    u = qmc.Halton(d=k + 1, scramble=False).random(m + 1)[1:]
    z = norm.ppf(np.clip(u[:, :k], 1e-12, 1.0 - 1e-12))
    s = z / np.linalg.norm(z, axis=1, keepdims=True)
    r = np.sqrt(region.radius2) * u[:, k] ** (1.0 / k)
    pts = region.center + (r[:, None] * s) @ region.chol.T
    pts = np.vstack([region.center[None, :], pts])
    keep = np.ones(len(pts), dtype=bool)
    for c in positive:
        keep &= pts[:, c] > 0.0
    return pts[keep]
