"""Conditional monetary risk measures: value-at-risk and average value-at-risk.

Sign convention: every function takes the position ``Z`` (a gain) and owns the
loss transform ``-Z`` internally.  Two estimators share one convention:
``apply_discrete`` is the lattice kernel: it measures, in one call, the
finite law given by atoms and probabilities on every segment of a lattice
level (the children of each parent).  ``apply_empirical`` measures each row
of a batch of equally weighted samples.  The quantile is the upper order
statistic at index ``ceil((1 - q) n)``, i.e. the essential-infimum quantile of
the loss law; tail averages are computed exactly with a fractional weight on
the marginal observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

VAR = "VAR"
AVAR = "AVAR"

_TIE_EPS = 1e-9  # keeps ceil((1 - q) n) from rounding up when (1 - q) n is whole
_BLOCK = 1 << 16  # atoms per matrix in apply_discrete; bounds its scratch memory


@dataclass(frozen=True)
class RiskMeasureSpec:
    kind: str
    level: float

    def __post_init__(self) -> None:
        if self.kind not in (VAR, AVAR):
            raise ValidationError(f"unknown risk measure kind {self.kind!r}")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("level must lie in (0,1)")


def _as_losses(sample: np.ndarray) -> np.ndarray:
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValidationError("empty sample")
    if not np.all(np.isfinite(sample)):
        raise ValidationError("non-finite sample values")
    return -sample


def gaussian_c(spec: RiskMeasureSpec) -> float:
    """Risk measure applied to a standard normal position: the constant ``c``.

    For a standard normal innovation ``e`` independent of the current
    information, ``rho(e)`` is the same constant at every time:
    ``Phi^{-1}(1 - q)`` for value-at-risk, ``phi(Phi^{-1}(1 - q)) / q`` for
    average value-at-risk.
    """
    from scipy.stats import norm  # on first use: the lattice kernel never needs scipy.stats

    z = norm.ppf(1.0 - spec.level)
    if spec.kind == VAR:
        return float(z)
    return float(norm.pdf(z) / spec.level)


def apply_empirical(spec: RiskMeasureSpec, y: np.ndarray) -> np.ndarray:
    """Empirical risk measure of each row of positions ``y`` (over the last axis).

    V@R is the ``ceil((1 - q) n)``-th loss order statistic of the row, found
    by a partial sort; AV@R is the exact mean of the upper-``q`` loss tail with
    a fractional weight on the marginal order statistic, from a sort of only
    the ``ceil(q n) + 1`` largest losses (later ones carry zero weight; the
    extra one absorbs the rounding of ``q n``).  A 1-D sample gives a scalar.
    """
    losses = _as_losses(y)
    n = losses.shape[-1]
    if spec.kind == VAR:
        k = int(np.ceil((1.0 - spec.level) * n - _TIE_EPS))
        k = min(max(k, 1), n)
        return np.partition(losses, k - 1, axis=-1)[..., k - 1]
    k = min(int(np.ceil(spec.level * n)) + 1, n)
    top = np.sort(np.partition(losses, n - k, axis=-1)[..., n - k :], axis=-1)[..., ::-1]
    tail_w = np.clip(spec.level - np.arange(k) / n, 0.0, 1.0 / n)
    return top @ tail_w / spec.level


def apply_discrete(
    spec: RiskMeasureSpec, values: np.ndarray, probs: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Risk measure of every segment ``offsets[j]:offsets[j + 1]`` of a level.

    Each segment (on a lattice, the children of one node) is a finite law
    given by atoms ``values`` and probabilities ``probs``; the result holds one
    value per segment.  V@R is the smallest loss whose cumulative probability,
    atoms sorted by loss, reaches ``1 - q`` (less ``1e-12``); AV@R is the exact
    mean of the upper-``q`` loss tail, the marginal atom entering with
    fractional weight.  Tied atoms keep their index order.  Segments of equal
    size are measured as the rows of matrices of at most ``_BLOCK`` atoms, so
    cumulative sums run within each segment and scratch memory stays bounded.
    """
    losses = _as_losses(values)
    probs = np.asarray(probs, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if probs.shape != losses.shape or losses.ndim != 1 or len(offsets) < 2 or (
        offsets[0] != 0 or offsets[-1] != len(losses) or np.any(sizes < 1)
    ):
        raise ValidationError("offsets must cut atoms and probabilities into nonempty segments")
    out = np.empty(len(sizes))
    for size in np.unique(sizes):
        seg = np.flatnonzero(sizes == size)
        step = max(1, _BLOCK // size)
        for part in (seg[i : i + step] for i in range(0, len(seg), step)):
            idx = offsets[part, None] + np.arange(size)
            out[part] = _measure_rows(spec, losses[idx], probs[idx])
    return out


def _measure_rows(spec: RiskMeasureSpec, losses: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Risk measure of each row of a (laws, atoms) matrix of losses and probabilities."""
    rows = np.arange(len(losses))[:, None]
    order = np.argsort(losses if spec.kind == VAR else -losses, axis=1, kind="stable")
    srt, w = losses[rows, order], probs[rows, order]
    if spec.kind == VAR:
        k = (np.cumsum(w, axis=1) < (1.0 - spec.level) - 1e-12).sum(axis=1)
        return srt[rows[:, 0], np.minimum(k, w.shape[1] - 1)]
    cum_before = np.zeros_like(w)
    np.cumsum(w[:, :-1], axis=1, out=cum_before[:, 1:])
    tail_w = np.clip(spec.level - cum_before, 0.0, w)
    # one dot product per row, summed as np.dot sums a single law
    return np.matmul(tail_w[:, None, :], srt[:, :, None])[:, 0, 0] / spec.level
