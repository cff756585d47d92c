"""Conditional monetary risk measures: value-at-risk and average value-at-risk.

Sign convention: every function takes the position ``Z`` (a gain) and owns the
loss transform ``-Z`` internally, except ``tail_measure``, which takes losses.
Two estimators share one convention: ``apply_discrete`` is the lattice
kernel: it measures, in one call, the finite law given by atoms and
probabilities on every segment of a lattice level (the children of each
parent).  ``apply_empirical`` measures each row of a batch of equally
weighted samples through ``tail_count`` and ``tail_measure``; a caller that
can bound its losses measures with them only the few that may reach the
tail.  The quantile is the upper order statistic at index ``ceil((1 - q) n)``,
i.e. the essential-infimum quantile of the loss law; tail averages are
computed exactly with a fractional weight on the marginal observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .scenario import _BLOCK  # atoms per matrix in apply_discrete; bounds its scratch memory

VAR = "VAR"
AVAR = "AVAR"

_TIE_EPS = 1e-9  # keeps ceil((1 - q) n) from rounding up when (1 - q) n is whole


@dataclass(frozen=True)
class RiskMeasureSpec:
    kind: str
    level: float

    def __post_init__(self) -> None:
        if self.kind not in (VAR, AVAR):
            raise ValidationError(f"unknown risk measure kind {self.kind!r}")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("level must lie in (0,1)")


def _checked(sample: np.ndarray) -> np.ndarray:
    """The sample as float64, rejected if empty or not finite; no copy of float64 input."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValidationError("empty sample")
    if not np.all(np.isfinite(sample)):
        raise ValidationError("non-finite sample values")
    return sample


def gaussian_c(spec: RiskMeasureSpec) -> float:
    """Risk measure applied to a standard normal position: the constant ``c``.

    For a standard normal innovation ``e`` independent of the current
    information, ``rho(e)`` is the same constant at every time:
    ``Phi^{-1}(1 - q)`` for value-at-risk, ``phi(Phi^{-1}(1 - q)) / q`` for
    average value-at-risk.
    """
    from scipy.special import ndtri  # on first use: the lattice kernel never needs scipy

    z = ndtri(1.0 - spec.level)
    if spec.kind == VAR:
        return float(z)
    return float(np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / spec.level)


def apply_empirical(spec: RiskMeasureSpec, y: np.ndarray) -> np.ndarray:
    """Empirical risk measure of each row of positions ``y`` (over the last axis).

    The row's losses go whole to :func:`tail_measure`.  A 1-D sample gives a
    scalar.
    """
    losses = -_checked(y)
    return tail_measure(spec, losses, losses.shape[-1])


def tail_count(spec: RiskMeasureSpec, n: int) -> int:
    """How many of the largest losses of an ``n``-sample the measure reads.

    V@R reads the ``ceil((1 - q) n)``-th loss order statistic, the
    ``n + 1 - ceil((1 - q) n)``-th largest; AV@R reads the ``ceil(q n) + 1``
    largest (later ones carry zero weight; the extra one absorbs the rounding
    of ``q n``).  Never more than ``n``.
    """
    if spec.kind == VAR:
        k = int(np.ceil((1.0 - spec.level) * n - _TIE_EPS))
        return n + 1 - min(max(k, 1), n)
    return min(int(np.ceil(spec.level * n)) + 1, n)


def tail_measure(spec: RiskMeasureSpec, losses: np.ndarray, n: int) -> np.ndarray:
    """Empirical risk measure of an ``n``-sample from part of its losses.

    ``losses`` (over the last axis) may be any part of each row's losses that
    holds its ``m = tail_count(spec, n)`` largest, with their ties: the result
    is the same bits as from the whole row.  V@R is the ``m``-th largest loss,
    found by a partial sort; AV@R is the exact mean of the upper-``q`` loss
    tail with a fractional weight on the marginal order statistic, from a sort
    of only the ``m`` largest losses.
    """
    m = tail_count(spec, n)
    j = losses.shape[-1] - m
    if spec.kind == VAR:
        return np.partition(losses, j, axis=-1)[..., j]
    top = np.sort(np.partition(losses, j, axis=-1)[..., j:], axis=-1)[..., ::-1]
    tail_w = np.clip(spec.level - np.arange(m) / n, 0.0, 1.0 / n)
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
    Where the segments of one size follow each other, as on every level of
    equal width, the matrices are reshaped views of ``values`` and
    ``probs``; otherwise they are gathered by index.  ``values`` is checked in
    place and only each matrix is negated into losses, so the level is never
    copied whole.
    """
    values = _checked(values)
    probs = np.asarray(probs, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if probs.shape != values.shape or values.ndim != 1 or len(offsets) < 2 or (
        offsets[0] != 0 or offsets[-1] != len(values) or np.any(sizes < 1)
    ):
        raise ValidationError("offsets must cut atoms and probabilities into nonempty segments")
    out = np.empty(len(sizes))
    for size in np.unique(sizes):
        seg = np.flatnonzero(sizes == size)
        step = max(1, _BLOCK // size)
        run = seg[-1] - seg[0] + 1 == len(seg)
        if run:  # consecutive segments: their atoms are the rows of a view
            atoms = slice(offsets[seg[0]], offsets[seg[-1] + 1])
            run_values = values[atoms].reshape(-1, size)
            run_probs = probs[atoms].reshape(-1, size)
        for i in range(0, len(seg), step):
            part = seg[i : i + step]
            if run:
                losses, p = -run_values[i : i + step], run_probs[i : i + step]
            else:
                idx = offsets[part, None] + np.arange(size)
                losses, p = -values[idx], probs[idx]
            out[part] = _measure_rows(spec, losses, p)
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
