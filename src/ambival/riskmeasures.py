"""Conditional monetary risk measures: value-at-risk and average value-at-risk.

Sign convention: every function takes the position ``Z`` (a gain) and owns the
loss transform ``-Z`` internally.  Two estimators share one convention:
``apply_discrete`` measures a finite law given by atoms and probabilities (the
lattice kernel), ``apply_empirical`` measures each row of a batch of equally
weighted samples.  The quantile is the upper order statistic at index
``ceil((1 - q) n)``, i.e. the essential-infimum quantile of the loss law; tail
averages are computed exactly with a fractional weight on the marginal
observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import ValidationError

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


def _as_losses(sample: np.ndarray) -> np.ndarray:
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValidationError("empty sample")
    if not np.all(np.isfinite(sample)):
        raise ValidationError("non-finite sample values")
    return -sample


def var_discrete(values: np.ndarray, probs: np.ndarray, q: float) -> float:
    """Value-at-risk of a finite discrete law given by atoms and probabilities."""
    losses = _as_losses(values)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(losses, kind="stable")
    cum = np.cumsum(probs[order])
    idx = int(np.searchsorted(cum, (1.0 - q) - 1e-12))
    idx = min(idx, len(losses) - 1)
    return float(losses[order][idx])


def avar_discrete(values: np.ndarray, probs: np.ndarray, q: float) -> float:
    """Average value-at-risk: exact mean of the upper-``q`` loss tail.

    The marginal atom straddling the tail boundary enters with fractional
    weight, so the result is the exact integral of the quantile function.
    """
    losses = _as_losses(values)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-losses, kind="stable")
    sorted_losses = losses[order]
    w = probs[order]
    cum_before = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    tail_w = np.clip(q - cum_before, 0.0, w)
    return float(np.dot(tail_w, sorted_losses) / q)


def gaussian_c(spec: RiskMeasureSpec) -> float:
    """Risk measure applied to a standard normal position: the constant ``c``.

    For a standard normal innovation ``e`` independent of the current
    information, ``rho(e)`` is the same constant at every time:
    ``Phi^{-1}(1 - q)`` for value-at-risk, ``phi(Phi^{-1}(1 - q)) / q`` for
    average value-at-risk.
    """
    z = norm.ppf(1.0 - spec.level)
    if spec.kind == VAR:
        return float(z)
    return float(norm.pdf(z) / spec.level)


def apply_empirical(spec: RiskMeasureSpec, y: np.ndarray) -> np.ndarray:
    """Empirical risk measure of each row of positions ``y`` (over the last axis).

    V@R is the ``ceil((1 - q) n)``-th loss order statistic of the row, found
    by a partial sort; AV@R is the exact mean of the upper-``q`` loss tail with
    a fractional weight on the marginal order statistic.  A 1-D sample gives a
    scalar.
    """
    losses = _as_losses(y)
    n = losses.shape[-1]
    if spec.kind == VAR:
        k = int(np.ceil((1.0 - spec.level) * n - _TIE_EPS))
        k = min(max(k, 1), n)
        return np.partition(losses, k - 1, axis=-1)[..., k - 1]
    srt = np.sort(losses, axis=-1)[..., ::-1]
    cum_before = np.arange(n) / n
    tail_w = np.clip(spec.level - cum_before, 0.0, 1.0 / n)
    return srt @ tail_w / spec.level


def apply_discrete(spec: RiskMeasureSpec, values: np.ndarray, probs: np.ndarray) -> float:
    if spec.kind == VAR:
        return var_discrete(values, probs, spec.level)
    return avar_discrete(values, probs, spec.level)
