"""Backward-recursion valuation engine under a set of parametric priors.

Given a residual cash flow, a conditional risk measure fixing the capital
requirement, and a parametric family of one-step density factors, the engine
solves the backward recursion

    R_t = rho_t(-X_{t+1} - V_{t+1})                (capital requirement)
    C_t = inf_theta E_t[f_{t+1}(theta) (R_t - X_{t+1} - V_{t+1})^+]
    V_t = R_t - C_t,                                V_T = C_T = R_T = 0,

which on an exact lattice equals the sup-inf value of the owner's optimal
default problem over the rectangular hull of the family.  The optimization
over measures collapses to the parameter grid.

Capital requirements are always measured under the base measure; ambiguity
enters only through the worst-case conditional expectation in ``C_t``.  Its
reweighted expectation is self-normalised: with the family's weights ``w``
(proportional to ``f_{t+1}`` within each sibling group) it is
``E_t[w v] / E_t[w]``, one division per parent.  Each level is evaluated one
block of whole sibling groups at a time, and the results are bit-identical
however the level is cut into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, ValidationError
from .priors import DensityFamily, density_process
from .riskmeasures import RiskMeasureSpec, apply_discrete
from .scenario import AdaptedProcess, ScenarioLattice, StoppingTime, assert_adapted


@dataclass
class CashFlowSpec:
    """Liability cash flow minus replicating cash flow.

    ``liability`` (and the optional ``replicating``) carry values at times
    1..T; the residual flow ``X`` is computed on construction.
    """

    liability: AdaptedProcess
    replicating: Optional[AdaptedProcess] = None
    residual: AdaptedProcess = field(init=False)
    horizon: int = field(init=False)

    def __post_init__(self) -> None:
        times = self.liability.times()
        if not times:
            raise ValidationError("liability cash flow is empty")
        self.horizon = max(times)
        if times != list(range(1, self.horizon + 1)):
            raise ValidationError("liability must carry values at times 1..T")
        if self.replicating is None:
            values = {t: self.liability.at(t).copy() for t in times}
        else:
            if self.replicating.times() != times:
                raise ValidationError("replicating cash flow horizon mismatch")
            values = {}
            for t in times:
                a, b = self.liability.at(t), self.replicating.at(t)
                if a.shape != b.shape:
                    raise ValidationError(f"cash flow shape mismatch at time {t}")
                values[t] = a - b
        self.residual = AdaptedProcess(name="X", values=values)

    def x(self, t: int) -> np.ndarray:
        return self.residual.at(t)


@dataclass
class ValuationOutput:
    """Per-time, per-state results of the backward recursion."""

    horizon: int
    R: Dict[int, np.ndarray]
    C: Dict[int, np.ndarray]
    V: Dict[int, np.ndarray]
    theta_star: Dict[int, np.ndarray]  # grid index per time-t state
    default_indicator: Dict[int, np.ndarray]  # {R_{t-1} - X_t - V_t < 0} per time-t state
    grid: List[Any]

    @property
    def v0(self) -> float:
        return float(self.V[0][0])

    @property
    def r0(self) -> float:
        return float(self.R[0][0])

    @property
    def c0(self) -> float:
        return float(self.C[0][0])


def payoff_process(
    r_proc: AdaptedProcess, x_proc: AdaptedProcess, lattice: ScenarioLattice
) -> AdaptedProcess:
    """Cumulative owner's payoff: surplus released up to each time.

    ``H_1 = 0`` and ``H_t = sum_{s<t} (R_{s-1} - R_s - X_s)``; the process is
    predictable, so the value indexed ``t`` lives on level ``t - 1``.
    """
    T = lattice.horizon
    if max(x_proc.times()) != T or T not in r_proc.values:
        raise ValidationError("payoff process inputs do not share the lattice horizon")
    if np.max(np.abs(r_proc.at(T))) != 0.0:
        raise ValidationError("terminal capital requirement must be zero")
    values: Dict[int, np.ndarray] = {1: np.zeros(1)}
    known = {1: 0}
    for t in range(1, T + 1):
        prev = values[t][lattice.parents[t]]
        inc = r_proc.at(t - 1)[lattice.parents[t]] - r_proc.at(t) - x_proc.at(t)
        values[t + 1] = prev + inc
        known[t + 1] = t
    return AdaptedProcess(name="H", values=values, known_at=known)


def cond_risk(
    lattice: ScenarioLattice, rm: RiskMeasureSpec, position_next: np.ndarray, t: int
) -> np.ndarray:
    """Conditional risk measure of a time-``t + 1`` position, one value per time-``t`` node."""
    return apply_discrete(rm, position_next, lattice.probs[t + 1], lattice.child_offsets[t])


def worst_case_cond_exp(
    lattice: ScenarioLattice,
    family: DensityFamily,
    grid: Sequence[Any],
    values_next: np.ndarray,
    t: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize the reweighted conditional expectation over the parameter grid.

    Returns the per-state minimum and the arg-minimal grid index (ties broken
    by the lowest index).  The supremum of ``y`` is exactly the negated
    infimum of ``-y``.  The expectation under ``f_{t+1}(theta)`` is computed
    from the family's weights as ``E_t[w v] / E_t[w]``, so no factor is
    normalised child by child.  The level is evaluated one block of whole
    sibling groups at a time (``lattice.blocks[t]``), every grid point inside
    the block, so the block's arrays stay in cache across the grid; each
    parent's sums cover the same children in the same order as a whole-level
    pass.
    """
    if len(grid) == 0:
        raise ValidationError("parameter grid must be nonempty")
    n_next = lattice.n_nodes(t + 1)
    if np.shape(values_next) != (n_next,):
        raise ValidationError(
            f"values at level {t + 1} have shape {np.shape(values_next)}, not ({n_next},)"
        )
    probs = lattice.probs[t + 1]
    mins, args = [], []
    for block in lattice.blocks[t]:
        if block is None:  # the whole level
            p, v, first, n = probs, values_next, 0, lattice.n_nodes(t)
        else:
            p, v = probs[block.children], values_next[block.children]
            first, n = block.nodes.start, len(block.starts)
        pv = p * v
        table = np.empty((len(grid), n))
        for i, theta in enumerate(grid):
            w = np.asarray(family.weights(t + 1, theta, block), dtype=np.float64)
            row = lattice.cond_sum(t, w * pv, block) / lattice.cond_sum(t, w * p, block)
            if not np.all(np.isfinite(row)):
                bad = first + int(np.argmax(~np.isfinite(row)))
                raise NumericalError(
                    f"non-finite reweighted expectation at t={t}, state {bad}, theta={theta!r}"
                )
            table[i] = row
        arg = np.argmin(table, axis=0)
        mins.append(table[arg, np.arange(len(arg))])
        args.append(arg)
    if len(mins) == 1:  # the whole level: no copy
        return mins[0], args[0]
    return np.concatenate(mins), np.concatenate(args)


def value_multiprior(
    cf: CashFlowSpec,
    rm: RiskMeasureSpec,
    family: DensityFamily,
    grid: Sequence[Any],
    lattice: ScenarioLattice,
) -> ValuationOutput:
    """Full backward recursion for the multiple-prior value on a lattice.

    The recursion is exact.  The residual cash flow must carry one finite
    value per lattice node at each time 1..T, and every grid point must lie
    in the family's region, if it has one.
    """
    if not isinstance(lattice, ScenarioLattice):
        raise ValidationError(
            f"value_multiprior needs a ScenarioLattice, got {type(lattice).__name__}"
        )
    T = lattice.horizon
    if cf.horizon != T:
        raise ValidationError("cash flow horizon does not match the lattice")
    assert_adapted(lattice, cf.residual)
    if len(grid) == 0:
        raise ValidationError("parameter grid must be nonempty")
    if family.region is not None:
        for theta in grid:
            if not family.region.membership(theta):
                raise ValidationError(f"theta {theta!r} outside the parameter region")
    zeros_T = np.zeros(lattice.n_nodes(T))
    R = {T: zeros_T.copy()}
    C = {T: zeros_T.copy()}
    V = {T: zeros_T.copy()}
    theta_star: Dict[int, np.ndarray] = {}
    default_ind: Dict[int, np.ndarray] = {}
    for t in range(T - 1, -1, -1):
        y_next = cf.x(t + 1) + V[t + 1]
        R[t] = cond_risk(lattice, rm, -y_next, t)
        # worst-case expected positive surplus, then the net value
        w = R[t][lattice.parents[t + 1]] - cf.x(t + 1) - V[t + 1]
        C[t], theta_star[t] = worst_case_cond_exp(
            lattice, family, grid, np.maximum(w, 0.0), t
        )
        V[t] = R[t] - C[t]
        default_ind[t + 1] = (R[t][lattice.parents[t + 1]] - y_next) < 0.0
    return ValuationOutput(
        horizon=T,
        R=R,
        C=C,
        V=V,
        theta_star=theta_star,
        default_indicator=default_ind,
        grid=list(grid),
    )


def value_singleprior(
    cf: CashFlowSpec,
    rm: RiskMeasureSpec,
    family: DensityFamily,
    theta: Any,
    lattice: ScenarioLattice,
) -> ValuationOutput:
    """Recursion under the single prior selected by ``theta``."""
    return value_multiprior(cf, rm, family, [theta], lattice)


def expected_total_cashflow(
    cf: CashFlowSpec, family: DensityFamily, theta: Any, lattice: ScenarioLattice
) -> float:
    """``E`` under the constant-``theta`` prior of the total residual cash flow."""
    d = density_process(family, theta, lattice)
    total = 0.0
    for t in range(1, lattice.horizon + 1):
        total += float(np.dot(lattice.path_probs(t) * d.values[t], cf.x(t)))
    return total


def upper_bound(
    cf: CashFlowSpec,
    family: DensityFamily,
    grid: Sequence[Any],
    lattice: ScenarioLattice,
) -> float:
    """Conservative bound: worst-case expected total residual cash flow.

    The maximum over the grid of the exact lattice expectation under each
    constant-parameter prior.
    """
    if len(grid) == 0:
        raise ValidationError("parameter grid must be nonempty")
    return max(expected_total_cashflow(cf, family, theta, lattice) for theta in grid)


def lower_bound(
    cf: CashFlowSpec,
    rm: RiskMeasureSpec,
    family: DensityFamily,
    grid: Sequence[Any],
    lattice: ScenarioLattice,
) -> Tuple[float, Any]:
    """Best single-prior value over the grid and the maximizing parameter."""
    if len(grid) == 0:
        raise ValidationError("parameter grid must be nonempty")
    best, best_theta = -np.inf, None
    for theta in grid:
        v0 = value_multiprior(cf, rm, family, [theta], lattice).v0
        if v0 > best:
            best, best_theta = v0, theta
    return best, best_theta


def optimal_default_times(
    out: ValuationOutput, cf: CashFlowSpec, lattice: ScenarioLattice
) -> List[StoppingTime]:
    """Optimal default times per starting period.

    Entry ``t`` is the first time after ``t`` at which continuing would force
    a capital injection (``R_{s-1} - X_s - V_s < 0``), or ``T + 1`` for a
    complete run-off without default.
    """
    T = lattice.horizon
    times = []
    for t_start in range(T):
        stopped = [np.zeros(lattice.n_nodes(s), dtype=bool) for s in range(T + 1)]
        for s in range(t_start + 1, T + 1):
            hit = out.default_indicator[s]
            stopped[s] = stopped[s - 1][lattice.parents[s]] | hit
        times.append(StoppingTime(lattice, stopped))
    return times


@dataclass
class SupermartingaleReport:
    """Per-time margins of the cumulative-value process; diagnostic only.

    A violation means the chosen prior set does not make the cumulative value
    a supermartingale under the base measure; this is reported, not raised,
    because only existence of some suitable prior set is guaranteed.
    """

    step_margins: Dict[int, np.ndarray]  # V_t - E^P_t[X_{t+1} + V_{t+1}]
    risk_margins: Dict[int, np.ndarray]  # V_t - E^P_t[X_{t+1} + ... + X_T]
    violations: List[Tuple[int, int]]
    tol: float = 1e-10

    @property
    def ok(self) -> bool:
        return not self.violations


def supermartingale_diagnostic(
    out: ValuationOutput, cf: CashFlowSpec, lattice: ScenarioLattice
) -> SupermartingaleReport:
    T = lattice.horizon
    step_margins: Dict[int, np.ndarray] = {}
    risk_margins: Dict[int, np.ndarray] = {}
    violations: List[Tuple[int, int]] = []
    tol = 1e-10
    remaining = np.zeros(lattice.n_nodes(T))
    remaining_by_t = {T: remaining}
    for t in range(T - 1, -1, -1):
        p = lattice.probs[t + 1]
        remaining_by_t[t] = lattice.cond_sum(t, p * (cf.x(t + 1) + remaining_by_t[t + 1]))
    for t in range(T):
        p = lattice.probs[t + 1]
        cont = lattice.cond_sum(t, p * (cf.x(t + 1) + out.V[t + 1]))
        step_margins[t] = out.V[t] - cont
        risk_margins[t] = out.V[t] - remaining_by_t[t]
        for j in np.nonzero(step_margins[t] < -tol)[0]:
            violations.append((t, int(j)))
    return SupermartingaleReport(
        step_margins=step_margins, risk_margins=risk_margins, violations=violations, tol=tol
    )

