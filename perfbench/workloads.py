"""The three benchmark workloads: inputs made from a seed, operations, checks.

* ``gauss-table``   -- four ``ambival --command value`` calls at the paper
  setting, run in-process through ``ambival.cli.main``.
* ``lattice-scale`` -- ``value_multiprior`` on a deep binary tree and a wide
  32-ary tree, each under V@R and AV@R.
* ``oracle-check``  -- recursion versus brute-force enumeration on small
  random trees, the recipe of ``ambival --command oracle-check``.

Every operation returns the values it computed; ``check`` returns the error
that decides, against the operation's ``tol``, whether it passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ambival.cli
import ambival.oracle
import ambival.scenario
import ambival.valuation
from ambival.priors import ExponentialTiltFamily
from ambival.riskmeasures import AVAR, VAR, RiskMeasureSpec
from ambival.scenario import AdaptedProcess
from ambival.valuation import CashFlowSpec

SIZES = {
    "full": {
        "n": 10**5,
        "cloud_n_rep": 10**5,
        "deep": (16, 2, 21),  # horizon, branching, grid points
        "wide": (4, 32, 51),
        "oracle_instances": 1000,
    },
    "tiny": {
        "n": 2000,
        "cloud_n_rep": 2000,
        "deep": (6, 2, 5),
        "wide": (3, 8, 11),
        "oracle_instances": 20,
    },
}

# (case, p, q, risk measure): both cases, both risk measures, both ends of p.
GAUSS_CELLS = (
    (1, 0.1, 0.10, VAR),
    (2, 0.9, 0.005, VAR),
    (1, 0.9, 0.005, AVAR),
    (2, 0.1, 0.10, AVAR),
)

# Published Table 1 (a V@R table) for the (case, p, q) cells above.
PUBLISHED = {
    (1, 0.1, 0.10): (1.452, 1.491),
    (2, 0.9, 0.005): (1.845, 1.856),
    (1, 0.9, 0.005): (1.780, 1.787),
    (2, 0.1, 0.10): (1.470, 1.513),
}
TABLE_TOL = 0.03  # acceptance criterion 6
LATTICE_RTOL = 1e-12
ORACLE_TOL = 1e-12
LATTICE_Q = 0.05
ORACLE_Q = 0.1


class GaussCell:
    """One ``value`` command at the paper setting; MC seed = workload seed."""

    tol = TABLE_TOL

    def __init__(self, cell, seed: int, size: dict, out_dir: Path) -> None:
        case, p, q, kind = cell
        self.name = f"case{case}-p{p}-q{q}-{kind}"
        self.key = (case, p, q)
        self.kind = kind
        self.out_dir = out_dir / self.name
        self.argv = [
            "--command", "value", "--case", str(case), "--p", repr(p), "--q", repr(q),
            "--seed", str(seed), "--n", str(size["n"]), "--threads", "1",
            "--out", str(self.out_dir),
            "--set", f"kind={kind}", "--set", f"cloud_n_rep={size['cloud_n_rep']}",
        ]

    def run(self):
        if ambival.cli.main(self.argv) != 0:
            return None  # the command reported a validation or numerical error
        header, row = (self.out_dir / "value.csv").read_text().splitlines()[:2]
        rec = dict(zip(header.split(","), row.split(",")))
        return {"lower": float(rec["lower"]), "upper": float(rec["upper"])}

    def check(self, values, reference=None) -> float:
        """Largest distance to the published cell; ``inf`` if the bounds are unordered.

        The published table is V@R only.  The upper bound (a worst-case
        expected cash flow) does not depend on the risk measure, so it is
        compared for every cell; an AV@R lower bound dominates the V@R one
        and is only required to lie between the published V@R lower bound
        minus the tolerance and its own upper bound.
        """
        lo, hi = values["lower"], values["upper"]
        ref_lo, ref_hi = PUBLISHED[self.key]
        if not lo <= hi:
            return math.inf
        if self.kind == VAR:
            return max(abs(lo - ref_lo), abs(hi - ref_hi))
        return abs(hi - ref_hi) if lo >= ref_lo - TABLE_TOL else math.inf


@dataclass
class Tree:
    """A random tree with uniform branching and an exponential-tilt family."""

    lattice: object
    branching: int
    payload: dict
    scores: list
    family: ExponentialTiltFamily
    grid: list


def random_tree(rng, horizon: int, branching: int, n_grid: int) -> Tree:
    transitions = []
    n_prev = 1
    for _ in range(horizon):
        w = rng.uniform(0.1, 1.0, (n_prev, branching))
        transitions.append(list(w / w.sum(axis=1, keepdims=True)))
        n_prev *= branching
    lattice = ambival.scenario.build_lattice(transitions)
    payload = {t: rng.uniform(-1.0, 1.0, lattice.n_nodes(t)) for t in range(1, horizon + 1)}
    scores = [rng.normal(0.0, 1.0, lattice.n_nodes(t)) for t in range(horizon + 1)]
    family = ExponentialTiltFamily(lattice, scores)
    return Tree(lattice, branching, payload, scores, family, list(np.linspace(-1.0, 1.0, n_grid)))


class LatticeValuation:
    """One ``value_multiprior`` call on a large tree."""

    tol = LATTICE_RTOL

    def __init__(self, name: str, tree: Tree, kind: str) -> None:
        self.name = f"{name}-{kind}"
        self.tree = tree
        self.rm = RiskMeasureSpec(kind, LATTICE_Q)
        self.cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=tree.payload))

    def run(self):
        t = self.tree
        out = ambival.valuation.value_multiprior(self.cf, self.rm, t.family, t.grid, t.lattice)
        return {"v0": out.v0, "r0": out.r0, "c0": out.c0}

    def reference(self):
        return reference_recursion(self.tree, self.rm)

    def check(self, values, reference) -> float:
        """Largest relative deviation from the reference (absolute below 1)."""
        return max(abs(values[k] - reference[k]) / max(abs(reference[k]), 1.0) for k in values)


def reference_recursion(tree: Tree, rm: RiskMeasureSpec) -> dict:
    """Independent whole-level evaluation of the recursion on a uniform tree.

    With the same branching at every node, the children of each parent form
    one row of a ``(parents, branching)`` matrix, so the per-node risk
    measure and the reweighted expectations become row operations.  Sorting
    is stable and cumulative sums run along each row, as in the per-node
    engine, so V@R picks the same atom and sums agree to rounding.
    """
    lat, b, q = tree.lattice, tree.branching, rm.level
    T = lat.horizon
    v = np.zeros(lat.n_nodes(T))
    r = c = None
    for t in range(T - 1, -1, -1):
        p = lat.probs[t + 1].reshape(-1, b)
        x = tree.payload[t + 1]
        losses = (x + v).reshape(-1, b)
        rows = np.arange(losses.shape[0])[:, None]
        if rm.kind == VAR:
            order = np.argsort(losses, axis=1, kind="stable")
            cum = np.cumsum(p[rows, order], axis=1)
            idx = np.minimum((cum < (1.0 - q) - 1e-12).sum(axis=1), b - 1)
            r = losses[rows, order][rows[:, 0], idx]
        else:
            order = np.argsort(-losses, axis=1, kind="stable")
            w = p[rows, order]
            cum_before = np.concatenate([np.zeros((len(w), 1)), np.cumsum(w, axis=1)[:, :-1]], axis=1)
            r = (np.clip(q - cum_before, 0.0, w) * losses[rows, order]).sum(axis=1) / q
        parents = lat.parents[t + 1]
        pos = np.maximum(r[parents] - x - v, 0.0)
        c = np.full(len(r), np.inf)
        for theta in tree.grid:
            raw = np.exp(theta * tree.scores[t + 1])
            f = raw / (p * raw.reshape(-1, b)).sum(axis=1)[parents]
            c = np.minimum(c, (p * (f * pos).reshape(-1, b)).sum(axis=1))
        v = r - c
    return {"v0": float(v[0]), "r0": float(r[0]), "c0": float(c[0])}


class OracleInstance:
    """Recursion value against sup-inf / inf-sup enumeration on one small tree."""

    tol = ORACLE_TOL

    def __init__(self, i: int, lattice, payload, family, grid) -> None:
        self.name = f"oracle-{i}"
        self.lattice, self.payload, self.family, self.grid = lattice, payload, family, grid
        self.rm = RiskMeasureSpec(AVAR if i % 2 else VAR, ORACLE_Q)
        self.cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=payload))

    def run(self):
        out = ambival.valuation.value_multiprior(self.cf, self.rm, self.family, self.grid, self.lattice)
        res = ambival.oracle.snell_bruteforce(
            self.lattice, self.family, self.grid, out.R, self.payload, cap=2 * 10**6
        )
        return {
            "c0": out.c0,
            "sup_inf": res.sup_inf,
            "inf_sup": res.inf_sup,
            "envelope": res.envelope,
        }

    def check(self, values, reference=None) -> float:
        c0 = values["c0"]
        return max(abs(values[k] - c0) for k in ("sup_inf", "inf_sup", "envelope"))


def oracle_instances(seed: int, n_instances: int):
    """Random small trees, as ``ambival --command oracle-check`` draws them."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 3), (2, 2), (2, 3), (3, 2)]
    ops = []
    for i in range(n_instances):
        horizon, branching = shapes[i % len(shapes)]
        transitions = []
        n_nodes = 1
        for _ in range(horizon):
            rows = []
            for _ in range(n_nodes):
                w = rng.uniform(0.1, 1.0, branching)
                rows.append(w / w.sum())
            transitions.append(rows)
            n_nodes *= branching
        lattice = ambival.scenario.build_lattice(transitions)
        payload = {t: rng.uniform(-1.0, 1.0, lattice.n_nodes(t)) for t in range(1, horizon + 1)}
        scores = [rng.normal(0.0, 1.0, lattice.n_nodes(t)) for t in range(horizon + 1)]
        family = ExponentialTiltFamily(lattice, scores)
        grid = [-0.5, 0.7] if (horizon, branching) == (3, 2) else [-0.5, 0.0, 0.7]
        ops.append(OracleInstance(i, lattice, payload, family, grid))
    return ops


def make_ops(workload: str, seed: int, size: str, out_dir: Path) -> list:
    """The workload's fixed operation list, generated from ``seed``."""
    dims = SIZES[size]
    if workload == "gauss-table":
        return [GaussCell(cell, seed, dims, out_dir) for cell in GAUSS_CELLS]
    if workload == "lattice-scale":
        ops = []
        for k, name in enumerate(("deep", "wide")):
            tree = random_tree(np.random.default_rng([seed, k]), *dims[name])
            ops += [LatticeValuation(name, tree, kind) for kind in (VAR, AVAR)]
        return ops
    if workload == "oracle-check":
        return oracle_instances(seed, dims["oracle_instances"])
    raise ValueError(f"unknown workload {workload!r}")
