"""Per-layer tracing of the ambival modules, installed from outside the package.

Every traced function is replaced, under the name its caller looks it up by,
with a wrapper that records a span (name, start, end, parent span, operation
id) and bumps the counters of its layer.  Functions called once per lattice
node (``ScenarioLattice.children``, ``apply_discrete``,
``ExponentialTiltFamily.factors``) are only tallied: call count and busy time,
no span, so that the trace stays small and cheap.  Spans stay in memory; the
caller writes them out once the run is over.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
import scipy.optimize

import ambival.cli
import ambival.gaussian
import ambival.oracle
import ambival.scenario
import ambival.valuation
from ambival.gaussian import HFit
from ambival.priors import ExponentialTiltFamily
from ambival.scenario import ScenarioLattice

# Every per-layer metric the traced run reports, with its unit.  Counts and
# ratios are deterministic for a given seed and size; times are not.
LAYER_METRICS = {
    "scenario.simulate_paths.s": "s",
    "scenario.simulate_paths.paths": "count",
    "scenario.lattice_build.s": "s",
    "scenario.children.calls": "count",
    "riskmeasures.apply_discrete.s": "s",
    "riskmeasures.apply_discrete.calls": "count",
    "priors.boundary_grid.s": "s",
    "priors.boundary_grid.points": "count",
    "priors.boundary_grid.drop_ratio": "ratio",
    "priors.interior_grid.s": "s",
    "priors.density_process.s": "s",
    "priors.density_process.calls": "count",
    "priors.factors.s": "s",
    "priors.factors.calls": "count",
    "valuation.value_multiprior.s": "s",
    "valuation.value_multiprior.calls": "count",
    "valuation.value_multiprior.nodes": "count",
    "valuation.cond_risk.self_s": "s",
    "valuation.cond_risk.parents": "count",
    "valuation.worst_case_cond_exp.self_s": "s",
    "valuation.worst_case_cond_exp.grid_nodes": "count",
    "oracle.enumerate_stopping_times.s": "s",
    "oracle.enumerate_stopping_times.count": "count",
    "oracle.enumerate_selections.s": "s",
    "oracle.enumerate_selections.count": "count",
    "oracle.snell_bruteforce.self_s": "s",
    "oracle.snell_recursion.s": "s",
    "gaussian.estimator_cloud.s": "s",
    "gaussian.fit_h.s": "s",
    "gaussian.closed_form_g.s": "s",
    "gaussian.closed_form_g.calls": "count",
    "gaussian.closed_form_g.elems": "count",
    "gaussian.h_eval.s": "s",
    "gaussian.h_eval.elems": "count",
    "gaussian.h_clamped_ratio": "ratio",
    "gaussian.polish.s": "s",
    "gaussian.polish.nfev": "count",
    "gaussian.polish.success_ratio": "ratio",
    "gaussian.case1_bounds.self_s": "s",
    "gaussian.case2_value.self_s": "s",
    "gaussian.upper.s": "s",
    "gaussian.table_max_err": "abs",
    "cli.main.self_s": "s",
    "trace.run_s": "s",
}


class Tracer:
    """Span and counter store for one benchmark process."""

    def __init__(self) -> None:
        self.op = None  # id of the operation being measured
        self.record_spans = True
        self.spans = []  # [name, start, end, parent index, op]
        self._stack = []  # (span index, time covered by children) of open spans
        self._depth = defaultdict(int)
        self._patches = []
        self.reset()

    def reset(self) -> None:
        """Zero the per-layer totals (spans already recorded are kept)."""
        self.total = defaultdict(float)  # busy time: outermost spans only
        self.self_time = defaultdict(float)
        self.op_self = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(int)
        self.hfits = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = -1
            if tracer.record_spans:
                idx = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op])
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                d = t1 - t0
                tracer.self_time[name] += d - frame[1]
                tracer.op_self[tracer.op][name] += d - frame[1]
                if tracer._depth[name] == 0:
                    tracer.total[name] += d
                if tracer._stack:
                    tracer._stack[-1][1] += d
                if idx >= 0:
                    tracer.spans[idx][1:3] = t0, t1
            tracer.counts[name + ".calls"] += 1
            if on_return is not None:
                on_return(tracer.counts, out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def tally(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            d = time.perf_counter() - t0
            tracer.total[name] += d
            tracer.self_time[name] += d
            tracer.op_self[tracer.op][name] += d
            tracer.counts[name + ".calls"] += 1
            if tracer._stack:
                tracer._stack[-1][1] += d
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every ambival module."""
        g, v, o, s, c = (
            ambival.gaussian, ambival.valuation, ambival.oracle, ambival.scenario, ambival.cli,
        )

        def paths(counts, out, spec, n, *a, **k):
            counts["scenario.simulate_paths.paths"] += int(n)

        def grid_points(counts, out, region, m, *a, **k):
            counts["priors.boundary_grid.points"] += int(m)
            counts["priors.boundary_grid.dropped"] += int(out.n_dropped)

        def nodes(counts, out, cf, rm, family, grid, backend):
            counts["valuation.value_multiprior.nodes"] += int(backend.n_total)

        def parents(counts, out, lattice, rm, position_next, t):
            counts["valuation.cond_risk.parents"] += lattice.n_nodes(t)

        def grid_nodes(counts, out, lattice, family, grid, values_next, t, *a, **k):
            counts["valuation.worst_case_cond_exp.grid_nodes"] += len(grid) * lattice.n_nodes(t + 1)

        def enumerated(name):
            def count(counts, out, *a, **k):
                counts[name + ".count"] += len(out)

            return count

        def g_elems(counts, out, *a, **k):
            counts["gaussian.closed_form_g.elems"] += int(np.size(out))

        def h_elems(counts, out, hfit, c01):
            counts["gaussian.h_eval.elems"] += int(np.size(c01))

        def keep_hfit(counts, out, *a, **k):
            self.hfits.append(out)

        def polish(counts, out, *a, **k):
            counts["gaussian.polish.nfev"] += int(out.nfev)
            counts["gaussian.polish.success"] += int(bool(out.success))

        self._patch(s, "simulate_paths", self.span("scenario.simulate_paths", s.simulate_paths, paths))
        self._patch(s, "build_lattice", self.span("scenario.lattice_build", s.build_lattice))
        self._patch(ScenarioLattice, "children", self.tally("scenario.children", ScenarioLattice.children))
        self._patch(v, "apply_discrete", self.tally("riskmeasures.apply_discrete", v.apply_discrete))
        self._patch(g, "boundary_grid", self.span("priors.boundary_grid", g.boundary_grid, grid_points))
        self._patch(g, "interior_grid", self.span("priors.interior_grid", g.interior_grid))
        self._patch(o, "density_process", self.span("priors.density_process", o.density_process))
        self._patch(
            ExponentialTiltFamily, "factors",
            self.tally("priors.factors", ExponentialTiltFamily.factors),
        )
        self._patch(v, "value_multiprior", self.span("valuation.value_multiprior", v.value_multiprior, nodes))
        self._patch(v, "cond_risk", self.span("valuation.cond_risk", v.cond_risk, parents))
        self._patch(
            v, "worst_case_cond_exp",
            self.span("valuation.worst_case_cond_exp", v.worst_case_cond_exp, grid_nodes),
        )
        for name in ("enumerate_stopping_times", "enumerate_selections"):
            full = "oracle." + name
            self._patch(o, name, self.span(full, getattr(o, name), enumerated(full)))
        self._patch(o, "snell_bruteforce", self.span("oracle.snell_bruteforce", o.snell_bruteforce))
        self._patch(o, "snell_recursion", self.span("oracle.snell_recursion", o.snell_recursion))
        self._patch(c, "estimator_cloud", self.span("gaussian.estimator_cloud", c.estimator_cloud))
        self._patch(g, "fit_h", self.span("gaussian.fit_h", g.fit_h, keep_hfit))
        self._patch(g, "closed_form_g", self.span("gaussian.closed_form_g", g.closed_form_g, g_elems))
        self._patch(HFit, "__call__", self.span("gaussian.h_eval", HFit.__call__, h_elems))
        # Nelder-Mead polish: gaussian looks it up as scipy.optimize.minimize.
        self._patch(scipy.optimize, "minimize", self.span("gaussian.polish", scipy.optimize.minimize, polish))
        self._patch(c, "case1_bounds", self.span("gaussian.case1_bounds", c.case1_bounds))
        self._patch(c, "case2_value", self.span("gaussian.case2_value", c.case2_value))
        for name in ("case1_upper", "case2_upper"):
            self._patch(g, name, self.span("gaussian.upper", getattr(g, name)))
        self._patch(c, "main", self.span("cli.main", c.main))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values accumulated since the last :meth:`reset`.

        ``trace.run_s`` and ``gaussian.table_max_err`` are not known to the
        tracer; the caller adds them.
        """
        t, st, n = self.total, self.self_time, self.counts
        out = {}
        for name, unit in LAYER_METRICS.items():
            layer, _, kind = name.rpartition(".")
            if kind == "s":
                out[name] = t[layer]
            elif kind == "self_s":
                out[name] = st[layer]
            elif unit == "count":
                out[name] = n[name]
        out["priors.boundary_grid.drop_ratio"] = _ratio(
            n["priors.boundary_grid.dropped"], n["priors.boundary_grid.points"]
        )
        out["gaussian.h_clamped_ratio"] = _ratio(
            sum(h.n_clamped for h in self.hfits), n["gaussian.h_eval.elems"]
        )
        out["gaussian.polish.success_ratio"] = _ratio(
            n["gaussian.polish.success"], n["gaussian.polish.calls"]
        )
        return out

    def self_time_by_op(self) -> dict:
        """Per operation id, self seconds of each layer, largest first."""
        return {
            op: dict(sorted(layers.items(), key=lambda kv: -kv[1]))
            for op, layers in self.op_self.items()
        }


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
