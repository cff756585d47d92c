"""Benchmark of the ambival engines: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gauss-table --seed 0 --seconds 35 --trace 0

The run builds the workload's inputs from ``--seed``, then repeats the
workload's fixed operation list while another pass fits into ``--seconds``
(at least one pass, two when tracing, so that counters can be compared).
Every operation is checked for correctness.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details (environment, computed values, self times per
operation, spans) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("gauss-table", "lattice-scale", "oracle-check")
BLAS_THREADS = "1"  # the workloads are single-threaded; so is every BLAS call
SETUP_SAMPLES = 2  # fresh processes timed for setup_s, besides this one

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_s_p50": "s",
    "op_s_p99": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test inputs")
    ap.add_argument("--setup-only", action="store_true",
                    help="time import and input generation in this process, print seconds")
    return ap.parse_args(argv)


def setup(args):
    """Import the package, install tracing if asked, build the inputs.

    Returns the operation list, the seconds this took and the tracer.
    """
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and every ambival module

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.make_ops(args.workload, args.seed, args.size, OUT / args.workload)
    if tracer is not None:
        tracer.setup_layers = tracer.layer_metrics()
    return ops, time.perf_counter() - t0, tracer


def quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    the order statistics.  Unlike a single order statistic it stays steady
    when the operation times fall into separate groups, as the four tree
    shapes of oracle-check do, with the median in the gap between two."""
    import numpy as np
    from scipy.stats import beta

    x = np.sort(values)
    n = len(x)
    w = np.diff(beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1 - q) * (n + 1)))
    return float(w @ x)


def setup_in_fresh_processes(args, n):
    """setup_s samples from fresh interpreters, so each pays the import again."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_passes(ops, seconds, min_passes, tracer):
    """Repeat the operation list while the next pass is expected to fit."""
    import numpy as np
    from ambival.errors import NumericalError, ValidationError

    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.record_spans = not passes  # spans of the first pass only
        values, op_times = [], []
        t_pass = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            t0 = time.perf_counter()
            try:
                vals = op.run()
            except (ValidationError, NumericalError) as exc:
                vals = None
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            op_times.append(time.perf_counter() - t0)
            values.append(vals)
        record = {"s": time.perf_counter() - t_pass, "op_s": op_times, "values": values}
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            record["self_s_by_op"] = tracer.self_time_by_op()
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = float(np.median([p["s"] for p in passes]))
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def check_ops(ops, passes):
    """Per pass and op: the error against the reference and whether it passed.

    An operation fails if it raised, if its error exceeds the tolerance, or
    if a later pass did not reproduce the first pass's values exactly.
    """
    results = []
    for i, op in enumerate(ops):
        first = passes[0]["values"][i]
        ref = op.reference() if first is not None and hasattr(op, "reference") else None
        errs, oks = [], []
        for p in passes:
            vals = p["values"][i]
            if vals is None:
                errs.append(None)
                oks.append(False)
                continue
            err = op.check(vals, ref)
            errs.append(err)
            oks.append(err <= op.tol and vals == first)
        results.append({"op": op.name, "values": first, "reference": ref, "err": errs, "ok": oks})
    return results


def counters_repeat(passes):
    """Names of the deterministic per-layer metrics that differ between passes."""
    import tracing

    first = passes[0]["layers"]
    keys = [k for k, unit in tracing.LAYER_METRICS.items() if unit != "s" and k in first]
    return sorted({k for p in passes[1:] for k in keys if p["layers"][k] != first[k]})


def environment(args):
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "commit": commit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ambival" / "__init__.py").is_file():
        print(f"error: no ambival sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        _, seconds, _ = setup(args)
        print(repr(seconds))
        return 0

    ops, setup_main, tracer = setup(args)
    import ambival
    import numpy as np

    if not Path(ambival.__file__).resolve().is_relative_to(SRC):
        print(f"error: ambival imported from {ambival.__file__}, not {SRC}", file=sys.stderr)
        return 2
    passes = run_passes(ops, args.seconds, 2 if args.trace else 1, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    checks = check_ops(ops, passes)
    attempted = sum(len(c["ok"]) for c in checks)
    failed = sum(not ok for c in checks for ok in c["ok"])
    # Each operation's time is its median over the passes; the percentiles
    # run over the workload's operation list.
    op_times = [float(np.median(ts)) for ts in zip(*(p["op_s"] for p in passes))]
    run_times = [p["s"] for p in passes]
    mismatched = []

    if args.trace:
        import tracing

        layers = {}
        for name, value in passes[0]["layers"].items():
            if tracing.LAYER_METRICS[name] == "s":
                layers[name] = float(np.median([p["layers"][name] for p in passes]))
            else:
                layers[name] = value
        layers["scenario.lattice_build.s"] = tracer.setup_layers["scenario.lattice_build.s"]
        layers["trace.run_s"] = float(np.median(run_times))
        layers["gaussian.table_max_err"] = (
            max(c["err"][0] for c in checks) if args.workload == "gauss-table" else 0.0
        )
        mismatched = counters_repeat(passes)
        for name in mismatched:
            print(f"counter {name} differs between passes: "
                  f"{[p['layers'][name] for p in passes]}", file=sys.stderr)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}
    else:
        setup_samples = [setup_main] + setup_in_fresh_processes(args, SETUP_SAMPLES)
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": statistics.median(run_times),
            "op_s_p50": quantile(op_times, 0.5),
            "op_s_p99": quantile(op_times, 0.99),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    correct = failed == 0 and not mismatched
    detail = {
        "environment": environment(args),
        "seconds": args.seconds,
        "passes": len(passes),
        "pass_s": run_times,
        "op_count": len(op_times),
        "op_s": op_times,
        "checks": checks,
        "metrics": metrics,
    }
    if args.trace:
        detail["self_s_by_op"] = passes[0]["self_s_by_op"]
        detail["counters_mismatched"] = mismatched
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))

    print(f"environment: {json.dumps(detail['environment'])}")
    print(f"{args.workload}: {len(passes)} pass(es) of {len(op_times)} operations, "
          f"{failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.workload == "gauss-table":
        for c in checks:
            print(f"  {c['op']}: {c['values']} max|err| = {c['err'][0]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
