"""Smoke test of the benchmark at a tiny input size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each workload must emit every metric that BENCHMARK.json names, with its unit,
pass its correctness checks, and repeat its deterministic counters exactly
across two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / BENCH.name / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=root,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def units(out):
    return {name: m["unit"] for name, m in out["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(run(workload, 0))
    assert units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_counters_repeat(workload):
    first, second = (result(run(workload, 1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == expected and units(second) == expected
    counters = [name for name, unit in expected.items() if unit != "s"]
    assert {k: first["metrics"][k]["value"] for k in counters} == {
        k: second["metrics"][k]["value"] for k in counters
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
