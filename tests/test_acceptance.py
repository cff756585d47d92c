"""Acceptance suite: one test per release criterion.

Each criterion appears as exactly one test, so the verbose pytest report
yields one pass/fail line per criterion; a short summary line is also printed
for each.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ambival.cli import main
from ambival.gaussian import (
    CASE1,
    CASE2,
    CaseConfig,
    GaussianStepFamily,
    case1_bounds,
    closed_form_g,
    figure1_data,
    paper_model,
    r1_closed_form,
    region_for,
    table1,
)
from ambival.oracle import random_suite, snell_bruteforce
from ambival.priors import StoppingTime, density_process, paste, point_region
from ambival.riskmeasures import AVAR, VAR, RiskMeasureSpec, apply_empirical, gaussian_c
from ambival.scenario import AdaptedProcess, substream
from ambival.valuation import CashFlowSpec, value_multiprior
from conftest import cell, make_instance

PAPER_TABLE1 = {
    (CASE1, 0.1, 0.10): (1.452, 1.491),
    (CASE1, 0.5, 0.10): (1.562, 1.624),
    (CASE1, 0.9, 0.10): (1.686, 1.787),
    (CASE1, 0.1, 0.05): (1.473, 1.491),
    (CASE1, 0.5, 0.05): (1.592, 1.624),
    (CASE1, 0.9, 0.05): (1.730, 1.787),
    (CASE1, 0.1, 0.01): (1.490, 1.491),
    (CASE1, 0.5, 0.01): (1.618, 1.624),
    (CASE1, 0.9, 0.01): (1.772, 1.787),
    (CASE1, 0.1, 0.005): (1.491, 1.491),
    (CASE1, 0.5, 0.005): (1.622, 1.624),
    (CASE1, 0.9, 0.005): (1.780, 1.787),
    (CASE2, 0.1, 0.10): (1.470, 1.513),
    (CASE2, 0.5, 0.10): (1.595, 1.666),
    (CASE2, 0.9, 0.10): (1.734, 1.856),
    (CASE2, 0.1, 0.05): (1.491, 1.513),
    (CASE2, 0.5, 0.05): (1.628, 1.666),
    (CASE2, 0.9, 0.05): (1.786, 1.856),
    (CASE2, 0.1, 0.01): (1.509, 1.513),
    (CASE2, 0.5, 0.01): (1.656, 1.666),
    (CASE2, 0.9, 0.01): (1.835, 1.856),
    (CASE2, 0.1, 0.005): (1.511, 1.513),
    (CASE2, 0.5, 0.005): (1.661, 1.666),
    (CASE2, 0.9, 0.005): (1.845, 1.856),
}


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_suite():
    """200 random lattices: recursion value vs brute-force enumeration."""
    start = time.time()
    records = []
    for i, (lattice, payload, family, grid) in enumerate(random_suite(0, 200)):
        cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=payload))
        rm = RiskMeasureSpec(AVAR if i % 2 else VAR, 0.1)
        out = value_multiprior(cf, rm, family, grid, lattice)
        res = snell_bruteforce(lattice, family, grid, out.R, payload, cap=2 * 10**6)
        records.append((res.sup_inf, res.inf_sup, res.envelope, out.c0))
    return records, time.time() - start


@pytest.fixture(scope="module")
def table_runs():
    start = time.time()
    results = {seed: table1(n=10**5, seed=seed) for seed in (0, 1, 2)}
    return results, time.time() - start


def test_criterion_1_oracle_equivalence(oracle_suite):
    records, elapsed = oracle_suite
    dev = max(
        max(abs(si - c0), abs(env - c0)) for si, _, env, c0 in records
    )
    report(
        1,
        dev < 1e-12 and elapsed < 60.0,
        f"sup-inf and envelope vs recursion over 200 lattices: max deviation "
        f"{dev:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_minimax_identity(oracle_suite):
    records, _ = oracle_suite
    dev = max(abs(isup - c0) for _, isup, _, c0 in records)
    gap = max(abs(isup - si) for si, isup, _, _ in records)
    report(
        2,
        dev < 1e-12 and gap < 1e-12,
        f"inf-sup equals sup-inf equals recursion: max deviation {dev:.3e}",
    )


def test_criterion_3_axioms():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        branching = 2 + trial % 3
        lattice, _, family, grid = make_instance(rng, 1, branching)
        rm = RiskMeasureSpec(AVAR if trial % 2 else VAR, 0.05 + 0.1 * (trial % 5))

        def value(x1):
            cf = CashFlowSpec(liability=AdaptedProcess(name="X", values={1: x1}))
            return value_multiprior(cf, rm, family, grid, lattice).v0

        x1 = rng.uniform(-1.0, 1.0, branching)
        lam = rng.uniform(-2.0, 2.0)
        v = value(x1)
        worst = max(worst, abs(value(x1 + lam) - (v + lam)))  # translation
        bump = rng.uniform(0.0, 1.0, branching)
        worst = max(worst, max(0.0, v - value(x1 + bump)))  # monotonicity
        worst = max(worst, abs(value(np.zeros(branching))))  # normalization
    prudence_ok = True
    for trial in range(100):
        shape = [(1, 3), (2, 2), (2, 3), (3, 2)][trial % 4]
        lattice, payload, family, grid = make_instance(rng, *shape)
        cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=payload))

        def v0(kind, q):
            return value_multiprior(cf, RiskMeasureSpec(kind, q), family, grid, lattice).v0

        prudence_ok &= v0(VAR, 0.05) >= v0(VAR, 0.2) - 1e-12
        prudence_ok &= v0(AVAR, 0.1) >= v0(VAR, 0.1) - 1e-12
    report(
        3,
        worst < 1e-10 and prudence_ok,
        f"translation/monotonicity/normalization over 1000 one-step instances "
        f"(max violation {worst:.3e}) and prudence over 100 lattices",
    )


def test_criterion_4_density_suite():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial, (lattice, _, family, grid) in enumerate(random_suite(3, 50)):
        d1 = density_process(family, grid[0], lattice)
        d2 = density_process(family, grid[-1], lattice)
        for d in (d1, d2):
            for t in range(lattice.horizon + 1):
                assert np.all(d.values[t] > 0.0)
                worst = max(worst, abs(d.expectation(t) - 1.0))
        # pasting closure: the spliced process is the adapted-selection process
        T = lattice.horizon
        stopped = [np.zeros(lattice.n_nodes(t), dtype=bool) for t in range(T + 1)]
        for t in range(1, T + 1):
            hit = rng.random(lattice.n_nodes(t)) < 0.4
            stopped[t] = stopped[t - 1][lattice.parents[t]] | hit
        stopped[T] = np.ones(lattice.n_nodes(T), dtype=bool)
        tau = StoppingTime(lattice, stopped)
        pasted = paste(d1, d2, tau)
        sel = {
            s: [
                grid[-1] if tau.stopped_by[s - 1][j] else grid[0]
                for j in range(lattice.n_nodes(s - 1))
            ]
            for s in range(1, T + 1)
        }
        spliced = density_process(family, sel, lattice)
        for t in range(T + 1):
            worst = max(worst, float(np.max(np.abs(pasted.values[t] - spliced.values[t]))))
    lattice_ok = worst < 1e-10

    fam = GaussianStepFamily(paper_model())
    quad_worst = 0.0
    for _ in range(20):
        th = np.array(
            [rng.uniform(0.3, 1.0), rng.uniform(0.05, 0.5),
             rng.uniform(1.0, 2.0), rng.uniform(0.05, 0.5)]
        )
        c01 = rng.normal(0.7, 0.3)
        val2, _ = quad(
            lambda e: fam.step(2, th, {"eps_02": np.array([e]), "c01": np.array([c01])})[0]
            * norm.pdf(e),
            -40.0, 40.0, limit=200,
        )
        # the period-1 factor splits into two independent one-dimensional
        # ratios; integrating one argument with the other fixed at 0 leaves
        # the fixed ratio behind, so the products below must recombine to 1
        def f_at(a, b):
            return fam.step(1, th, {"eps_m12": np.array([a]), "eps_01": np.array([b])})[0]

        ref = f_at(0.0, 0.0)
        val1a, _ = quad(lambda e: f_at(e, 0.0) * norm.pdf(e), -40.0, 40.0, limit=200)
        val1b, _ = quad(lambda e: f_at(0.0, e) * norm.pdf(e), -40.0, 40.0, limit=200)
        quad_worst = max(quad_worst, abs(val2 - 1.0), abs(val1a * val1b / ref - 1.0))
    report(
        4,
        lattice_ok and quad_worst < 1e-8,
        f"martingale/positivity/pasting on 50 lattices (max dev {worst:.3e}); "
        f"Gaussian factor normalization by quadrature (max dev {quad_worst:.3e})",
    )


def test_criterion_5_closed_form_cross_checks():
    start = time.time()
    model = paper_model()
    rng = np.random.default_rng(9)
    n = 10**6
    n_batch, batch = 100, 10**4
    fails = 0
    for probe in range(50):
        eps = substream(100 + probe, 0).standard_normal(n)
        if probe % 2 == 0:
            # capital requirement: risk measure of the second development flow
            kind = VAR if probe % 4 == 0 else AVAR
            q = float(rng.uniform(0.01, 0.2))
            rm = RiskMeasureSpec(kind, q)
            c01 = float(rng.uniform(0.2, 1.2))
            x2 = model.v0 * (model.beta1 - 1.0) * c01 + np.sqrt(model.v0) * model.sigma1 * eps
            estimates = apply_empirical(rm, -x2.reshape(n_batch, batch))
            closed = r1_closed_form(c01, model, gaussian_c(rm))
            se = estimates.std(ddof=1) / np.sqrt(n_batch)
            if abs(estimates.mean() - closed) > 4.0 * se:
                fails += 1
        else:
            # deficit option value under a shifted prior
            b1 = float(rng.uniform(1.1, 1.9))
            s1 = float(rng.uniform(0.05, 0.4))
            c01 = float(rng.uniform(0.2, 1.2))
            c = float(rng.uniform(0.5, 2.6))
            a = model.v0 * (model.beta1 - b1) * c01 + np.sqrt(model.v0) * model.sigma1 * c
            sample = np.maximum(a + np.sqrt(model.v0) * s1 * eps, 0.0)
            closed = closed_form_g(np.array([b1, s1]), c01, model, c)
            se = sample.std(ddof=1) / np.sqrt(n)
            if abs(sample.mean() - closed) > 4.0 * se:
                fails += 1
    elapsed = time.time() - start
    report(
        5,
        fails == 0 and elapsed < 120.0,
        f"50 Monte Carlo probes at n=10^6 within 4 standard errors "
        f"({fails} failures, {elapsed:.1f}s)",
    )


@pytest.mark.slow
def test_criterion_6_table1_reproduction(table_runs):
    results, elapsed = table_runs
    max_err = 0.0
    structural_ok = True
    ps, qs = (0.1, 0.5, 0.9), (0.10, 0.05, 0.01, 0.005)
    for seed, res in results.items():
        for (case, p, q), (ref_lo, ref_hi) in PAPER_TABLE1.items():
            lo, hi = cell(res, case, p, q)
            max_err = max(max_err, abs(lo - ref_lo), abs(hi - ref_hi))
            structural_ok &= lo <= hi + 1e-12
        for case in (CASE1, CASE2):
            for q in qs:
                cells = [cell(res, case, p, q) for p in ps]
                structural_ok &= all(
                    a[0] <= b[0] + 1e-12 and a[1] <= b[1] + 1e-12
                    for a, b in zip(cells, cells[1:])
                )
            for p in ps:
                lowers = [cell(res, case, p, q)[0] for q in qs]  # q decreasing
                structural_ok &= all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
        for p in ps:
            for q in qs:
                structural_ok &= (
                    cell(res, CASE2, p, q)[0] >= cell(res, CASE1, p, q)[0] - 0.005
                )
                structural_ok &= (
                    cell(res, CASE2, p, q)[1] >= cell(res, CASE1, p, q)[1] - 0.005
                )
    report(
        6,
        max_err < 0.03 and structural_ok and elapsed < 600.0,
        f"24 cells x 3 seeds within +/-0.03 of the published table "
        f"(max |error| {max_err:.4f}), structure and ordering intact, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_degenerate_collapse():
    model = paper_model()
    region = point_region(model.theta)
    cfg = CaseConfig(rm=RiskMeasureSpec(VAR, 0.005), n=10**5, seed=0)
    lower, upper, _ = case1_bounds(cfg, model, region)
    report(
        7,
        abs(lower - upper) < 0.01 and abs(upper - 4.0 / 3.0) < 1e-12,
        f"singleton region collapses the bounds: gap {abs(lower - upper):.4f}, "
        f"upper {upper!r} vs 4/3",
    )


def test_criterion_8_figure1_coverage():
    data = figure1_data(n_rep=1000, seed=0)
    rows_ok = all(pts.shape == (1000, 2) for pts in data.scatter.values())
    coverage_ok = True
    details = []
    for p in (0.1, 0.9):
        region = region_for(data.cloud, p)
        inside = np.mean(region.mahalanobis2(data.cloud.cloud) <= region.radius2)
        band = 4.0 * np.sqrt(p * (1.0 - p) / 1000.0)
        coverage_ok &= abs(inside - p) <= band
        details.append(f"p={p}: {inside:.3f} (band +/-{band:.3f})")
    report(
        8,
        rows_ok and coverage_ok,
        "scatter files carry 1000 rows; empirical coverage " + ", ".join(details),
    )


def test_criterion_9_determinism(tmp_path):
    args = [
        "--command", "value", "--case", "2", "--p", "0.5", "--q", "0.05",
        "--n", "2000", "--set", "cloud_n_rep=2000", "--set", "m=64",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(["--command", "figure1", "--out", str(out1)]) == 0
    assert main(["--command", "figure1", "--out", str(out2)]) == 0
    names = sorted(f.name for f in out1.glob("*.csv"))
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names
    )
    report(
        9,
        len(names) >= 5 and identical,
        f"{len(names)} CSV artifacts byte-identical across repeated runs",
    )
