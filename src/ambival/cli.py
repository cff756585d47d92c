"""Command-line front end.

A run is described by a small key-value config file (``key = value`` per
line, ``#`` comments) plus flag overrides; flags win.  Commands:

* ``validate``   -- config and engine self-checks on small random lattices
* ``table1``     -- full bound table over the (case, p, q) grid, CSV output
* ``figure1``    -- estimator scatter and region-boundary CSVs
* ``value``      -- one (case, p, q) bound computation
* ``oracle-check`` -- recursion vs brute-force enumeration on random trees

Exit codes: 0 success, 1 validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .gaussian import (
    CASE1,
    CASE2,
    CaseConfig,
    GaussianModel,
    case1_bounds,
    case2_value,
    estimator_cloud,
    figure1_csv,
    figure1_data,
    region_for,
    table1,
    table1_csv,
)
from .riskmeasures import AVAR, VAR, RiskMeasureSpec

logger = logging.getLogger(__name__)

COMMANDS = ("validate", "table1", "figure1", "value", "oracle-check")


@dataclass
class RunConfig:
    command: str = "validate"
    seed: int = 0
    n: int = 10**5
    p: float = 0.5
    q: float = 0.05
    case: int = 1
    kind: str = VAR
    out: str = "."
    threads: int = 1
    m: int = 360
    knots: int = 64
    cloud_n_rep: int = 10**5
    beta0: float = 2.0 / 3.0
    sigma0: float = 0.2
    beta1: float = 1.5
    sigma1: float = 0.2
    i0: int = -10

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValidationError(
                f"unknown command {self.command!r}; valid: {', '.join(COMMANDS)}"
            )
        for name in ("p", "q"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValidationError("level must lie in (0,1)")
        if self.case not in (1, 2):
            raise ValidationError("case must be 1 or 2")
        if self.kind not in (VAR, AVAR):
            raise ValidationError(f"risk measure kind must be {VAR} or {AVAR}")
        # knots and m get the bounds fit_h and boundary_grid enforce, for every command
        for name, low in (("threads", 1), ("knots", 16), ("m", 2)):
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be at least {low}")

    def model(self) -> GaussianModel:
        return GaussianModel(
            beta0=self.beta0, sigma0=self.sigma0, beta1=self.beta1,
            sigma1=self.sigma1, i0=self.i0,
        )

    def to_manifest(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)!r}" for f in fields(self)]
        return "\n".join(lines) + "\n"


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _coerce(key: str, raw: object, where: str = ""):
    """Check ``key`` and convert a string ``raw`` to the type of its default value."""
    if key not in _DEFAULTS:
        raise ValidationError(
            f"{where}unknown key {key!r}; valid keys: {', '.join(sorted(_DEFAULTS))}"
        )
    if not isinstance(raw, str):
        return raw  # typed already by argparse or the caller
    kind = type(_DEFAULTS[key])
    try:
        return kind(raw)
    except ValueError as exc:
        need = "an integer" if kind is int else "a number"
        raise ValidationError(f"key {key!r} needs {need}, got {raw!r}") from exc


def parse_config(
    path: Optional[str] = None, overrides: Optional[Dict[str, str]] = None
) -> RunConfig:
    """Read the key-value config file and apply flag overrides (flags win)."""
    values: Dict[str, object] = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _coerce(key, raw, f"{path}:{lineno}: ")
    for key, raw in (overrides or {}).items():
        values[key] = _coerce(key, raw)
    return RunConfig(**values)


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)
    logger.info("wrote %s", out_dir / name)


def _write_manifest(out_dir: Path, cfg: RunConfig, **matrices: np.ndarray) -> None:
    """``manifest.txt``: the config, then one line per row of each matrix."""
    rows = [
        f"{name}_{i} = {' '.join(repr(float(x)) for x in np.atleast_1d(row))}\n"
        for name, mat in matrices.items()
        for i, row in enumerate(np.atleast_2d(mat))
    ]
    _write(out_dir, "manifest.txt", cfg.to_manifest() + "".join(rows))


def _cmd_table1(cfg: RunConfig, out_dir: Path) -> None:
    result = table1(
        model=cfg.model(), n=cfg.n, seed=cfg.seed, cloud_n_rep=cfg.cloud_n_rep,
        kind=cfg.kind, m_boundary=cfg.m, knots=cfg.knots, threads=cfg.threads,
    )
    _write(out_dir, "table1.csv", table1_csv(result))
    _write_manifest(out_dir, cfg, mu=result.mu, sigma=result.sigma)
    for row in result.rows:
        print(
            f"{row['case']} p={row['p']} q={row['q']}: "
            f"({row['lower']:.3f}, {row['upper']:.3f})"
        )


def _cmd_figure1(cfg: RunConfig, out_dir: Path) -> None:
    data = figure1_data(model=cfg.model(), n_rep=1000, seed=cfg.seed, m_boundary=cfg.m)
    files = figure1_csv(data)
    for name, text in files.items():
        _write(out_dir, name, text)
    _write_manifest(out_dir, cfg, mu=data.cloud.mu, sigma=data.cloud.sigma)
    print(f"figure1: {len(files)} files in {out_dir}")


def _cmd_value(cfg: RunConfig, out_dir: Path) -> None:
    model = cfg.model()
    cloud = estimator_cloud(model, cfg.cloud_n_rep, cfg.seed)
    region = region_for(cloud, cfg.p)
    case = CASE1 if cfg.case == 1 else CASE2
    case_cfg = CaseConfig(
        rm=RiskMeasureSpec(cfg.kind, cfg.q), n=cfg.n, seed=cfg.seed, m_boundary=cfg.m,
        knots=cfg.knots, threads=cfg.threads,
    )
    if cfg.case == 1:
        lower, upper, _ = case1_bounds(case_cfg, model, region)
    else:
        lower, upper, _ = case2_value(case_cfg, model, region)
    _write(
        out_dir, "value.csv",
        "case,p,q,lower,upper,n,seed\n"
        f"{case},{cfg.p!r},{cfg.q!r},{lower!r},{upper!r},{cfg.n},{cfg.seed}\n",
    )
    _write_manifest(out_dir, cfg)
    print(f"{case} p={cfg.p} q={cfg.q}: ({lower:.3f}, {upper:.3f})")


def _cmd_oracle_check(cfg: RunConfig, out_dir: Path, n_instances: int = 200) -> None:
    from .oracle import random_suite, snell_bruteforce
    from .scenario import AdaptedProcess
    from .valuation import CashFlowSpec, value_multiprior

    worst = 0.0
    for i, (lattice, payload, family, grid) in enumerate(random_suite(cfg.seed, n_instances)):
        cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=payload))
        rm = RiskMeasureSpec(AVAR if i % 2 else VAR, 0.1)
        out = value_multiprior(cf, rm, family, grid, lattice)
        res = snell_bruteforce(lattice, family, grid, out.R, payload, cap=2 * 10**6)
        worst = max(
            worst,
            abs(res.sup_inf - out.c0),
            abs(res.inf_sup - out.c0),
            abs(res.envelope - out.c0),
        )
    if worst > 1e-12:
        raise NumericalError(f"recursion vs oracle mismatch: max deviation {worst:.3e}")
    report = f"oracle-check: {n_instances} lattices, max |engine - oracle| = {worst:.3e}\n"
    _write(out_dir, "oracle_check.txt", report)
    print(report, end="")


def _cmd_validate(cfg: RunConfig, out_dir: Path) -> None:
    from .oracle import random_suite
    from .priors import density_process
    from .scenario import AdaptedProcess
    from .valuation import CashFlowSpec, supermartingale_diagnostic, value_multiprior

    cfg.model()  # validates model parameters
    checks = violated = 0
    for lattice, payload, family, grid in random_suite(cfg.seed, 8):
        cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=payload))
        out = value_multiprior(cf, RiskMeasureSpec(cfg.kind, cfg.q), family, grid, lattice)
        for theta in grid:
            density_process(family, theta, lattice)  # validated on construction
        # reported, not raised (see SupermartingaleReport)
        violated += len(supermartingale_diagnostic(out, cf, lattice).violations)
        checks += 1
    _write_manifest(out_dir, cfg)
    report = f"{checks} lattice self-checks passed, {violated} violated step margins"
    print(f"validate: config ok, {report}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambival",
        description="Valuation bounds for insurance run-offs under parameter ambiguity.",
    )
    parser.add_argument("--config", help="key-value config file")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--case", type=int, choices=(1, 2))
    parser.add_argument("--out", help="output directory (default: $AMBIVAL_OUT or '.')")
    parser.add_argument("--threads", type=int)
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        overrides: Dict[str, object] = {}
        for item in args.set:
            if "=" not in item:
                raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
            key, raw = item.split("=", 1)
            overrides[key.strip()] = raw.strip()
        for key in ("command", "seed", "n", "p", "q", "case", "out", "threads"):
            val = getattr(args, key)
            if val is not None:
                overrides[key] = val
        if "out" not in overrides and os.environ.get("AMBIVAL_OUT"):
            overrides["out"] = os.environ["AMBIVAL_OUT"]
        cfg = parse_config(args.config, overrides)
        out_dir = Path(cfg.out)
        dispatch = {
            "validate": _cmd_validate,
            "table1": _cmd_table1,
            "figure1": _cmd_figure1,
            "value": _cmd_value,
            "oracle-check": _cmd_oracle_check,
        }
        dispatch[cfg.command](cfg, out_dir)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
