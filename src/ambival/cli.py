"""Command-line front end.

A run is described by a small key-value config file (``key = value`` per
line, ``#`` comments) plus flag overrides; flags win.  Commands:

* ``oracle-check`` -- recursion vs brute-force enumeration on random trees,
  plus the supermartingale step margins (the default command)
* ``table1``     -- the bound table: both cases over the (p, q) grid
* ``figure1``    -- estimator scatter and region-boundary CSVs
* ``value``      -- one (case, p, q) cell of that table

Each command reads only the keys that :data:`COMMAND_KEYS` gives it (plus
``command`` and ``out``).  A key set explicitly -- in the config file, by
``--set`` or by a flag -- that the command does not read is rejected, only
the keys it reads are range-checked, and ``manifest.txt`` records exactly the
keys the command read.  ``table1`` and ``value`` run through one bound loop
(:func:`_cmd_bounds`) and write one CSV row format.  This module writes every
artifact, and every float in one goes through :func:`_num`.

Exit codes: 0 success, 1 validation failure (usage errors included),
2 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, NoReturn, Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .gaussian import (
    CASE1,
    CASE2,
    TABLE1_P,
    TABLE1_Q,
    CaseConfig,
    GaussianModel,
    case1_bounds,
    case2_value,
    estimator_cloud,
    region_for,
)
from .priors import boundary_grid, project_region
from .riskmeasures import AVAR, VAR, RiskMeasureSpec

logger = logging.getLogger(__name__)

COMMANDS = ("oracle-check", "table1", "figure1", "value")

FIGURE1_P = (0.1, 0.9)  # confidence levels of the figure-1 ellipses
FIGURE1_N_REP = 1000  # estimator replications in each scatter
_FIGURE1_M = 360  # points on each closed ellipse polyline, the first repeated last
# the coordinate planes of figure 1: the axis names and their theta coordinates
_FIGURE1_PLANES = ((("beta0", "beta1"), [0, 2]), (("beta1", "sigma1"), [2, 3]))

_MODEL_KEYS = ("beta0", "sigma0", "beta1", "sigma1", "i0")

# The RunConfig keys each command reads besides ``command`` and ``out``.
COMMAND_KEYS: Dict[str, FrozenSet[str]] = {
    "oracle-check": frozenset({"seed"}),
    "figure1": frozenset({"seed", *_MODEL_KEYS}),
    "table1": frozenset({"seed", "n", "kind", "threads", "cloud_n_rep", *_MODEL_KEYS}),
    "value": frozenset(
        {"seed", "n", "p", "q", "case", "kind", "threads", "cloud_n_rep", *_MODEL_KEYS}
    ),
}

# Range checks of the keys; a run checks only the keys its command reads.
_CHECKS = {
    "seed": (lambda v: v >= 0, "must be non-negative"),
    "p": (lambda v: 0.0 < v < 1.0, "must lie in (0,1)"),
    "q": (lambda v: 0.0 < v < 1.0, "must lie in (0,1)"),
    "case": (lambda v: v in (1, 2), "must be 1 or 2"),
    "kind": (lambda v: v in (VAR, AVAR), f"must be {VAR} or {AVAR}"),
    # the library's own bounds (CaseConfig, estimator_cloud, the estimators), here named by key
    "n": (lambda v: v >= 10**3, "must be at least 1000"),
    "cloud_n_rep": (lambda v: v >= 100, "must be at least 100"),
    "i0": (lambda v: v <= -3, "must be at most -3 (3 accident years)"),
}


@dataclass
class RunConfig:
    command: str = "oracle-check"
    seed: int = 0
    n: int = 10**5
    p: float = 0.5
    q: float = 0.05
    case: int = 1
    kind: str = VAR
    out: str = "."
    threads: int = 1
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
        reads = self.reads()
        for key, (ok, need) in _CHECKS.items():
            if key in reads and not ok(getattr(self, key)):
                raise ValidationError(f"{key} {need}, got {getattr(self, key)!r}")

    def reads(self) -> FrozenSet[str]:
        """The keys this run's command reads."""
        return COMMAND_KEYS[self.command] | {"command", "out"}

    def model(self) -> GaussianModel:
        return GaussianModel(
            beta0=self.beta0, sigma0=self.sigma0, beta1=self.beta1,
            sigma1=self.sigma1, i0=self.i0,
        )

    def to_manifest(self) -> str:
        reads = self.reads()
        lines = [f"{f.name} = {getattr(self, f.name)!r}" for f in fields(self) if f.name in reads]
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
    """Read the key-value config file and apply flag overrides (flags win).

    Every key given here counts as set explicitly; one that the command does
    not read is rejected.
    """
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
    cfg = RunConfig(**values)
    unread = values.keys() - cfg.reads()
    if unread:
        names = ", ".join(repr(key) for key in _DEFAULTS if key in unread)
        raise ValidationError(f"command {cfg.command!r} does not read {names}")
    return cfg


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)
    logger.info("wrote %s", out_dir / name)


def _num(x: float) -> str:
    """An artifact's float: the shortest text that reads back to the same double."""
    return repr(float(x))


def _write_manifest(out_dir: Path, cfg: RunConfig, **matrices: np.ndarray) -> None:
    """``manifest.txt``: the config, then one line per row of each matrix."""
    rows = [
        f"{name}_{i} = {' '.join(_num(x) for x in np.atleast_1d(row))}\n"
        for name, mat in matrices.items()
        for i, row in enumerate(np.atleast_2d(mat))
    ]
    _write(out_dir, "manifest.txt", cfg.to_manifest() + "".join(rows))


def _cmd_bounds(cfg: RunConfig, out_dir: Path) -> None:
    """``table1`` and ``value``: bound cells ``(case, p, q)`` on one estimator cloud.

    ``table1`` runs both cases over ``TABLE1_P`` x ``TABLE1_Q`` and never
    reads ``q``; ``value`` runs the one cell its keys name.  Each cell runs the
    run's :class:`CaseConfig` (checked before any work) with the level of its
    risk measure replaced by the cell's ``q``, on the confidence ellipsoid at
    the cell's ``p`` around the cloud drawn with ``seed``.
    """
    case_cfg = CaseConfig(
        rm=RiskMeasureSpec(cfg.kind, cfg.q), n=cfg.n, seed=cfg.seed, threads=cfg.threads
    )
    if cfg.command == "table1":
        cells = [(case, p, q) for case in (CASE1, CASE2) for p in TABLE1_P for q in TABLE1_Q]
    else:
        cells = [(CASE1 if cfg.case == 1 else CASE2, cfg.p, cfg.q)]
    model = cfg.model()
    cloud = estimator_cloud(model, cfg.cloud_n_rep, cfg.seed)
    rows, lines = ["case,p,q,lower,upper,n,seed\n"], []
    for case, p, q in cells:
        bounds = case1_bounds if case == CASE1 else case2_value
        cell_cfg = replace(case_cfg, rm=RiskMeasureSpec(cfg.kind, q))
        lower, upper, _ = bounds(cell_cfg, model, region_for(cloud, p))
        rows.append(f"{case},{_num(p)},{_num(q)},{_num(lower)},{_num(upper)},{cfg.n},{cfg.seed}\n")
        lines.append(f"{case} p={p} q={q}: ({lower:.3f}, {upper:.3f})")
    _write(out_dir, f"{cfg.command}.csv", "".join(rows))
    _write_manifest(out_dir, cfg, mu=cloud.mu, sigma=cloud.sigma)
    print("\n".join(lines))


def _cmd_figure1(cfg: RunConfig, out_dir: Path) -> None:
    """``figure1``: estimator scatters and confidence-region boundaries.

    For each plane of ``_FIGURE1_PLANES``, one scatter of the
    ``FIGURE1_N_REP`` estimates drawn with ``seed``; for each level of
    ``FIGURE1_P``, one file of closed polylines on the boundary of the
    region's projection onto each plane.
    """
    cloud = estimator_cloud(cfg.model(), FIGURE1_N_REP, cfg.seed)
    files = {}
    for (x, y), coords in _FIGURE1_PLANES:
        rows = [f"{_num(a)},{_num(b)}\n" for a, b in cloud.cloud[:, coords]]
        files[f"figure1_scatter_{x}_{y}.csv"] = f"{x},{y}\n" + "".join(rows)
    for p in FIGURE1_P:
        region, rows = region_for(cloud, p), ["plane,x,y\n"]
        for (x, y), coords in _FIGURE1_PLANES:
            pts = boundary_grid(project_region(region, coords), _FIGURE1_M).points
            rows += [f"{x}_{y},{_num(a)},{_num(b)}\n" for a, b in np.vstack([pts, pts[:1]])]
        files[f"figure1_ellipse_p{p}.csv"] = "".join(rows)
    for name, text in files.items():
        _write(out_dir, name, text)
    _write_manifest(out_dir, cfg, mu=cloud.mu, sigma=cloud.sigma)
    print(f"figure1: {len(files)} files in {out_dir}")


def _cmd_oracle_check(cfg: RunConfig, out_dir: Path) -> None:
    from .oracle import random_suite, snell_bruteforce
    from .scenario import AdaptedProcess
    from .valuation import CashFlowSpec, supermartingale_diagnostic, value_multiprior

    n_instances = 200
    worst = 0.0
    violated = 0
    for i, (lattice, payload, family, grid) in enumerate(random_suite(cfg.seed, n_instances)):
        cf = CashFlowSpec(liability=AdaptedProcess(name="X", values=payload))
        rm = RiskMeasureSpec(AVAR if i % 2 else VAR, 0.1)
        out = value_multiprior(cf, rm, family, grid, lattice)
        # validates the density process of every grid point on the way
        res = snell_bruteforce(lattice, family, grid, out.R, payload)
        worst = max(
            worst,
            abs(res.sup_inf - out.c0),
            abs(res.inf_sup - out.c0),
            abs(res.envelope - out.c0),
        )
        # reported, not raised (see SupermartingaleReport)
        violated += len(supermartingale_diagnostic(out, cf, lattice).violations)
    if worst > 1e-12:
        raise NumericalError(f"recursion vs oracle mismatch: max deviation {worst:.3e}")
    report = (
        f"oracle-check: seed {cfg.seed}, {n_instances} lattices, "
        f"max |engine - oracle| = {worst:.3e}, {violated} violated step margins\n"
    )
    _write(out_dir, "oracle_check.txt", report)
    _write_manifest(out_dir, cfg)
    print(report, end="")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ValidationError` (exit 1), not by exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help="set a config key the command reads (repeatable)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
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
            "table1": _cmd_bounds,
            "figure1": _cmd_figure1,
            "value": _cmd_bounds,
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
