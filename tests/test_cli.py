"""Config parsing, command dispatch and exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ambival.cli
import ambival.gaussian
import ambival.valuation
from ambival.cli import COMMAND_KEYS, COMMANDS, RunConfig, main, parse_config
from ambival.errors import ValidationError
from ambival.gaussian import CaseConfig
from ambival.priors import ellipsoid_region, project_region
from ambival.riskmeasures import AVAR, RiskMeasureSpec
from conftest import manifest_region

FIELDS = [f.name for f in fields(RunConfig)]
README = Path(__file__).parents[1] / "README.md"

# a cheap run of each command, and the config it runs with
SMALL = ["--n", "2000", "--set", "cloud_n_rep=2000"]
MANIFEST_RUNS = {
    "oracle-check": (["--command", "oracle-check"], RunConfig(command="oracle-check")),
    "figure1": (["--command", "figure1"], RunConfig(command="figure1")),
    "table1": (["--command", "table1"] + SMALL, RunConfig(command="table1")),
    "value-case1": (["--command", "value"] + SMALL, RunConfig(command="value")),
    "value-case2": (
        ["--command", "value", "--case", "2"] + SMALL, RunConfig(command="value", case=2)
    ),
}


def manifest_keys(path):
    """The config keys of a ``manifest.txt``, in order (matrix rows excluded)."""
    keys = [line.split(" = ", 1)[0] for line in path.read_text().splitlines()]
    return [key for key in keys if key in FIELDS]


class TestConfigFile:
    def test_defaults(self):
        cfg = parse_config(None, {})
        assert cfg.command == "oracle-check"
        assert cfg.seed == 0 and cfg.n == 10**5
        assert cfg.kind == "VAR" and cfg.threads == 1

    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a table run\n"
            "command = value\n"
            "seed = 3   # fixed seed\n"
            "q = 0.01\n"
            "\n"
            "case = 2\n"
        )
        cfg = parse_config(str(path), {})
        assert (cfg.command, cfg.seed, cfg.q, cfg.case) == ("value", 3, 0.01, 2)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = value\nseed = 3\nq = 0.01\n")
        cfg = parse_config(str(path), {"seed": 9})
        assert cfg.seed == 9 and cfg.q == 0.01

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sed = 3\n")
        with pytest.raises(ValidationError, match="valid keys.*seed"):
            parse_config(str(path), {})

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 3\n")
        with pytest.raises(ValidationError, match=":1:"):
            parse_config(str(path), {})

    def test_type_coercion_failures(self):
        with pytest.raises(ValidationError, match="integer"):
            parse_config(None, {"seed": "three"})
        with pytest.raises(ValidationError, match="number"):
            parse_config(None, {"q": "low"})

    def test_config_file_key_the_command_does_not_read_is_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command = oracle-check\nn = 2000\n")
        with pytest.raises(ValidationError, match="'oracle-check' does not read 'n'"):
            parse_config(str(path), {})

    def test_level_validation(self):
        with pytest.raises(ValidationError, match=r"^q must lie in \(0,1\), got 1.5$"):
            RunConfig(command="value", q=1.5)
        with pytest.raises(ValidationError, match="^case must be 1 or 2, got 3$"):
            RunConfig(command="value", case=3)
        with pytest.raises(ValidationError, match="unknown command"):
            RunConfig(command="tabel1")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--command", "value", "--p", "1.5"], "p must lie in (0,1), got 1.5"),
            (
                ["--command", "table1", "--set", "kind=CVAR"],
                "kind must be VAR or AVAR, got 'CVAR'",
            ),
            (
                ["--command", "oracle-check", "--q", "1.5"],
                "command 'oracle-check' does not read 'q'",
            ),
            (
                ["--command", "oracle-check", "--set", "kind=CVAR"],
                "command 'oracle-check' does not read 'kind'",
            ),
            (
                ["--command", "oracle-check", "--set", "case=3"],
                "command 'oracle-check' does not read 'case'",
            ),
            (
                ["--command", "value", "--n", "2000", "--set", "cloud_n_rep=50"],
                "cloud_n_rep must be at least 100, got 50",
            ),
            (
                ["--command", "table1", "--set", "cloud_n_rep=99"],
                "cloud_n_rep must be at least 100, got 99",
            ),
            (
                ["--command", "figure1", "--set", "i0=-2"],
                "i0 must be at most -3 (3 accident years), got -2",
            ),
            (["--command", "value", "--n", "10"], "n must be at least 1000, got 10"),
        ],
        ids=[
            "value-p", "table1-kind", "oracle-check-q", "oracle-check-kind", "oracle-check-case",
            "value-cloud_n_rep", "table1-cloud_n_rep", "figure1-i0", "value-n",
        ],
    )
    def test_range_checks_only_the_keys_read_and_name_the_key(
        self, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_is_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(["--command", command, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()


class TestMain:
    def test_oracle_check_is_the_default_command(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.txt").exists()
        out = capsys.readouterr().out
        assert out == (tmp_path / "oracle_check.txt").read_text()
        assert re.fullmatch(
            r"oracle-check: seed 0, 200 lattices, max \|engine - oracle\| = \S+, "
            r"\d+ violated step margins\n",
            out,
        )

    def test_oracle_check_reports_violated_step_margins(self, tmp_path, capsys, monkeypatch):
        diagnostic = ambival.valuation.supermartingale_diagnostic

        def one_violation(*args):
            report = diagnostic(*args)
            report.violations = [(0, 0)]
            return report

        monkeypatch.setattr(ambival.valuation, "supermartingale_diagnostic", one_violation)
        assert main(["--command", "oracle-check", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith(", 200 violated step margins\n")

    def test_removed_time1_rule_key_is_unknown(self, tmp_path, capsys):
        rc = main(["--command", "oracle-check", "--set", "c1_rule=SUP", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown key 'c1_rule'" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        rc = main(["--command", "oracle-check", "--q", "1.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_set_flag(self, tmp_path):
        assert main(["--set", "seed3", "--out", str(tmp_path)]) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMBIVAL_OUT", str(tmp_path / "envout"))
        assert main(["--command", "oracle-check"]) == 0
        assert (tmp_path / "envout" / "manifest.txt").exists()

    def test_oracle_check_writes_report(self, tmp_path):
        assert main(
            ["--command", "oracle-check", "--seed", "1", "--out", str(tmp_path)]
        ) == 0
        report = (tmp_path / "oracle_check.txt").read_text()
        assert report.startswith("oracle-check: seed 1, 200 lattices, max |engine - oracle| = ")
        assert "seed = 1\n" in (tmp_path / "manifest.txt").read_text()

    def test_value_command_writes_csv(self, tmp_path):
        rc = main(
            [
                "--command", "value", "--case", "1", "--p", "0.1", "--q", "0.05",
                "--n", "2000", "--out", str(tmp_path), "--set", "cloud_n_rep=2000",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "value.csv").read_text().strip().split("\n")
        assert lines[0] == "case,p,q,lower,upper,n,seed"
        cells = lines[1].split(",")
        assert cells[0] == "CASE1"
        lower, upper = float(cells[3]), float(cells[4])
        assert lower <= upper
        assert (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("bad", ["threads=0", "n=10"])
    def test_value_rejects_out_of_range_grid_keys(self, tmp_path, capsys, monkeypatch, bad):
        # checked before the estimator cloud: n by RunConfig, threads by CaseConfig
        monkeypatch.setattr(ambival.cli, "estimator_cloud", None)
        rc = main(
            [
                "--command", "value", "--case", "2", "--out", str(tmp_path),
                "--set", "cloud_n_rep=2000", "--set", bad,
            ]
        )
        assert rc == 1
        assert "at least" in capsys.readouterr().err
        assert not (tmp_path / "manifest.txt").exists()

    def test_value_rejects_fewer_than_three_accident_years(self, tmp_path, capsys):
        rc = main(["--command", "value", "--out", str(tmp_path), "--set", "i0=-2"] + SMALL)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: i0 must be at most -3 (3 accident years), got -2\n"
        )
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "argv", [["--command", "value", "--case", "2"] + SMALL, ["--command", "table1"]]
    )
    def test_a_bound_names_the_cli_key(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path), "--threads", "0"]) == 1
        assert capsys.readouterr().err == "error: threads must be at least 1\n"

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["--command", "figure1"], "sigma0=nan"),
            (["--command", "value"] + SMALL, "beta1=nan"),
            (["--command", "table1"] + SMALL, "beta0=inf"),
        ],
        ids=["figure1-sigma0=nan", "value-beta1=nan", "table1-beta0=inf"],
    )
    def test_non_finite_model_key_exits_1(self, tmp_path, capsys, argv, bad):
        assert main(argv + ["--out", str(tmp_path), "--set", bad]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("bad", ["threads=0", "n=10"])
    def test_table1_rejects_out_of_range_keys_before_any_work(
        self, tmp_path, capsys, monkeypatch, bad
    ):
        monkeypatch.setattr(ambival.cli, "estimator_cloud", None)
        rc = main(["--command", "table1", "--out", str(tmp_path), "--set", bad])
        assert rc == 1
        assert "at least" in capsys.readouterr().err
        assert not tmp_path.joinpath("manifest.txt").exists()

    def test_table_csv_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ambival.cli, "case1_bounds", lambda *args: (1.25, 1.5, None))
        argv = ["--command", "value", "--p", "0.1", "--q", "0.05", "--n", "1000"]
        assert main(argv + ["--out", str(tmp_path), "--set", "cloud_n_rep=2000"]) == 0
        lines = (tmp_path / "value.csv").read_text().split("\n")
        assert lines == ["case,p,q,lower,upper,n,seed", "CASE1,0.1,0.05,1.25,1.5,1000,0", ""]
        assert capsys.readouterr().out == "CASE1 p=0.1 q=0.05: (1.250, 1.500)\n"

    def test_table1_runs_the_config_at_each_level(self, tmp_path, monkeypatch):
        seen = []

        def record(cfg, model, region):
            seen.append(cfg)
            return 1.0, 2.0, None

        monkeypatch.setattr(ambival.cli, "case1_bounds", record)
        monkeypatch.setattr(ambival.cli, "case2_value", record)
        argv = ["--command", "table1", "--seed", "3", "--set", "kind=AVAR"] + SMALL
        assert main(argv + ["--out", str(tmp_path)]) == 0
        levels = [0.10, 0.05, 0.01, 0.005]
        cfgs = [CaseConfig(rm=RiskMeasureSpec(AVAR, q), n=2000, seed=3) for q in levels]
        assert seen == cfgs * 6
        header, *rows = (tmp_path / "table1.csv").read_text().splitlines()
        assert header == "case,p,q,lower,upper,n,seed"
        cells = [row.split(",") for row in rows]
        assert [(c[0], float(c[1])) for c in cells[::4]] == [
            (case, p) for case in ("CASE1", "CASE2") for p in (0.1, 0.5, 0.9)
        ]
        assert [float(c[2]) for c in cells] == levels * 6
        assert {(c[5], c[6]) for c in cells} == {("2000", "3")}
        mu = ambival.gaussian.estimator_cloud(ambival.gaussian.paper_model(), 2000, seed=3).mu
        assert f"mu_0 = {' '.join(repr(float(x)) for x in mu)}\n" in (
            (tmp_path / "manifest.txt").read_text()
        )

    @pytest.mark.parametrize("kind", ["VAR", "AVAR"])
    def test_a_value_row_is_its_table1_row(self, tmp_path, capsys, kind):
        small = SMALL + ["--seed", "4", "--set", f"kind={kind}"]
        assert main(["--command", "table1", "--out", str(tmp_path / "t")] + small) == 0
        table_csv = (tmp_path / "t" / "table1.csv").read_bytes().splitlines(keepends=True)
        table_out = capsys.readouterr().out.splitlines(keepends=True)
        for case, p, q, row in (("1", "0.9", "0.005", 12), ("2", "0.1", "0.05", 14)):
            argv = ["--command", "value", "--case", case, "--p", p, "--q", q] + small
            assert main(argv + ["--out", str(tmp_path / case)]) == 0
            header, value_row = (tmp_path / case / "value.csv").read_bytes().splitlines(True)
            assert header == table_csv[0] and value_row == table_csv[row]
            assert [capsys.readouterr().out] == table_out[row - 1 : row]

    @pytest.mark.parametrize(
        "argv",
        [["--case", "3"], ["--seed", "abc"], ["--command", "bogus"], ["--bogus"]],
        ids=["case", "seed", "command", "unknown-flag"],
    )
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ambival")

    def test_figure1_outputs(self, tmp_path, monkeypatch):
        rc = main(["--command", "figure1", "--out", str(tmp_path / "f"), "--seed", "2"])
        assert rc == 0
        assert sorted(f.name for f in (tmp_path / "f").iterdir()) == [
            "figure1_ellipse_p0.1.csv",
            "figure1_ellipse_p0.9.csv",
            "figure1_scatter_beta0_beta1.csv",
            "figure1_scatter_beta1_sigma1.csv",
            "manifest.txt",
        ]

        def bounds(*args):  # numpy scalars, as the library may return them
            return np.float64(1.25), np.float64(1.5), None

        monkeypatch.setattr(ambival.cli, "case1_bounds", bounds)
        monkeypatch.setattr(ambival.cli, "case2_value", bounds)
        for command in ("table1", "value"):
            assert main(["--command", command, "--out", str(tmp_path / "t")] + SMALL) == 0
        # every cell but a label parses as a number
        paths = sorted(tmp_path.glob("*/*.csv"))
        assert len(paths) == 6
        for path in paths:
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            for row in rows:
                assert len(row) == len(header)
                for name, text in zip(header, row):
                    if name not in ("case", "plane"):
                        float(text)

    def test_figure1_ellipses_close_and_sit_on_the_boundary(self, tmp_path):
        assert main(["--command", "figure1", "--out", str(tmp_path), "--seed", "0"]) == 0
        mu, sigma = manifest_region(tmp_path / "manifest.txt")
        region = ellipsoid_region(mu, sigma, 0.9)
        header, *rows = (tmp_path / "figure1_ellipse_p0.9.csv").read_text().splitlines()
        assert header == "plane,x,y"
        rows = [row.split(",") for row in rows]
        for plane, coords in (("beta0_beta1", [0, 2]), ("beta1_sigma1", [2, 3])):
            pts = np.array([[float(x), float(y)] for name, x, y in rows if name == plane])
            assert len(pts) == 361
            np.testing.assert_array_equal(pts[0], pts[-1])
            proj = project_region(region, coords)
            np.testing.assert_allclose(proj.mahalanobis2(pts), proj.radius2, atol=1e-8)

    def test_figure1_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--command", "figure1", "--out", str(out1), "--seed", "5"]) == 0
        assert main(["--command", "figure1", "--out", str(out2), "--seed", "5"]) == 0
        for f in sorted(out1.glob("*.csv")):
            assert f.read_bytes() == (out2 / f.name).read_bytes()


class TestKeyTable:
    def test_table_names_every_field_and_nothing_else(self):
        assert set(COMMAND_KEYS) == set(COMMANDS)
        named = set().union(*COMMAND_KEYS.values()) | {"command", "out"}
        assert named == set(FIELDS)

    def test_readme_key_table_matches(self):
        # README's "keys it reads" table, with "model keys" spelled out as README defines them
        text = README.read_text()
        model = re.findall(r"`(\w+)`", re.search(r"model\s+keys\s+are (.*?):", text, re.S)[1])
        rows = re.findall(r"^\| `([\w-]+)` +\|(.*)\|$", text.split("keys it reads", 1)[1], re.M)
        table = {
            command: frozenset(re.findall(r"`(\w+)`", keys) + model * ("model keys" in keys))
            for command, keys in rows
        }
        assert sorted(command for command, _ in rows) == sorted(COMMANDS)
        assert table == COMMAND_KEYS

    @pytest.mark.parametrize("key", FIELDS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_key_is_read_or_rejected(self, tmp_path, capsys, command, key):
        out = tmp_path / "out"
        value = {"command": command, "out": str(out)}.get(key, getattr(RunConfig(), key))
        if key in RunConfig(command=command).reads():
            cfg = parse_config(None, {"command": command, key: str(value)})
            assert cfg.command == command and str(getattr(cfg, key)) == str(value)
            return
        rc = main(["--command", command, "--out", str(out), "--set", f"{key}={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"command {command!r}" in err and f"does not read {key!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", [["--n", "2000"], ["--threads", "1"], ["--p", "0.5"], ["--case", "1"]]
    )
    def test_unread_flag_is_rejected(self, tmp_path, capsys, flag):
        rc = main(["--command", "figure1", "--out", str(tmp_path / "out")] + flag)
        assert rc == 1
        assert f"does not read {flag[0][2:]!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("run", sorted(MANIFEST_RUNS))
    def test_manifest_lists_exactly_the_keys_read(self, tmp_path, run):
        argv, cfg = MANIFEST_RUNS[run]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert manifest_keys(tmp_path / "manifest.txt") == [f for f in FIELDS if f in cfg.reads()]


    @pytest.mark.parametrize("case", ["1", "2"])
    def test_value_manifest_records_the_region_inputs(self, tmp_path, case):
        argv = ["--command", "value", "--case", case, "--seed", "3"] + SMALL
        assert main(argv + ["--out", str(tmp_path)]) == 0
        rows = dict(
            line.split(" = ", 1) for line in (tmp_path / "manifest.txt").read_text().splitlines()
        )
        cloud = ambival.gaussian.estimator_cloud(ambival.gaussian.paper_model(), 2000, 3)
        for name, mat in (("mu", cloud.mu[None, :]), ("sigma", cloud.sigma)):
            for i, row in enumerate(mat):
                assert [float(x) for x in rows.pop(f"{name}_{i}").split()] == list(row)
        assert not any(key.startswith(("mu_", "sigma_")) for key in rows)


# Imports every numpy-only module, runs oracle-check, named and as the default
# command, into argv[1] and prints, last, the scipy modules the process has loaded.
COLD_START = """
import json, sys
import ambival.scenario, ambival.riskmeasures, ambival.priors, ambival.valuation
import ambival.oracle, ambival.gaussian, ambival.cli
for argv in (["--command", "oracle-check", "--seed", "1"], []):
    assert ambival.cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

# Runs both value cases and figure1 into argv[1] and prints, last, the
# scipy.stats modules the process has loaded.
GAUSSIAN_COLD_START = """
import json, sys
import ambival.cli
small = ["--n", "2000", "--set", "cloud_n_rep=2000"]
for argv in (["--command", "value", "--case", "1"] + small,
             ["--command", "value", "--case", "2"] + small, ["--command", "figure1"]):
    assert ambival.cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
stats = [m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")]
print(json.dumps(sorted(stats)))
"""


def loaded_modules(script, tmp_path):
    """Run ``script`` in a fresh interpreter, so that no other test's import can
    hide a module, and return the JSON list it prints last."""
    src = str(Path(ambival.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    def test_lattice_commands_run_without_scipy(self, tmp_path):
        assert loaded_modules(COLD_START, tmp_path) == []

    def test_gaussian_commands_run_without_scipy_stats(self, tmp_path):
        assert loaded_modules(GAUSSIAN_COLD_START, tmp_path) == []
