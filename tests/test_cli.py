"""Config parsing, command dispatch and exit codes."""

import numpy as np
import pytest

import ambival.gaussian
from ambival.cli import RunConfig, main, parse_config
from ambival.errors import ValidationError


class TestConfigFile:
    def test_defaults(self):
        cfg = parse_config(None, {})
        assert cfg.command == "validate"
        assert cfg.seed == 0 and cfg.n == 10**5
        assert cfg.kind == "VAR" and cfg.c1_rule == "INF"

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
        path.write_text("seed = 3\nq = 0.01\n")
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

    def test_level_validation(self):
        with pytest.raises(ValidationError, match=r"level must lie in \(0,1\)"):
            RunConfig(q=1.5)
        with pytest.raises(ValidationError, match="case"):
            RunConfig(case=3)
        with pytest.raises(ValidationError, match="unknown command"):
            RunConfig(command="tabel1")


class TestMain:
    def test_validate_succeeds(self, tmp_path):
        assert main(["--command", "validate", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.txt").exists()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        rc = main(["--command", "validate", "--q", "1.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_set_flag(self, tmp_path):
        assert main(["--set", "seed3", "--out", str(tmp_path)]) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMBIVAL_OUT", str(tmp_path / "envout"))
        assert main(["--command", "validate"]) == 0
        assert (tmp_path / "envout" / "manifest.txt").exists()

    def test_oracle_check_writes_report(self, tmp_path):
        assert main(
            ["--command", "oracle-check", "--seed", "1", "--out", str(tmp_path)]
        ) == 0
        report = (tmp_path / "oracle_check.txt").read_text()
        assert "max |engine - oracle|" in report

    def test_value_command_writes_csv(self, tmp_path):
        rc = main(
            [
                "--command", "value", "--case", "1", "--p", "0.1", "--q", "0.05",
                "--n", "2000", "--out", str(tmp_path),
                "--set", "cloud_n_rep=2000", "--set", "m=64",
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

    @pytest.mark.parametrize("bad", ["knots=15", "m=1"])
    def test_value_rejects_out_of_range_grid_keys(self, tmp_path, capsys, bad):
        # case 1 never builds the h table, yet the key is checked for every command
        rc = main(
            [
                "--command", "value", "--case", "1", "--n", "2000", "--out", str(tmp_path),
                "--set", "cloud_n_rep=2000", "--set", bad,
            ]
        )
        assert rc == 1
        assert "at least" in capsys.readouterr().err
        assert not (tmp_path / "manifest.txt").exists()

    def test_table1_passes_m_and_knots_to_the_h_table(self, tmp_path, monkeypatch):
        seen = []
        fit_h = ambival.gaussian.fit_h

        def recording_fit_h(*args, **kwargs):
            seen.append((kwargs["m_boundary"], kwargs["knots"]))
            return fit_h(*args, **kwargs)

        monkeypatch.setattr(ambival.gaussian, "fit_h", recording_fit_h)
        rc = main(
            [
                "--command", "table1", "--n", "1000", "--out", str(tmp_path),
                "--set", "cloud_n_rep=2000", "--set", "knots=16", "--set", "m=64",
            ]
        )
        assert rc == 0
        assert len(seen) == 12  # one h table per case-2 cell
        assert set(seen) == {(64, 16)}
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "m = 64\n" in manifest and "knots = 16\n" in manifest

    def test_figure1_outputs(self, tmp_path):
        rc = main(["--command", "figure1", "--out", str(tmp_path), "--seed", "2"])
        assert rc == 0
        for name in (
            "figure1_scatter_beta0_beta1.csv",
            "figure1_scatter_beta1_sigma1.csv",
            "figure1_ellipse_p0.1.csv",
            "figure1_ellipse_p0.9.csv",
            "manifest.txt",
        ):
            assert (tmp_path / name).exists()

    def test_figure1_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--command", "figure1", "--out", str(out1), "--seed", "5"]) == 0
        assert main(["--command", "figure1", "--out", str(out2), "--seed", "5"]) == 0
        for f in sorted(out1.glob("*.csv")):
            assert f.read_bytes() == (out2 / f.name).read_bytes()
