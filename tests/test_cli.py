import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stable_info
from stable_info.capacity import ChannelSpec, capacity_stable
from stable_info.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VIOLATION,
    _law_label,
    main,
    parse_law,
)
from stable_info.density import Cauchy, Gaussian, Laplace, SaS, Uniform
from stable_info.specfun import kappa_alpha


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestParseLaw:
    def test_known_laws(self):
        assert parse_law("gaussian:2") == Gaussian(2.0)
        assert parse_law("uniform:3") == Uniform(3.0)
        assert parse_law("laplace:0.5") == Laplace(0.5)
        assert parse_law("cauchy:1.5") == Cauchy(1.5)
        assert parse_law("sas:1.5:2") == SaS(1.5, 2.0)

    def test_default_parameter(self):
        assert parse_law("gaussian") == Gaussian(1.0)

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            parse_law("beta:1:2")

    def test_sas_needs_two_args(self):
        with pytest.raises(ValueError):
            parse_law("sas:1.5")

    def test_extra_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_law("gaussian:1:2")

    @pytest.mark.parametrize("spec", ["gaussian:2", "uniform:0.5", "cauchy:1", "sas:1.5:2"])
    def test_label_round_trips(self, spec):
        assert _law_label(parse_law(spec)) == spec


CAPACITY = ["capacity", "--alpha", "1.8", "--gamma-n", "1", "--A", "3"]


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == EXIT_CONFIG
        assert "usage:" in out

    @pytest.mark.parametrize("before", [["--config"], ["--show-config"], ["--seed", "42"]])
    def test_removed_inputs_rejected(self, capsys, tmp_path, before):
        # the command line is the only input: no config file, no second seed
        if before == ["--config"]:
            (tmp_path / "run.cfg").write_text("seed = 7\n")
            before = ["--config", str(tmp_path / "run.cfg")]
        code, out, err = run_cli(capsys, *before, *CAPACITY)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err

    def test_environment_is_not_read(self, capsys, monkeypatch):
        code, want, _ = run_cli(capsys, *CAPACITY)
        monkeypatch.setenv("STABLE_INFO_CONFIG", "/nonexistent")
        code_env, got, err = run_cli(capsys, *CAPACITY)
        assert code == code_env == EXIT_OK
        assert got == want and err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["power-table", "--alphas", "1.5", "--laws", "gaussian:inf"],
            ["power-table", "--alphas", "1.5", "--laws", "sas:1.5:inf"],
            ["power-table", "--alphas", "nan", "--laws", "gaussian:1"],
            ["sum-bound", "--laws", "gaussian:1", "--gamma", "inf"],
            ["debruijn-check", "--law", "laplace:nan"],
            ["capacity", "--alpha", "1.8", "--gamma-n", "1", "--A", "inf"],
            ["crb-bench", "--trials", "10", "--gamma-n", "inf"],
        ],
    )
    def test_non_finite_number_exits_config(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("configuration error: ") and "finite" in err

    def test_bad_law_spec_exits_config(self, capsys):
        code, _, err = run_cli(
            capsys, "power-table", "--alphas", "1.5", "--laws", "beta:1"
        )
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "command",
        [
            "power-table",
            "jalpha-table",
            "giie-table",
            "giie-mix",
            "sum-bound",
            "debruijn-check",
            "capacity",
            "crb-bench",
            "suite",
        ],
    )
    def test_n_points_rejected_where_unread(self, capsys, command):
        # no command reads a grid size: density.plan_grid picks every one
        required = {"capacity": ["--alpha", "1.8", "--gamma-n", "1", "--A", "3"]}
        argv = [command, *required.get(command, []), "--n-points", "4096"]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: unrecognized arguments: --n-points 4096" in err


class TestPowerTable:
    def test_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "power-table",
            "--alphas",
            "1.5,2.0",
            "--laws",
            "sas:1.5:1,gaussian:1.7",
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[:3] == ["alpha", "law", "alpha_power"]
        table = {(r[0], r[1]): r for r in rows}
        closed = table[("1.5", "sas:1.5:1")]
        assert float(closed[2]) == pytest.approx(1.5 ** (1 / 1.5), rel=1e-9)
        assert closed[3] == "closed_form_stable"
        rms = table[("2.0", "gaussian:1.7")]
        assert float(rms[2]) == pytest.approx(1.7, rel=1e-9)
        heavy = table[("2.0", "sas:1.5:1")]
        assert heavy[2] == "infinite"

    def test_output_file_and_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys,
            "--format",
            "json",
            "--output",
            str(path),
            "power-table",
            "--alphas",
            "1.2",
            "--laws",
            "cauchy:1",
        )
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc[0]["law"] == "cauchy:1"
        assert float(doc[0]["alpha_power"]) > 0

    @pytest.mark.parametrize("command", ["power-table", "giie-table"])
    def test_refused_alpha_exits_config(self, capsys, command):
        # input the library refuses is a configuration error, not a
        # numeric failure, in every table
        alpha = "2.5" if command == "power-table" else "0.9"
        code, out, err = run_cli(capsys, command, "--alphas", alpha)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: alpha must be in" in err and alpha in err

    def test_refinement_cap_is_a_row_error(self, capsys):
        # S(0.2, .) of the reference law needs more than the 2^22-point
        # refinement cap: a numeric failure, and the table still prints
        with pytest.warns(UserWarning, match="alpha=0.2 < 0.3"):
            code, out, err = run_cli(
                capsys, "power-table", "--alphas", "0.2,2.0", "--laws", "gaussian:1"
            )
        assert code == EXIT_NUMERIC
        _, rows = read_csv(out)
        assert "refinement cap of 2^22 points" in rows[0][5]
        assert float(rows[1][2]) == pytest.approx(1.0, rel=1e-12)
        assert "configuration error" not in err

    @pytest.mark.parametrize("flag,value", [("--n-points", "4096"), ("--extent-factor", "50")])
    def test_grid_flags_rejected(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, f"{flag}={value}", "power-table", "--alphas", "1.2", "--laws", "laplace:1"
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: " in err and flag in err


class TestJalphaTable:
    def test_stable_diagonal_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "jalpha-table", "--alphas", "1.8", "--rs", "1.8"
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[2] == "J_alpha"
        rel = float(rows[0][4])
        assert abs(rel) < 0.01


class TestBoundCommands:
    def test_giie_table_holds(self, capsys):
        code, out, _ = run_cli(
            capsys, "giie-table", "--alphas", "1.8", "--rs", "1.0,1.8"
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        k18 = kappa_alpha(1.8)
        assert all(float(r[2]) >= k18 - 1e-3 for r in rows)

    def test_giie_table_heavy_law(self, capsys):
        # S(0.4, .) needs a grid of 2^21 points for its spectrum to die out
        code, out, _ = run_cli(capsys, "giie-table", "--alphas", "1.2", "--rs", "0.4")
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][2]) >= kappa_alpha(1.2)

    def test_giie_table_refinement_cap_exits_numeric(self, capsys):
        # S(0.3, .) is a law the API accepts, but its spectrum needs more
        # than the 2^22-point refinement cap: exit 3, not a config error
        code, out, err = run_cli(capsys, "giie-table", "--alphas", "1.5", "--rs", "0.3")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric failure: ") and "refinement cap of 2^22 points" in err

    def test_giie_mix_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "giie-mix", "--sigmas", "0,2.5")
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["0.0", "2.5"]

    def test_sum_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "sum-bound", "--laws", "laplace:1", "--alpha", "1.8", "--gamma", "0.8"
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][5]) >= -1e-3  # slack column

    def test_sum_bound_negative_gamma_exits_config(self, capsys):
        code, out, err = run_cli(capsys, "sum-bound", "--laws", "gaussian:1", "--gamma", "-1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "configuration error: gamma must be positive and finite\n"

    def test_sum_bound_heavy_smoothing(self, capsys):
        # the Laplace law needs the spectral rule's smoothing scale here
        code, out, _ = run_cli(capsys, "sum-bound", "--laws", "laplace:1", "--alpha", "1.2")
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][5]) >= -1e-3

    def test_debruijn_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--format",
            "json",
            "debruijn-check",
            "--law",
            "sas:1.5:1",
            "--alpha",
            "1.5",
            "--eta",
            "0.5",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["relative_error"] < 0.01

    def test_debruijn_check_tight_tol_flags_violation(self, capsys):
        code, _, _ = run_cli(
            capsys, "debruijn-check", "--law", "gaussian:1", "--tol", "1e-12"
        )
        assert code == EXIT_VIOLATION


class TestCapacity:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--alpha", "1.8", "--gamma-n", "1", "--A", "3"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["C_nats"] == pytest.approx(
            capacity_stable(ChannelSpec(1.8, 1.0, 3.0)), rel=1e-12
        )
        assert doc["checks"]["power_combination"] == pytest.approx(3.0, rel=1e-9)

    def test_awgn(self, capsys):
        sigma, P = 1.0, 3.0
        code, out, _ = run_cli(
            capsys,
            "capacity",
            "--alpha",
            "2.0",
            "--gamma-n",
            str(sigma / math.sqrt(2.0)),
            "--A",
            str(math.sqrt(P + sigma**2)),
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["C_nats"] == pytest.approx(0.5 * math.log(1 + P / sigma**2), rel=1e-9)

    def test_invalid_channel_exits_config(self, capsys):
        code, _, err = run_cli(
            capsys, "capacity", "--alpha", "1.8", "--gamma-n", "1", "--A", "0.5"
        )
        assert code == EXIT_CONFIG
        assert "configuration error" in err


class TestCrbBench:
    def test_deterministic_and_above_bound(self, capsys, tmp_path):
        argv = [
            "crb-bench",
            "--alpha",
            "1.8",
            "--trials",
            "2000",
            "--seed",
            "0",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["error_alpha_power"] >= doc["crb"] * 0.98

    def test_errors_csv_written(self, capsys, tmp_path):
        path = tmp_path / "errors.csv"
        code, _, _ = run_cli(
            capsys,
            "crb-bench",
            "--trials",
            "50",
            "--seed",
            "1",
            "--errors-csv",
            str(path),
        )
        assert code == EXIT_OK
        header, rows = read_csv(path.read_text())
        assert header == ["error"]
        assert len(rows) == 50

    def test_n_sample_run_has_no_bound(self, capsys):
        # the CRB is for one observation: with n > 1 it is not attached,
        # so no violation can be reported against it
        code, out, _ = run_cli(
            capsys, "crb-bench", "--estimator", "sample_median", "--n", "10", "--seed", "0"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["crb"] is None and doc["ratio"] is None
        assert doc["error_alpha_power"] > 0


class TestSuite:
    def test_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "suite")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["violations"] == []
        assert doc["results"]["kappa_2_unity"]["pass"]
        assert doc["results"]["giie_mix_bound"]["pass"]


SNAPSHOTS = Path(__file__).parent / "data" / "cli"
# snapshot file -> command line; each file is the command's stdout
SNAPSHOT_COMMANDS = {
    "power-table.csv": ["power-table"],
    "jalpha-table.csv": ["jalpha-table"],
    "giie-table.csv": ["giie-table"],
    "giie-mix.csv": ["giie-mix"],
    "sum-bound.csv": ["sum-bound"],
    "debruijn-check.json": ["debruijn-check"],
    "capacity.json": ["capacity", "--alpha", "1.8", "--gamma-n", "1", "--A", "3"],
    "crb-bench.json": ["crb-bench", "--trials", "2000"],
    "suite.json": ["suite"],
}


def _same_cell(got, want) -> bool:
    """Text exactly; numbers to relative 1e-8, since alpha-power roots
    are solved to 1e-9 in ln P."""
    if isinstance(want, str):
        try:
            want_num = float(want)
        except ValueError:
            return got == want
        return math.isclose(float(got), want_num, rel_tol=1e-8)
    return math.isclose(got, want, rel_tol=1e-8)


def _same_json(got, want) -> bool:
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_same_json(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same_json, got, want))
    return type(got) is type(want) and _same_cell(got, want)


class TestSnapshots:
    """The printed numbers are the contract: default stdout of each
    command against its recorded snapshot."""

    @pytest.mark.parametrize("name", list(SNAPSHOT_COMMANDS))
    def test_stdout_matches_snapshot(self, capsys, name):
        code, out, _ = run_cli(capsys, *SNAPSHOT_COMMANDS[name])
        assert code == EXIT_OK
        want = (SNAPSHOTS / name).read_text()
        if name.endswith(".json"):
            assert _same_json(json.loads(out), json.loads(want))
            return
        header, rows = read_csv(out)
        want_header, want_rows = read_csv(want)
        assert header == want_header
        assert len(rows) == len(want_rows)
        # the root residual is roundoff-level: its digits are not a result
        kept = [i for i, col in enumerate(header) if col != "residual"]
        for row, want_row in zip(rows, want_rows):
            assert len(row) == len(want_row)
            assert all(_same_cell(row[i], want_row[i]) for i in kept), (row, want_row)


class TestImportCost:
    def test_cli_import_skips_scipy_optimize_and_interpolate(self):
        # each is about 0.15 s of start-up; the package builds its spline
        # and solves its root without them
        src = str(Path(stable_info.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, stable_info.cli; print(' '.join(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        loaded = out.stdout.split()
        assert "stable_info.cli" in loaded
        heavy = [m for m in loaded if m.startswith(("scipy.optimize", "scipy.interpolate"))]
        assert heavy == []
