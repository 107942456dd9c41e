"""End-to-end tests of the command-line interface."""

import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hawkent.cli
import hawkent.model
from hawkent.cli import figure_command, limits_command, main
from hawkent.model import LimitValues, ModePair, _closed_table, hawking_temperature
from hawkent.sweep import CSV_COLUMNS, evaluate_point, format_number
from test_sweep import _skew

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SRC = str(Path(__file__).resolve().parents[1] / "src")

SWEEP_ARGS = [
    "sweep",
    "--vary", "temperature",
    "--min", "0.01",
    "--max", "10",
    "--steps", "20",
    "--alpha", "0.5",
    "--omega", "1",
]


def _measure_text(alpha, omega, temperature):
    row = evaluate_point(alpha, omega, temperature)
    return "\n".join(
        f"{name} = {format_number(value)}"
        for name, value in zip(CSV_COLUMNS, row.as_tuple())
    ) + "\n"


class TestMeasureCommand:
    def test_spot_point(self, capsys):
        code = main([
            "measure", "--alpha", "0.7071067811865476", "--omega", "1", "--temperature", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out == _measure_text(0.7071067811865476, 1.0, 1.0)
        lines = out.splitlines()
        assert len(lines) == 15
        assert "C_A_I = 0.855019636400" in lines
        assert "C_A_II = 0.518595624133" in lines
        assert "C_I_II = 0.443409441985" in lines
        assert "MI_A_I = 1.37760453660" in lines
        assert "minPT_A_II = -0.134470710685" in lines

    def test_mass_sets_hawking_temperature(self, capsys):
        code = main(["measure", "--alpha", "0.5", "--omega", "1", "--mass", "1"])
        assert code == 0
        expected = _measure_text(0.5, 1.0, hawking_temperature(1.0))
        assert capsys.readouterr().out == expected

    def test_verify_off(self, capsys):
        code = main([
            "measure", "--alpha", "0.5", "--omega", "1", "--temperature", "2", "--verify", "off",
        ])
        assert code == 0
        assert capsys.readouterr().out == _measure_text(0.5, 1.0, 2.0)

    def test_temperature_and_mass_conflict(self):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "1", "--mass", "1"])
        assert exc.value.code == 2

    def test_temperature_or_mass_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--alpha", "0.5", "--omega", "1"])
        assert exc.value.code == 2

    def test_overflowing_mass_exits_2_naming_the_mass(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--alpha", "0.5", "--omega", "1", "--mass", "1e-320"])
        assert exc.value.code == 2
        assert "error: mass 1e-320 is too small" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--omega", "inf", "--temperature", "1"], "omega must be positive and finite, got inf"),
            (["--omega", "1", "--temperature", "inf"], "temperature must be non-negative and finite, got inf"),
            (["--omega", "1", "--mass", "inf"], "must be positive and finite, got inf"),
        ],
    )
    def test_infinite_parameter_exits_2(self, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--alpha", "0.5", *args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestParserValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--alpha", "1.5", "--omega", "1", "--temperature", "1"],
            ["measure", "--alpha", "0.5", "--omega", "-1", "--temperature", "1"],
            ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "-1"],
            ["measure", "--alpha", "abc", "--omega", "1", "--temperature", "1"],
            ["measure", "--omega", "1", "--temperature", "1"],
            ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "1", "--bogus"],
            ["sweep", "--vary", "mass", "--min", "1", "--max", "2", "--steps", "3"],
            SWEEP_ARGS + ["--steps", "1"],
            SWEEP_ARGS + ["--scale", "cubic"],
            ["figure", "4"],
            ["figure", "1", "--steps", "0"],
            ["limits", "--alpha", "1.0"],
            ["bogus-command"],
            [],
            # values that argparse used to reject and the library now does
            ["measure", "--alpha", "0.5", "--omega", "1", "--mass", "0"],
            ["measure", "--alpha", "0.5", "--omega", "1", "--mass", "nan"],
            ["measure", "--alpha", "0.5", "--omega", "1", "--mass", "inf"],
            ["measure", "--alpha", "0.5", "--omega", "1e999", "--temperature", "1"],
            ["sweep", "--vary", "temperature", "--min", "nan", "--max", "10", "--steps", "5",
             "--alpha", "0.5", "--omega", "1"],
            ["sweep", "--vary", "temperature", "--min", "0.01", "--max", "inf", "--steps", "5",
             "--alpha", "0.5", "--omega", "1"],
            ["figure", "1", "--max", "-1"],
            ["figure", "1", "--max", "inf"],
            ["figure", "1", "--max", "nan"],
            ["figure", "1", "--steps", "1"],
            ["limits", "--alpha", "nan"],
            ["sweep", "--vary", "temperature", "--min", "0.01", "--max", "nan", "--steps", "5",
             "--alpha", "0.5", "--omega", "1"],
            ["limits", "--alpha", "1.5"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--vary", "temperature", "--min", "nan", "--max", "10", "--steps", "5",
             "--alpha", "0.5", "--omega", "1"],
            ["sweep", "--vary", "temperature", "--min", "0.01", "--max", "nan", "--steps", "5",
             "--alpha", "0.5", "--omega", "1"],
            ["figure", "1", "--max", "nan"],
        ],
    )
    def test_nan_grid_end_is_named(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "temperature must be non-negative and finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            SWEEP_ARGS + ["--steps", "1"],
            SWEEP_ARGS + ["--max", "inf"],
            SWEEP_ARGS + ["--alpha", "1.5"],
            SWEEP_ARGS + ["--mass", "1"],
            # min above max is caught by the sweep validator, not argparse
            ["sweep", "--vary", "temperature", "--min", "10", "--max", "0.1",
             "--steps", "5", "--alpha", "0.5", "--omega", "1"],
            # varied parameter also given as fixed
            SWEEP_ARGS + ["--temperature", "1"],
            ["sweep", "--vary", "alpha", "--min", "0.1", "--max", "0.9", "--steps", "5",
             "--alpha", "0.5", "--omega", "1", "--temperature", "1"],
            # missing fixed parameters
            ["sweep", "--vary", "alpha", "--min", "0.1", "--max", "0.9", "--steps", "5",
             "--omega", "1"],
            ["sweep", "--vary", "temperature", "--min", "0.1", "--max", "1", "--steps", "5",
             "--alpha", "0.5"],
            # alpha grid leaving (0, 1)
            ["sweep", "--vary", "alpha", "--min", "0.1", "--max", "1.0", "--steps", "5",
             "--omega", "1", "--temperature", "1"],
            ["figure", "1", "--max", "0.005"],
            ["figure", "2", "--alpha", "nan"],
            ["figure", "3", "--steps", "1"],
        ],
    )
    def test_invalid_value_writes_no_out_file(self, argv, tmp_path, capsys):
        target = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(target)])
        assert exc.value.code == 2
        assert not target.exists()
        assert capsys.readouterr().out == ""


class TestSweepCommand:
    def test_csv_to_stdout(self, capsys):
        code = main(SWEEP_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("alpha,omega,temperature,C_A_I")
        assert len(lines) == 21

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        main(SWEEP_ARGS)
        stdout_text = capsys.readouterr().out
        target = tmp_path / "rows.csv"
        code = main(SWEEP_ARGS + ["--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (SWEEP_ARGS, dict(vary="temperature", min=0.01, max=10.0, steps=20, scale="linear",
                              alpha=0.5, omega=1.0, temperature=None, verify=True, mass=None)),
            (["sweep", "--vary", "omega", "--min", "0.5", "--max", "5", "--steps", "9",
              "--scale", "log", "--alpha", "0.3", "--temperature", "2", "--verify", "off"],
             dict(vary="omega", min=0.5, max=5.0, steps=9, scale="log",
                  alpha=0.3, omega=None, temperature=2.0, verify=False, mass=None)),
            # the mass resolves the fixed temperature
            (["sweep", "--vary", "alpha", "--min", "0.1", "--max", "0.9", "--steps", "5",
              "--omega", "1", "--mass", "1"],
             dict(vary="alpha", min=0.1, max=0.9, steps=5, scale="linear",
                  alpha=None, omega=1.0, temperature=1.0 / (8.0 * math.pi), verify=True, mass=1.0)),
        ],
        ids=["basic", "all_options", "mass"],
    )
    def test_json_output(self, argv, echo, capsys, tmp_path):
        target = str(tmp_path / "rows.json")
        code = main(argv + ["--format", "json", "--out", target])
        assert code == 0
        assert capsys.readouterr().out == ""
        with open(target, encoding="utf-8") as fh:
            payload = json.load(fh)
        keys = ["vary", "min", "max", "steps", "scale", "alpha", "omega", "temperature",
                "format", "out", "verify", "mass"]
        want = {**echo, "format": "json", "out": target}
        assert list(payload["config"].items()) == [(key, want[key]) for key in keys]
        assert len(payload["rows"]) == echo["steps"]
        assert list(payload["rows"][0]) == list(CSV_COLUMNS)

    def test_fixed_zero_temperature(self, capsys):
        code = main([
            "sweep", "--vary", "omega", "--min", "0.5", "--max", "2", "--steps", "4",
            "--alpha", "0.5", "--temperature", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert cells[4] == "0.00000000000"  # C_A_II vanishes at T = 0
            assert cells[5] == "0.00000000000"  # C_I_II vanishes at T = 0

    def test_verification_failure_exits_3(self, capsys, monkeypatch):
        def skewed(points):
            table = _closed_table(points)
            table[:, 3:6] += 1e-6
            return table

        monkeypatch.setattr("hawkent.sweep._closed_table", skewed)
        code = main(SWEEP_ARGS)
        captured = capsys.readouterr()
        assert code == 3
        assert "verification failed" in captured.err

    @pytest.mark.parametrize("mutation", ["doubled_ratio", "swapped"])
    def test_wrong_thermal_weights_make_figure_2_exit_3(self, capsys, monkeypatch, mutation):
        # the helper maps (N,) columns of omega and T to (2, N) rows f- and f+
        weights = hawkent.model._weights
        if mutation == "doubled_ratio":
            def wrong(omega, temperature):
                return weights(2.0 * omega, temperature)
        else:
            def wrong(omega, temperature):
                return weights(omega, temperature)[::-1]  # f+ and f- swapped

        monkeypatch.setattr("hawkent.model._weights", wrong)
        code = main(["figure", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "verification failed" in captured.err
        assert captured.out == ""

    def test_write_failure_exits_4(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code = main(SWEEP_ARGS + ["--out", str(target)])
        captured = capsys.readouterr()
        assert code == 4
        assert "write failed" in captured.err


class TestFigureCommand:
    def test_concurrence_table(self):
        text = figure_command(1)
        lines = text.splitlines()
        assert lines[0] == "temperature,C_A_I,C_A_II,C_I_II"
        assert len(lines) == 201
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[0] == "0.0100000000000"
        assert last[0] == "10.0000000000"
        assert text.endswith("\n")

    def test_deterministic(self):
        assert figure_command(2) == figure_command(2)

    def test_cli_matches_library(self, capsys):
        code = main(["figure", "1"])
        assert code == 0
        assert capsys.readouterr().out == figure_command(1)

    @pytest.mark.parametrize("column", ["C_A_I", "EoF_A_I", "MI_A_I", "minPT_A_I"])
    def test_closed_form_off_by_1e_11_exits_3(self, capsys, monkeypatch, column):
        # a closed-form column off by 1e-11 prints wrong 12-digit cells; the
        # gate must be tighter than that, whichever measure the figure shows
        _skew(monkeypatch, entries=(CSV_COLUMNS.index(column) - 3,), delta=1e-11)
        code = main(["figure", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "verification failed" in captured.err
        assert captured.out == ""

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fig.csv"
        code = main(["figure", "3", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == figure_command(3)

    def test_concurrence_trends(self):
        lines = figure_command(1).splitlines()[1:]
        # rendered at 12 digits the early plateau repeats, so the trend
        # check is monotone non-strict plus a real overall change
        c_ai = [float(line.split(",")[1]) for line in lines]
        c_aii = [float(line.split(",")[2]) for line in lines]
        assert all(a >= b for a, b in zip(c_ai, c_ai[1:]))
        assert all(a <= b for a, b in zip(c_aii, c_aii[1:]))
        assert c_ai[0] - c_ai[-1] > 0.25
        assert c_aii[-1] - c_aii[0] > 0.6

    def test_mutual_information_conservation(self):
        # at the default alpha the A_I and A_II columns sum to 2 bits
        for line in figure_command(3).splitlines()[1:]:
            cells = line.split(",")
            assert abs(float(cells[1]) + float(cells[2]) - 2.0) <= 1e-9

    def test_hot_limit_equalises_eof(self):
        lines = figure_command(2, t_max=1e6, steps=60).splitlines()
        cells = lines[-1].split(",")
        assert abs(float(cells[1]) - float(cells[2])) <= 1e-5

    def test_custom_parameters(self):
        text = figure_command(1, alpha=0.3, omega=2.0, t_max=5.0, steps=12)
        lines = text.splitlines()
        assert len(lines) == 13
        assert abs(float(lines[-1].split(",")[0]) - 5.0) <= 1e-11

    def test_rejects_unknown_figure(self):
        with pytest.raises(ValueError, match="figure number"):
            figure_command(4)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError, match="max"):
            figure_command(1, t_max=0.005)

    def test_degenerate_grid_via_cli_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "1", "--max", "0.005"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "error:" in captured.err
        # figure has no --min: the message names --max and the fixed grid start
        assert "--max" in captured.err
        assert "T from 0.01" in captured.err
        assert captured.out == ""


class TestLimitsCommand:
    def test_balanced_superposition(self):
        text = limits_command(INV_SQRT2)
        lines = text.splitlines()
        assert lines[0] == "alpha = 0.707106781187"
        body = {line.split()[0]: line.split() for line in lines[2:-1]}
        assert body["C_A_I"][1] == "1.00000000000"
        assert body["C_A_I"][2] == "0.707106781187"
        assert body["C_A_II"][1] == "0.00000000000"
        assert body["C_I_II"][2] == "0.500000000000"
        assert body["MI_A_I"][1] == "2.00000000000"
        assert body["MI_A_I"][2] == "1.00000000000"
        assert body["MI_I_II"][2] == "0.622556248918"
        assert lines[-1] == (
            "accessible MI ratio: MI_A_I(T->inf) / MI_A_I(T=0) = 0.500000000000"
        )

    def test_skewed_superposition(self):
        text = limits_command(0.3)
        assert "0.572363520850" in text
        assert "0.404722126897" in text
        assert "0.0930602508073" in text

    @pytest.mark.parametrize("alpha", ["0.3", "0.5", "0.9"])
    def test_ratio_is_half_for_every_alpha(self, alpha, capsys):
        code = main(["limits", "--alpha", alpha])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("= 0.500000000000")

    def test_cli_matches_library(self, capsys):
        main(["limits", "--alpha", "0.9"])
        assert capsys.readouterr().out == limits_command(0.9)

    def test_ratio_where_alpha_squared_underflows_is_nan(self, capsys):
        # both mutual informations it divides are 0.0 there
        code = main(["limits", "--alpha", "1e-200"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("MI_A_I(T->inf) / MI_A_I(T=0) = nan\n")

    def test_an_18_character_cell_keeps_its_separator(self, capsys):
        # 2.00000000000e-200 fills the T = 0 column; the columns must not run together
        assert main(["limits", "--alpha", "1e-200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "C_A_I     2.00000000000e-200 1.41421356237e-200"
        assert all(len(line.split()) == 3 for line in lines[2:-1])

    @staticmethod
    def _mutate(monkeypatch, column, change):
        """Let the CLI's ``asymptotic_limits`` return ``change`` of one column of its report."""
        limits = hawkent.cli.asymptotic_limits

        def mutated(alpha):
            report = limits(alpha)
            return dataclasses.replace(report, **{column: change(getattr(report, column))})

        monkeypatch.setattr("hawkent.cli.asymptotic_limits", mutated)

    def test_hot_concurrence_off_by_1e_11_exits_3(self, capsys, monkeypatch):
        # c_hot = alpha sqrt(2 (1 - alpha^2)) fills both the A_I and A_II cells
        def scaled(hot):
            c_hot = hot.c_a_i * (1.0 + 1e-11)
            return dataclasses.replace(hot, c_a_i=c_hot, c_a_ii=c_hot)

        self._mutate(monkeypatch, "infinite_temperature", scaled)
        code = main(["limits", "--alpha", "0.5"])
        captured = capsys.readouterr()
        assert code == 3
        assert "temperature=inf: A_I concurrence" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("column", ["zero_temperature", "infinite_temperature"])
    @pytest.mark.parametrize("cell", [f.name for f in dataclasses.fields(LimitValues)])
    def test_any_cell_off_by_1e_11_exits_3(self, capsys, monkeypatch, column, cell):
        def shifted(values):
            return dataclasses.replace(values, **{cell: getattr(values, cell) + 1e-11})

        self._mutate(monkeypatch, column, shifted)
        code = main(["limits", "--alpha", "0.5"])
        captured = capsys.readouterr()
        measure, pair = cell.split("_", 1)
        temperature = "0" if column == "zero_temperature" else "inf"
        name = "concurrence" if measure == "c" else "mutual information"
        assert code == 3
        assert f"temperature={temperature}: {pair.upper()} {name}:" in captured.err
        assert captured.out == ""


class _FullStdout:
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass


class _BufferedFullStdout(io.StringIO):
    """A buffered stdout on a full device: writes are held, the flush fails."""

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


WRITE_ARGS = {
    "measure": ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "1"],
    "sweep": SWEEP_ARGS,
    "figure": ["figure", "2", "--steps", "3"],
    "limits": ["limits", "--alpha", "0.5"],
}


class TestWriteFailure:
    @pytest.mark.parametrize("stdout", [_FullStdout, _BufferedFullStdout])
    @pytest.mark.parametrize("command", sorted(WRITE_ARGS))
    def test_stdout_failure_exits_4(self, command, stdout, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", stdout())
        code = main(WRITE_ARGS[command])
        assert code == 4
        assert "write failed" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["measure", "limits"])
    def test_full_device_exits_4_from_a_process(self, command):
        # a short output sits in stdout's buffer, and Python flushes it again
        # at exit; that second failure would make the exit code 120
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "hawkent.cli", *WRITE_ARGS[command]],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, check=False,
            )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("write failed")
        assert "Exception ignored" not in proc.stderr
