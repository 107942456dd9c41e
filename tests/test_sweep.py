"""Tests for the sweep driver and its CSV/JSON emission."""

import csv
import dataclasses
import io
import json
import math
import random
import re
import struct
import sys
import warnings
from itertools import chain
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hawkent.measures
import hawkent.model
import hawkent.sweep
from hawkent.cli import main
from hawkent.measures import measure_set
from hawkent.model import ModelParams, ModePair, hawking_temperature, reduced_density, tripartite_state
from hawkent.model import (
    _amplitudes,
    _closed_table,
    closed_form_concurrence,
    closed_form_eof,
    closed_form_min_pt_eigenvalue,
    closed_form_mutual_information,
)
from hawkent.sweep import (
    _MEASURES,
    _PAIRS,
    CSV_COLUMNS,
    RunConfig,
    SweepRow,
    SweepRows,
    SweepSpec,
    VERIFY_ATOL,
    VerificationError,
    emit_csv,
    emit_json,
    evaluate_point,
    format_number,
    grid_values,
    run_sweep,
)
from test_model import _ref_amplitudes

INV_SQRT2 = 1.0 / math.sqrt(2.0)

TEMP_SWEEP = SweepSpec(
    vary="temperature", min=0.01, max=10.0, steps=100, alpha=INV_SQRT2, omega=1.0
)


def _config(spec=TEMP_SWEEP, **kwargs):
    return RunConfig(sweep=spec, **kwargs)


def _mass_config(mass, **kwargs):
    """A config of an alpha sweep at the Hawking temperature of ``mass``, echoing the mass."""
    spec = SweepSpec(vary="alpha", min=0.1, max=0.9, steps=5, omega=1.0, temperature=hawking_temperature(mass))
    return RunConfig(sweep=spec, mass=mass, **kwargs)


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,text",
        [
            (1.0, "1.00000000000"),
            (0.0, "0.00000000000"),
            (-0.0, "0.00000000000"),
            (0.5, "0.500000000000"),
            (math.pi, "3.14159265359"),
            (1.92874984796392e-22, "1.92874984796e-22"),
            (-0.365529289315002, "-0.365529289315"),
        ],
    )
    def test_examples(self, value, text):
        assert format_number(value) == text

    def test_round_trip_precision(self):
        for value in (0.855019636400244, -0.0841451530553308, 1.37760453660271):
            assert abs(float(format_number(value)) - value) <= 5e-12 * abs(value)


class TestSweepSpecValidation:
    def test_valid_spec(self):
        spec = SweepSpec(vary="alpha", min=0.1, max=0.9, steps=5, omega=1.0, temperature=2.0)
        assert spec.alpha is None
        assert spec.scale == "linear"

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(vary="mass", min=0.1, max=1.0, steps=3, alpha=0.5, omega=1.0), "vary"),
            (dict(vary="temperature", min=5.0, max=1.0, steps=3, alpha=0.5, omega=1.0), "min < max"),
            (dict(vary="temperature", min=1.0, max=1.0, steps=3, alpha=0.5, omega=1.0), "min < max"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=1, alpha=0.5, omega=1.0), "steps"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=2.5, alpha=0.5, omega=1.0), "steps"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=3, scale="cubic", alpha=0.5, omega=1.0), "scale"),
            (dict(vary="temperature", min=0.0, max=1.0, steps=3, scale="log", alpha=0.5, omega=1.0), "log scale"),
            (dict(vary="alpha", min=0.1, max=0.9, steps=3, alpha=0.5, omega=1.0, temperature=1.0), "cannot also be fixed"),
            (dict(vary="alpha", min=0.0, max=0.9, steps=3, omega=1.0, temperature=1.0), "inside"),
            (dict(vary="alpha", min=0.1, max=1.0, steps=3, omega=1.0, temperature=1.0), "inside"),
            (dict(vary="omega", min=0.0, max=2.0, steps=3, alpha=0.5, temperature=1.0), "positive"),
            (dict(vary="temperature", min=-1.0, max=2.0, steps=3, alpha=0.5, omega=1.0), "non-negative"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=3, alpha=0.5), "omega is required"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=3, omega=1.0), "alpha is required"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=3, alpha=1.2, omega=1.0), "alpha"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=3, alpha=0.5, omega=0.0), "omega"),
            (dict(vary="alpha", min=0.1, max=0.9, steps=3, omega=1.0, temperature=-2.0), "temperature"),
            # an integral float is still not an integer
            (dict(vary="temperature", min=0.1, max=1.0, steps=3.0, alpha=0.5, omega=1.0), "steps"),
            # a NaN end is named as such, not as an ordering error
            (dict(vary="temperature", min=math.nan, max=10.0, steps=3, alpha=0.5, omega=1.0), "finite, got nan"),
            (dict(vary="temperature", min=0.01, max=math.nan, steps=3, alpha=0.5, omega=1.0), "finite, got nan"),
            # an int beyond the float range is out of range, not an OverflowError later
            (dict(vary="omega", min=1.0, max=10**400, steps=3, alpha=0.5, temperature=1.0), "omega must"),
            (dict(vary="temperature", min=0.1, max=1.0, steps=3, alpha=0.5, omega=10**400), "omega must"),
            (dict(vary="alpha", min=0.1, max=0.9, steps=3, omega=1.0, temperature=10**400), "temperature must"),
        ],
    )
    def test_rejects_bad_spec(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SweepSpec(**kwargs)

    def test_values_are_stored_as_the_floats_checked(self):
        spec = SweepSpec(vary="temperature", min=np.float32(0.5), max=2, steps=np.int64(3), alpha=0.5, omega=1)
        assert [type(v) for v in (spec.min, spec.max, spec.alpha, spec.omega)] == [float] * 4
        assert (spec.min, spec.max, spec.omega, spec.steps) == (float(np.float32(0.5)), 2.0, 1.0, 3)
        assert spec.temperature is None

    @pytest.mark.parametrize(
        "field, value, error, match",
        [
            ("output_format", "xml", ValueError, "output_format must be 'csv' or 'json', got 'xml'"),
            ("verify", "no", ValueError, "verify must be a bool, got 'no'"),
            ("verify", 1, ValueError, "verify must be a bool, got 1"),
            ("out", Path("x"), ValueError, r"out must be None or a str, got \w*Path\('x'\)"),
            # the mass takes hawking_temperature's own errors
            ("mass", math.nan, ValueError, "mass must be positive and finite, got nan"),
            ("mass", -1.0, ValueError, "mass must be positive and finite, got -1.0"),
            ("mass", [1.0, {}], TypeError, "'<' not supported"),
            ("mass", 1e-320, ValueError, "its Hawking temperature overflows"),
            ("sweep", "x", ValueError, "sweep must be a SweepSpec, got 'x'"),
        ],
        ids=["format", "verify_str", "verify_int", "out_path", "mass_nan", "mass_negative", "mass_list",
             "mass_overflow", "sweep_str"],
    )
    def test_run_config_rejects_bad_field(self, field, value, error, match):
        with pytest.raises(error, match=match):
            RunConfig(**{"sweep": TEMP_SWEEP, field: value})

    def test_run_config_stores_numpy_scalars_as_python_ones(self):
        config = _mass_config(np.float32(2.5), verify=np.True_)
        assert (type(config.verify), type(config.mass)) == (bool, float)
        assert (config.verify, config.mass) == (True, 2.5)

    @pytest.mark.parametrize(
        "spec, temperature",
        [
            (TEMP_SWEEP, "None"),
            (SweepSpec(vary="alpha", min=0.1, max=0.9, steps=5, omega=1.0, temperature=5.0), "5.0"),
        ],
        ids=["temperature_sweep", "other_temperature"],
    )
    def test_run_config_ties_the_mass_to_the_sweep_temperature(self, spec, temperature):
        # the echo must not name a mass that did not give the table's temperature
        message = f"mass 1.0 has Hawking temperature {hawking_temperature(1.0)!r}, but the sweep's temperature is {temperature}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(sweep=spec, mass=1.0)


class TestGridValues:
    def test_linear_endpoints_exact(self):
        grid = grid_values(SweepSpec(vary="omega", min=0.5, max=5.0, steps=10, alpha=0.5, temperature=1.0))
        assert grid[0] == 0.5
        assert grid[-1] == 5.0
        assert len(grid) == 10
        assert np.allclose(np.diff(grid), 0.5)

    def test_log_scale_has_constant_ratio(self):
        spec = SweepSpec(
            vary="temperature", min=0.01, max=10.0, steps=7, scale="log", alpha=0.5, omega=1.0
        )
        grid = grid_values(spec)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert math.isclose(grid[0], 0.01, rel_tol=1e-12)
        assert math.isclose(grid[-1], 10.0, rel_tol=1e-12)

    def test_grids_are_ascending(self):
        for scale in ("linear", "log"):
            spec = SweepSpec(
                vary="omega", min=0.1, max=3.0, steps=25, scale=scale, alpha=0.5, temperature=1.0
            )
            assert (np.diff(grid_values(spec)) > 0).all()

    @staticmethod
    def _log_spec(low, high, steps):
        return SweepSpec(vary="omega", min=low, max=high, steps=steps, scale="log", alpha=0.5, temperature=1.0)

    @staticmethod
    def _scalar_log_grid(low, high, steps):
        """The log grid point by point, each from its nearer end, as ``grid_values`` documents it."""
        n = steps - 1
        ratio = high / low
        if ratio == math.inf:
            start = math.log(low)
            span = math.log(high) - start
            return [low, *(math.exp(start + span * (k / n)) for k in range(1, n)), high]
        return [low * ratio ** (k / n) if 2 * k <= n else high / ratio ** ((n - k) / n) for k in range(steps)]

    @settings(max_examples=300, deadline=None)
    @given(
        low=st.floats(min_value=5e-324, max_value=1e300),
        decades=st.floats(min_value=1e-12, max_value=616.0),
        steps=st.integers(min_value=2, max_value=200),
    )
    def test_log_grid_is_the_scalar_formula_bit_for_bit(self, low, decades, steps):
        half = 10.0 ** (decades / 2)  # each factor finite, so ranges past max/min's overflow are drawn
        high = min(low * half * half, sys.float_info.max)
        if not low < high:
            return
        grid = grid_values(self._log_spec(low, high, steps))
        assert grid.dtype == np.float64
        assert grid.tolist() == self._scalar_log_grid(low, high, steps)

    def test_log_grid_is_within_its_documented_ulps_of_mpmath(self):
        # the docstring's 4.5 ulp over grids of up to 6 decades, np.geomspace's 42 ulp failing it
        rng = random.Random(34)
        grids = [(0.01, 10.0, 40), (0.01, 10.0, 200)]
        for _ in range(150):
            low = 10.0 ** rng.uniform(-8, 4)
            grids.append((low, low * 10.0 ** rng.uniform(0.01, 6), rng.randint(2, 60)))
        worst = 0.0
        with mpmath.workdps(40):
            for low, high, steps in grids:
                ratio = mpmath.mpf(high) / low
                for k, x in enumerate(grid_values(self._log_spec(low, high, steps)).tolist()):
                    exact = low * ratio ** (mpmath.mpf(k) / (steps - 1))
                    worst = max(worst, float(abs(x - exact)) / math.ulp(float(exact)))
        assert worst <= 4.5

    def test_full_float_range_log_grid_is_finite_without_warnings(self):
        # max/min overflows on both ranges; np.geomspace warned of overflow in power
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for low, high in ((5e-324, sys.float_info.max), (1e-300, 1e300)):
                grid = grid_values(self._log_spec(low, high, 5))
                assert np.isfinite(grid).all()
                assert (np.diff(grid) > 0).all()
                assert (grid[0], grid[-1]) == (low, high)

    def test_full_float_range_log_sweep_writes_nothing_to_stderr(self, capsys):
        argv = ["sweep", "--vary", "omega", "--min", "5e-324", "--max", "1.7976931348623157e308",
                "--steps", "5", "--scale", "log", "--alpha", "0.5", "--temperature", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert len(out.splitlines()) == 6

    def test_grid_too_large_to_allocate_fails_at_once(self, capsys):
        # the allocation raises before any pass over the steps; a size that would allocate is not tried
        for scale in ("linear", "log"):
            spec = SweepSpec(vary="temperature", min=0.01, max=10.0, steps=10**20, scale=scale, alpha=0.6, omega=1.0)
            with pytest.raises(ValueError, match="Maximum allowed"):
                grid_values(spec)
            with pytest.raises(ValueError, match="Maximum allowed"):
                run_sweep(_config(spec))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--vary", "temperature", "--min", "0.01", "--max", "10", "--alpha", "0.6",
                  "--omega", "1", "--steps", "100000000000000000000", "--scale", "log"])
        assert exc.value.code == 2
        assert "Maximum allowed" in capsys.readouterr().err


class TestEvaluatePoint:
    def test_spot_row(self):
        row = evaluate_point(INV_SQRT2, 1.0, 1.0)
        assert isinstance(row, SweepRow)
        assert abs(row.c_a_i - 0.855019636400244) <= 1e-14
        assert abs(row.c_a_ii - 0.518595624133096) <= 1e-14
        assert abs(row.c_i_ii - 0.443409441985037) <= 1e-14
        assert abs(row.eof_a_i - 0.796206044685929) <= 1e-14
        assert abs(row.mi_a_i - 1.37760453660271) <= 1e-14
        assert abs(row.mi_i_ii - 0.516750275591282) <= 1e-14
        assert abs(row.min_pt_a_i - (-0.365529289315002)) <= 1e-14
        assert abs(row.min_pt_i_ii - (-0.0841451530553308)) <= 1e-14

    def test_verify_flag_does_not_change_values(self):
        checked = evaluate_point(0.4, 2.0, 3.0, verify=True)
        unchecked = evaluate_point(0.4, 2.0, 3.0, verify=False)
        assert checked == unchecked

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError, match="alpha"):
            evaluate_point(1.5, 1.0, 1.0)

    def test_as_tuple_matches_column_order(self):
        row = evaluate_point(0.5, 1.0, 2.0)
        t = row.as_tuple()
        assert len(t) == len(CSV_COLUMNS)
        assert t[0] == row.alpha
        assert t[3] == row.c_a_i
        assert t[14] == row.min_pt_i_ii


class TestRunSweep:
    def test_temperature_sweep_shape_and_trends(self):
        rows = run_sweep(_config())
        assert len(rows) == 100
        assert rows[0].temperature == 0.01
        assert rows[-1].temperature == 10.0
        assert abs(rows[0].c_a_i - 1.0) <= 1e-6

        def col(name):
            return np.array([getattr(r, name) for r in rows])

        for name in ("c_a_i", "eof_a_i", "mi_a_i", "min_pt_a_ii", "min_pt_i_ii"):
            assert (np.diff(col(name)) < 0).all(), name
        for name in ("c_a_ii", "c_i_ii", "eof_a_ii", "eof_i_ii", "mi_a_ii", "mi_i_ii", "min_pt_a_i"):
            assert (np.diff(col(name)) > 0).all(), name

    def test_middle_row_hits_spot_point(self):
        spec = SweepSpec(
            vary="temperature", min=0.5, max=1.5, steps=3, alpha=INV_SQRT2, omega=1.0
        )
        rows = run_sweep(_config(spec))
        middle = rows[1]
        assert middle.temperature == 1.0
        assert abs(middle.c_a_i - 0.855019636400244) <= 1e-14
        assert abs(middle.c_a_ii - 0.518595624133096) <= 1e-14
        assert abs(middle.c_i_ii - 0.443409441985037) <= 1e-14
        assert abs(middle.min_pt_a_ii - (-0.134470710684998)) <= 1e-14

    def test_alpha_sweep_tracks_grid(self):
        spec = SweepSpec(vary="alpha", min=0.1, max=0.9, steps=5, omega=1.0, temperature=1.0)
        rows = run_sweep(_config(spec))
        assert [r.alpha for r in rows] == list(np.linspace(0.1, 0.9, 5))
        for r in rows:
            assert r.omega == 1.0
            assert r.temperature == 1.0
            params = ModelParams(r.alpha, 1.0, 1.0)
            assert abs(r.c_a_i - closed_form_concurrence(params, ModePair.A_I)) <= 1e-15

    def test_batch_size_does_not_change_output(self):
        spec = SweepSpec(
            vary="temperature", min=0.1, max=5.0, steps=40, alpha=0.6, omega=1.5
        )
        whole = io.StringIO()
        one_by_one = io.StringIO()
        emit_csv(run_sweep(_config(spec)), whole)
        emit_csv([evaluate_point(0.6, 1.5, float(t)) for t in grid_values(spec)], one_by_one)
        assert whole.getvalue() == one_by_one.getvalue()


class TestEmitCsv:
    HEADER = (
        "alpha,omega,temperature,C_A_I,C_A_II,C_I_II,"
        "EoF_A_I,EoF_A_II,EoF_I_II,MI_A_I,MI_A_II,MI_I_II,"
        "minPT_A_I,minPT_A_II,minPT_I_II"
    )

    def test_header_and_line_count(self):
        rows = run_sweep(_config())
        out = io.StringIO()
        emit_csv(rows, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 101
        assert out.getvalue().endswith("\n")

    def test_twelve_digit_rendering(self):
        spec = SweepSpec(
            vary="temperature", min=0.01, max=10.0, steps=2, alpha=INV_SQRT2, omega=1.0
        )
        out = io.StringIO()
        emit_csv(run_sweep(_config(spec)), out)
        first = out.getvalue().splitlines()[1].split(",")
        assert first[0] == "0.707106781187"
        assert first[2] == "0.0100000000000"
        assert first[3] == "1.00000000000"

    def test_round_trip_recomputes(self):
        out = io.StringIO()
        emit_csv(run_sweep(_config()), out)
        out.seek(0)
        reader = csv.DictReader(out)
        count = 0
        for record in reader:
            count += 1
            params = ModelParams(
                float(record["alpha"]),
                float(record["omega"]),
                float(record["temperature"]),
            )
            checks = (
                ("C_A_I", closed_form_concurrence(params, ModePair.A_I)),
                ("C_I_II", closed_form_concurrence(params, ModePair.I_II)),
                ("EoF_A_II", closed_form_eof(params, ModePair.A_II)),
                ("MI_A_I", closed_form_mutual_information(params, ModePair.A_I)),
                ("minPT_A_I", closed_form_min_pt_eigenvalue(params, ModePair.A_I)),
            )
            for column, expected in checks:
                assert abs(float(record[column]) - expected) <= 1e-9
        assert count == 100


class TestEmitJson:
    def _payload(self, spec=None, with_config=True):
        spec = spec or SweepSpec(
            vary="temperature", min=0.5, max=1.5, steps=3, alpha=INV_SQRT2, omega=1.0
        )
        config = _config(spec)
        rows = run_sweep(config)
        out = io.StringIO()
        emit_json(rows, out, config if with_config else None)
        return json.loads(out.getvalue()), rows

    def test_schema(self):
        payload, rows = self._payload()
        assert set(payload) == {"config", "rows"}
        assert len(payload["rows"]) == len(rows)
        for entry in payload["rows"]:
            assert list(entry) == list(CSV_COLUMNS)
        config = payload["config"]
        assert config["vary"] == "temperature"
        assert config["min"] == 0.5
        assert config["max"] == 1.5
        assert config["steps"] == 3
        assert config["scale"] == "linear"
        assert config["alpha"] == pytest.approx(INV_SQRT2)
        assert config["omega"] == 1.0
        assert config["temperature"] is None
        assert config["format"] == "csv"
        assert config["out"] is None
        assert config["verify"] is True
        assert config["mass"] is None

    def test_numpy_integer_steps_emit_the_same_bytes(self):
        texts = []
        for steps in (3, np.int64(3)):
            spec = SweepSpec(vary="temperature", min=0.5, max=1.5, steps=steps, alpha=0.6, omega=1.0)
            config = _config(spec)
            out = io.StringIO()
            emit_json(run_sweep(config), out, config)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]

    def test_numpy_float_values_emit_the_bytes_of_their_floats(self):
        given = {"min": np.float32(0.1), "max": np.float32(0.9), "omega": np.float32(1.5), "temperature": np.float32(0.7)}
        texts = []
        for values in (given, {name: float(value) for name, value in given.items()}):
            spec = SweepSpec(vary="alpha", steps=3, **values)
            assert grid_values(spec).dtype == np.float64
            config = _config(spec)
            out = io.StringIO()
            emit_json(run_sweep(config), out, config)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]

    def test_config_echo_optional(self):
        payload, _ = self._payload(with_config=False)
        assert payload["config"] is None

    def test_values_match_csv_rendering_exactly(self):
        spec = SweepSpec(
            vary="temperature", min=0.01, max=10.0, steps=20, alpha=0.3, omega=2.0
        )
        config = _config(spec)
        rows = run_sweep(config)
        csv_out = io.StringIO()
        emit_csv(rows, csv_out)
        json_out = io.StringIO()
        emit_json(rows, json_out, config)
        payload = json.loads(json_out.getvalue())
        csv_lines = csv_out.getvalue().splitlines()[1:]
        for line, entry in zip(csv_lines, payload["rows"]):
            for cell, column in zip(line.split(","), CSV_COLUMNS):
                assert float(cell) == entry[column]



def _old_cell(v):
    """The cell rendering of the per-cell emitters, kept as the oracle."""
    if v == 0.0:
        v = 0.0
    return format(v, "#.12g")


def _old_csv(rows):
    lines = [",".join(CSV_COLUMNS)] + [",".join(_old_cell(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def _old_json(rows, config):
    payload = {
        "config": None if config is None else {**dataclasses.asdict(config.sweep), **{
            "format": config.output_format,
            "out": config.out,
            "verify": config.verify,
            "mass": config.mass,
        }},
        "rows": [{name: float(_old_cell(v)) for name, v in zip(CSV_COLUMNS, row)} for row in rows],
    }
    return json.dumps(payload, indent=1) + "\n"


# one element of the JSON rows array and its separator, each value rendered straight from its float
_ORACLE_RECORD = "  {\n" + ",\n".join(f"   {json.dumps(c)}: %#.12g" for c in CSV_COLUMNS) + "\n  },\n"


def _scanned_json(rows, config=None):
    """``emit_json`` with every fix-up applied to every output and the head filled value by value, kept as the oracle."""
    rows = list(map(tuple, rows))
    records = (_ORACLE_RECORD * len(rows)) % tuple(chain.from_iterable(rows))
    records = records.replace("-0.00000000000", "0.00000000000")
    if config is None:
        head = hawkent.sweep._JSON_HEAD_NO_CONFIG
    else:
        echo = (*hawkent.sweep._spec_values(config.sweep), config.output_format, config.out, config.verify,
                config.mass)
        head = hawkent.sweep._JSON_HEAD % tuple(map(json.dumps, echo))
    if not records:
        return head + "[]\n}\n"
    records = records[:-2].replace(".,\n", ".0,\n").replace(".\n", ".0\n")
    records = records.replace("nan", "NaN").replace("inf", "Infinity")
    return head + "[\n" + records + "\n ]\n}\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _value_bits(text):
    """The bits of the double that ``json`` parses from one value's text."""
    return struct.pack("<d", json.loads(text))


def _assert_same_json_values(got, want):
    """``got`` has ``want``'s head bytes, its lines and keys, and bitwise-equal values.

    Only row values may differ in text: each pair must parse to the
    same double, the sign of zero and NaN included.
    """
    head = want.index('"rows": ')
    assert got[:head] == want[:head], "the config echo changed"
    got_lines, want_lines = got[head:].split("\n"), want[head:].split("\n")
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        if g != w:
            g_key, _, g_value = g.partition(": ")
            w_key, _, w_value = w.partition(": ")
            assert (g_key, g_value.endswith(",")) == (w_key, w_value.endswith(",")), (g, w)
            assert _value_bits(g_value.removesuffix(",")) == _value_bits(w_value.removesuffix(",")), (g, w)


def _rows_cycling(cells):
    """Rows that put each cell in each column, once per starting offset."""
    return [tuple(cells[(i + k) % len(cells)] for k in range(len(CSV_COLUMNS))) for i in range(len(cells))]


# 123456789012345.0 takes exponent form at 12 digits but not in repr
EDGE_CELLS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1.0, 0.1, 123456789012345.0)
NONFINITE_CELLS = (math.nan, math.inf, -math.inf, 0.5, -0.0)
EDGE_ROW_SETS = {
    "edge": _rows_cycling(EDGE_CELLS),
    "nonfinite": _rows_cycling(NONFINITE_CELLS),
    "mixed": _rows_cycling(EDGE_CELLS)[:2] + _rows_cycling(NONFINITE_CELLS)[:1] + _rows_cycling(EDGE_CELLS)[2:3],
    "empty": [],
}
EDGE_CONFIGS = {
    "none": None,
    "sweep": _config(),
    "escaped_out": _mass_config(1e-300, output_format="json", out='a "q" \\ b\nc \u00e9\u2603'),
    # each varied parameter leaves a different fixed field None
    "alpha_sweep": _config(SweepSpec(vary="alpha", min=0.1, max=0.9, steps=5, omega=1.0, temperature=0.5)),
    "omega_sweep": _config(
        SweepSpec(vary="omega", min=0.5, max=4.0, steps=4, scale="log", alpha=0.3, temperature=1.0)
    ),
    "unverified_mass": _mass_config(2.5, verify=False),
    # stored as the Python float 1.0, and echoed as one
    "float32_mass": _mass_config(np.float32(1.0)),
    # the head's values are split at raw NULs, which json.dumps never leaves in a string
    "nul_out": _config(output_format="json", out='\0, \u2028 " \\ \U0001f600'),
}


def _guard_rows(cell, column=7):
    """Three rows of cells in (-1e10, 1e10), with ``cell`` in row 1 at ``column``, away from the first cell."""
    small = (0.5, -0.25, 1e-300, -0.0, 3.0, 0.125, -7.5, 1e-5)
    rows = [[small[(i + k) % len(small)] for k in range(len(CSV_COLUMNS))] for i in range(3)]
    rows[1][column] = cell
    return [tuple(row) for row in rows]


# one cell each that the JSON fix-ups must see, or that stops them being skipped: the first three
# end in a bare "." (99999999999.99995 rounds up to it), and 1e10 is the edge itself; then cells
# just inside the edge, with subnormals and -0.0
GUARD_ROW_SETS = {
    "rounds_up_to_1e11": _guard_rows(99999999999.99995),
    "1e11_ends_its_record": _guard_rows(1e11, column=len(CSV_COLUMNS) - 1),
    "minus_1e11": _guard_rows(-1e11),
    "nan": _guard_rows(math.nan),
    "minus_inf": _guard_rows(-math.inf),
    "1e10": _guard_rows(1e10),
    "inside": _guard_rows(9999999999.99) + [(5e-324, -5e-324, 2.2250738585072014e-308, -0.0) * 3 + (0.0, -0.0, 1e-310)],
    "inside_negative": _guard_rows(-9999999999.99, column=0),
    # each cell is inside, but their norm is not
    "both_signs_inside": [row[:7] + (9999999999.99, -9999999999.99) + row[9:] for row in _guard_rows(0.5)],
}


def _read_off_rows():
    """Rows of 20000 random finite doubles and the cells at every notation and exponent edge."""
    rng = random.Random(18)
    finite = []
    while len(finite) < 20000:  # uniform by bit pattern: every binade and the subnormals alike
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            finite.append(value)
    decades = []
    for k in range(-310, 18):
        value = float(f"1e{k}")
        decades += [math.nextafter(value, 0.0), value, math.nextafter(value, math.inf)]
    # subnormals of every mantissa length, down to the smallest: their repr may be shorter
    subnormals = [
        struct.unpack("<d", rng.getrandbits(k).to_bytes(8, "little"))[0] for k in range(1, 53) for _ in range(10)
    ]
    # the 12-digit rounding of each crosses into the next notation or exponent
    crossing = [9.999999999995e11, 9.99999999999995e-5, 9999999999999995.0]
    integers = [float(n) for n in (1, 7, 10, 123, 100000000000, 999999999999, 10**12, 10**15, 10**16)]
    extremes = [0.0, -0.0, sys.float_info.max, -sys.float_info.max]
    cells = [sign * v for v in decades + subnormals + crossing + integers for sign in (1.0, -1.0)]
    cells += finite + extremes
    width = len(CSV_COLUMNS)
    cells += [0.5] * (-len(cells) % width)
    return [tuple(cells[i:i + width]) for i in range(0, len(cells), width)]


READ_OFF_ROWS = _read_off_rows()
CSV_ROW_SETS = {**EDGE_ROW_SETS, "read_off": READ_OFF_ROWS}
FINITE_ROW_SETS = {
    name: rows for name, rows in CSV_ROW_SETS.items() if all(math.isfinite(v) for row in rows for v in row)
}


# cells that need no JSON fix-up: small ints, and doubles in [-1, 1], subnormals and -0.0 included
_PLAIN_CELLS = st.one_of(st.integers(-3, 3), st.floats(-1.0, 1.0))
# cells that may: any double, NaN and the infinities included, and doubles within 3 ulps of +-1e10,
# +-1e11 and +-1e12
_EDGE_CELLS = st.one_of(
    st.builds(
        lambda edge, ulps: edge + ulps * math.ulp(edge),
        st.sampled_from((1e10, 1e11, 1e12, -1e10, -1e11, -1e12)),
        st.integers(-3, 3),
    ),
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.floats(),
)


@st.composite
def _drawn_rows(draw):
    """Up to three rows of plain cells, one or two of them replaced by edge cells."""
    width = len(CSV_COLUMNS)
    count = draw(st.integers(0, 3)) * width
    cells = draw(st.lists(_PLAIN_CELLS, min_size=count, max_size=count))
    for _ in range(draw(st.integers(1, 2)) if cells else 0):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_EDGE_CELLS)
    return [tuple(cells[i:i + width]) for i in range(0, len(cells), width)]


class TestEmissionBytes:
    @pytest.mark.parametrize("rows", CSV_ROW_SETS.values(), ids=CSV_ROW_SETS.keys())
    def test_csv_matches_per_cell_rendering(self, rows):
        out = io.StringIO()
        emit_csv(rows, out)
        # lines with their endings, so a changed or missing line terminator fails too
        got, want = out.getvalue().splitlines(keepends=True), _old_csv(rows).splitlines(keepends=True)
        assert len(got) == len(want)
        differ = [(g, w) for g, w in zip(got, want) if g != w]
        assert not differ, f"{len(differ)} lines differ, first: {differ[:3]}"

    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    @pytest.mark.parametrize("rows", EDGE_ROW_SETS.values(), ids=EDGE_ROW_SETS.keys())
    def test_json_matches_json_dump(self, rows, config):
        out = io.StringIO()
        emit_json(rows, out, config)
        _assert_same_json_values(out.getvalue(), _old_json(rows, config))
        if not rows:  # the head alone is strict JSON: no NaN or infinity in the echo
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    def test_json_head_keys_follow_the_dataclasses(self):
        out = io.StringIO()
        emit_json([], out, _config())
        keys = [f.name for f in dataclasses.fields(SweepSpec)] + ["format", "out", "verify", "mass"]
        assert list(json.loads(out.getvalue())["config"]) == keys

    def test_exponent_cell_keeps_its_json_spelling(self):
        # the last column ends its record, so its bare "." is followed by a newline, not a comma
        rows = [(123456789012345.0, 1e11) * (len(CSV_COLUMNS) // 2) + (1e11,)]
        csv_out, json_out = io.StringIO(), io.StringIO()
        emit_csv(rows, csv_out)
        emit_json(rows, json_out)
        assert csv_out.getvalue().splitlines()[1].split(",")[:2] == ["1.23456789012e+14", "100000000000."]
        assert '"alpha": 1.23456789012e+14,\n' in json_out.getvalue()
        assert '"omega": 100000000000.0,\n' in json_out.getvalue()
        assert '"minPT_I_II": 100000000000.0\n' in json_out.getvalue()

    @pytest.mark.parametrize("rows", FINITE_ROW_SETS.values(), ids=FINITE_ROW_SETS.keys())
    def test_json_values_are_their_csv_cells_as_strict_json(self, rows):
        csv_out, json_out = io.StringIO(), io.StringIO()
        emit_csv(rows, csv_out)
        emit_json(rows, json_out)
        json.loads(json_out.getvalue(), parse_constant=_reject_constant)
        cells = [cell for line in csv_out.getvalue().splitlines()[1:] for cell in line.split(",")]
        want = [cell + "0" if cell.endswith(".") else cell for cell in cells]
        got = [line.partition(": ")[2].removesuffix(",") for line in json_out.getvalue().splitlines()
               if line.startswith('   "')]
        assert len(got) == len(want)
        differ = [(g, w) for g, w in zip(got, want) if g != w]
        assert not differ, f"{len(differ)} values differ, first: {differ[:3]}"

    @pytest.mark.parametrize("width", [len(CSV_COLUMNS) - 1, len(CSV_COLUMNS) + 1])
    @pytest.mark.parametrize("emit", [emit_csv, emit_json])
    def test_wrong_width_raises_before_writing(self, emit, width):
        rows = [(0.5,) * len(CSV_COLUMNS), (0.5,) * width, (0.5,) * 3]
        out = io.StringIO()
        with pytest.raises(ValueError, match=f"row 1 has {width} values, expected {len(CSV_COLUMNS)}"):
            emit(rows, out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("emit", [emit_csv, emit_json])
    def test_compensating_widths_raise_before_writing(self, emit):
        # 14 + 16 cells fill two rows of 15: only a per-row check sees the fault
        rows = iter([(0.5,) * (len(CSV_COLUMNS) - 1), (0.5,) * (len(CSV_COLUMNS) + 1)])
        out = io.StringIO()
        with pytest.raises(ValueError, match=f"row 0 has {len(CSV_COLUMNS) - 1} values, expected {len(CSV_COLUMNS)}"):
            emit(rows, out)
        assert out.getvalue() == ""

    def test_json_values_are_read_off_their_cells_exactly(self):
        out = io.StringIO()
        emit_json(READ_OFF_ROWS, out)
        _assert_same_json_values(out.getvalue(), _old_json(READ_OFF_ROWS, None))

    @pytest.mark.parametrize("rows", GUARD_ROW_SETS.values(), ids=GUARD_ROW_SETS.keys())
    def test_json_fix_ups_are_skipped_only_where_they_find_nothing(self, rows):
        csv_out, json_out = io.StringIO(), io.StringIO()
        emit_csv(rows, csv_out)
        emit_json(rows, json_out)
        assert json_out.getvalue() == _scanned_json(rows)
        cells = [float(cell) for line in csv_out.getvalue().splitlines()[1:] for cell in line.split(",")]
        if all(map(math.isfinite, cells)):
            records = json.loads(json_out.getvalue(), parse_constant=_reject_constant)["rows"]
            values = [v for record in records for v in record.values()]
            assert struct.pack(f"<{len(cells)}d", *values) == struct.pack(f"<{len(cells)}d", *cells)

    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    def test_json_head_is_each_value_as_json_dumps_writes_it(self, config):
        out = io.StringIO()
        emit_json([], out, config)
        assert out.getvalue() == _scanned_json([], config)
        if config is not None:
            assert json.loads(out.getvalue())["config"]["out"] == config.out

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(_drawn_rows())
    def test_emitters_match_their_oracles_on_drawn_rows(self, rows):
        csv_out, json_out = io.StringIO(), io.StringIO()
        emit_csv(rows, csv_out)
        emit_json(rows, json_out)
        assert csv_out.getvalue() == _old_csv(rows)
        assert json_out.getvalue() == _scanned_json(rows)


BODY_ROW_SETS = {**EDGE_ROW_SETS, **GUARD_ROW_SETS, "read_off": READ_OFF_ROWS}


class TestSweepRows:
    def test_run_sweep_returns_a_tuple_of_sweep_rows(self):
        rows = run_sweep(_config())
        assert type(rows) is SweepRows and isinstance(rows, tuple)
        assert len(rows) == TEMP_SWEEP.steps and all(type(row) is SweepRow for row in rows)

    @pytest.mark.parametrize("emitters", [(emit_csv, emit_json), (emit_json, emit_csv)], ids=["csv_first", "json_first"])
    def test_a_result_emitted_in_both_formats_renders_once(self, monkeypatch, emitters):
        widths = []
        render = hawkent.sweep._render_rows

        def spy(rows, width):
            widths.append(width)
            return render(rows, width)

        monkeypatch.setattr(hawkent.sweep, "_render_rows", spy)
        rows = run_sweep(_config())
        for emit in emitters:
            emit(rows, io.StringIO())
        assert widths == [len(CSV_COLUMNS)]
        # a plain list is made into new rows by each emitter, and rendered by each
        plain = list(rows)
        for emit in emitters:
            emit(plain, io.StringIO())
        assert widths == [len(CSV_COLUMNS)] * 3

    @pytest.mark.parametrize("rows", BODY_ROW_SETS.values(), ids=BODY_ROW_SETS.keys())
    def test_json_bytes_are_the_same_from_a_cached_body(self, rows):
        fresh, cached = io.StringIO(), io.StringIO()
        emit_json(SweepRows(rows), fresh)
        warm = SweepRows(rows)
        emit_csv(warm, io.StringIO())
        assert "csv_body" in vars(warm)
        emit_json(warm, cached)
        assert cached.getvalue() == fresh.getvalue()


def _skew(monkeypatch, entries=(0, 1, 2), temperature=None, delta=1e-6):
    """Add ``delta`` to the closed-form ``entries`` of ``hawkent.sweep._closed_table``.

    ``entries`` index the twelve closed forms in CSV order; the default
    entries are the three concurrences.  With ``temperature`` given,
    only points at that temperature are skewed.  A NaN ``delta`` makes
    the entries NaN.
    """

    def skewed(points):
        table = _closed_table(points)
        rows = slice(None) if temperature is None else table[:, 2] == temperature
        for k in entries:
            table[rows, 3 + k] += delta
        return table

    monkeypatch.setattr("hawkent.sweep._closed_table", skewed)


def _log_uniform(rng, low, high, size):
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def _survey_points():
    """20000 seeded points: alpha uniform, log-uniform down to 1e-12 and
    within 1e-15 to 1e-1 of 1, at w/T log-uniform in [1e-6, 1e3], then
    blocks at T = 0, T = 5e-324, omega = max float and T = max float."""
    rng = np.random.default_rng(20)
    n = 5000
    alphas = np.concatenate(
        [rng.uniform(0.0, 1.0, n), _log_uniform(rng, 1e-12, 1.0, n), 1.0 - _log_uniform(rng, 1e-15, 1e-1, n)]
    )
    ratio = _log_uniform(rng, 1e-6, 1e3, 3 * n)
    points = [(a, 1.0, 1.0 / x) for a, x in zip(alphas.tolist(), ratio.tolist()) if 0.0 < a < 1.0]
    big = sys.float_info.max
    block = np.split(rng.choice(alphas, n), 4)
    points += [(a, 1.0, 0.0) for a in block[0].tolist()]
    points += [(a, 1.0, 5e-324) for a in block[1].tolist()]
    # w/T stays in [1e-6, 1e3] at the largest omega and T
    ratio = _log_uniform(rng, 1.0, 1e3, len(block[2]))
    points += [(a, big, big / x) for a, x in zip(block[2].tolist(), ratio.tolist())]
    ratio = _log_uniform(rng, 1e-6, 1.0, len(block[3]))
    points += [(a, big * x, big) for a, x in zip(block[3].tolist(), ratio.tolist())]
    return points


class TestVerification:
    def test_the_routes_agree_far_inside_the_gate(self, monkeypatch):
        # the largest gaps are 5.6e-16 (C), 5.1e-15 (EoF), 1.3e-14 (MI) and
        # 3.3e-16 (min PT), so the check passes at a tenth of the gate
        bound = 1e-13
        points = _survey_points()
        assert len(points) == 20000
        assert 10.0 * bound <= VERIFY_ATOL
        monkeypatch.setattr("hawkent.sweep.VERIFY_ATOL", bound)
        hawkent.sweep._verify(_closed_table(points))

    def test_mismatch_raises(self, monkeypatch):
        _skew(monkeypatch)
        with pytest.raises(VerificationError, match="mismatch.*concurrence"):
            evaluate_point(0.5, 1.0, 1.0)

    def test_mismatch_names_the_point(self, monkeypatch):
        _skew(monkeypatch)
        with pytest.raises(VerificationError, match="alpha=0.5.*temperature=3"):
            evaluate_point(0.5, 1.0, 3.0)

    def test_verify_off_skips_the_check(self, monkeypatch):
        _skew(monkeypatch)
        row = evaluate_point(0.5, 1.0, 1.0, verify=False)
        assert row.c_a_i > 0.0

    @pytest.mark.parametrize("verify", ["no", None, 1, np.True_], ids=["str", "none", "int", "numpy_bool"])
    def test_evaluate_point_gates_verify_as_run_config_does(self, monkeypatch, verify):
        _skew(monkeypatch)  # so a check that runs raises VerificationError
        if isinstance(verify, np.bool_):
            with pytest.raises(VerificationError):
                evaluate_point(0.5, 1.0, 1.0, verify=verify)
            assert _config(verify=verify).verify is True
            return
        message = re.escape(f"verify must be a bool, got {verify!r}")
        with pytest.raises(ValueError, match=message):
            evaluate_point(0.5, 1.0, 1.0, verify=verify)
        with pytest.raises(ValueError, match=message):
            _config(verify=verify)

    def test_run_sweep_propagates(self, monkeypatch):
        _skew(monkeypatch)
        spec = SweepSpec(vary="temperature", min=0.5, max=1.5, steps=3, alpha=0.5, omega=1.0)
        with pytest.raises(VerificationError):
            run_sweep(_config(spec))

    def test_sweep_reports_first_failure_in_grid_order(self, monkeypatch):
        _skew(monkeypatch, temperature=3.0)
        spec = SweepSpec(vary="temperature", min=1.0, max=5.0, steps=5, alpha=0.5, omega=1.0)
        with pytest.raises(VerificationError, match="temperature=3: A_I concurrence"):
            run_sweep(_config(spec))

    @pytest.mark.parametrize("k", range(12))
    def test_each_entry_is_reported_by_its_pair_and_measure(self, monkeypatch, k):
        _skew(monkeypatch, entries=(k,))
        spec = SweepSpec(vary="temperature", min=0.5, max=1.5, steps=3, alpha=0.5, omega=1.0)
        expected = f"{_PAIRS[k % 3].value} {_MEASURES[k // 3]}: "
        with pytest.raises(VerificationError, match=re.escape(expected)):
            run_sweep(_config(spec))

    @pytest.mark.parametrize("k", range(12))
    def test_nan_closed_form_is_reported_by_its_pair_and_measure(self, monkeypatch, k):
        _skew(monkeypatch, entries=(k,), delta=math.nan)
        spec = SweepSpec(vary="temperature", min=0.5, max=1.5, steps=3, alpha=0.5, omega=1.0)
        expected = f"{_PAIRS[k % 3].value} {_MEASURES[k // 3]}: nan vs "
        with pytest.raises(VerificationError, match=re.escape(expected)):
            run_sweep(_config(spec))

    @pytest.mark.parametrize("k", range(12))
    def test_nan_spectral_value_is_reported_by_its_pair_and_measure(self, monkeypatch, k):
        measure = hawkent.sweep._factor_measures

        def nan_at_last_point(factors):
            # spectral values are (point, pair, measure); CSV entry k is pair k % 3, measure k // 3
            spectral = measure(factors)
            spectral[-1, k % 3, k // 3] = math.nan
            return spectral

        monkeypatch.setattr("hawkent.sweep._factor_measures", nan_at_last_point)
        spec = SweepSpec(vary="temperature", min=0.5, max=1.5, steps=3, alpha=0.5, omega=1.0)
        expected = f"temperature=1.5: {_PAIRS[k % 3].value} {_MEASURES[k // 3]}: "
        with pytest.raises(VerificationError, match=re.escape(expected) + r"\S+ vs nan$"):
            run_sweep(_config(spec))

    def test_nan_closed_form_fails_a_single_point(self, monkeypatch):
        _skew(monkeypatch, entries=(11,), delta=math.nan)
        with pytest.raises(VerificationError, match="I_II min PT eigenvalue: nan vs "):
            evaluate_point(0.5, 1.0, 1.0)

    def test_verified_sweep_makes_one_real_lapack_call(self, monkeypatch):
        calls = {}

        def counted(name, real):
            def call(a, *args, **kwargs):
                calls.setdefault(name, []).append((np.asarray(a).dtype, np.shape(a)))
                return real(a, *args, **kwargs)

            return call

        for name in ("eigh", "eigvalsh"):
            real = getattr(hawkent.measures, f"_{name}")
            monkeypatch.setattr(hawkent.measures, f"_{name}", counted(name, real))
        for name in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, counted(f"numpy.linalg.{name}", real))
        spec = SweepSpec(vary="temperature", min=0.01, max=10.0, steps=40, scale="log",
                         alpha=0.6, omega=1.0)
        run_sweep(_config(spec))
        # the 3 x 40 partial transposes in one stack: each pair's concurrence is
        # a closed form of its 2x2 spin-flip matrix, no eigh runs, since each
        # pair's factor is read off the amplitudes, and no call of numpy's
        # public eigh, eigvalsh or svd
        assert calls == {"eigvalsh": [(np.dtype(np.float64), (120, 4, 4))]}


def _mutate_weights(monkeypatch, mutation):
    """Replace ``hawkent.model._weights``, and nothing else, by a wrong variant.

    Like the helper, each variant takes the ``(N,)`` columns of omega
    and T and gives the ``(2, N)`` rows ``f-`` and ``f+``: of every
    ``w/T`` doubled, or with the two rows swapped.
    """
    weights = hawkent.model._weights
    mutated = {
        "doubled_ratio": lambda omega, temperature: weights(2.0 * omega, temperature),
        "swapped": lambda omega, temperature: weights(omega, temperature)[::-1],
    }[mutation]
    monkeypatch.setattr("hawkent.model._weights", mutated)


WEIGHT_MUTATIONS = pytest.mark.parametrize("mutation", ["doubled_ratio", "swapped"])


class TestCheckBuildsItsOwnAmplitudes:
    """Every spectral route reaches the thermal weights on a path of its own, so wrong weights fail it."""

    @WEIGHT_MUTATIONS
    def test_wrong_thermal_weights_fail_a_verified_sweep(self, monkeypatch, mutation):
        _mutate_weights(monkeypatch, mutation)
        spec = SweepSpec(vary="temperature", min=0.01, max=10.0, steps=200, scale="log",
                         alpha=1.0 / math.sqrt(2.0), omega=1.0)
        with pytest.raises(VerificationError, match="mismatch"):
            run_sweep(_config(spec))
        assert len(run_sweep(_config(spec, verify=False))) == 200

    @WEIGHT_MUTATIONS
    def test_wrong_thermal_weights_fail_the_single_point_cross_check(self, monkeypatch, mutation):
        # the public cross-check of demo 01 and the README: closed forms against
        # the measures of reduced_density, whose state never reads _weights
        _mutate_weights(monkeypatch, mutation)
        params = ModelParams(0.7, 1.0, 1.0)
        gaps = []
        for pair in ModePair:
            spectral = measure_set(reduced_density(params, pair))
            gaps += [
                abs(closed_form_concurrence(params, pair) - spectral.concurrence),
                abs(closed_form_eof(params, pair) - spectral.eof),
                abs(closed_form_mutual_information(params, pair) - spectral.mutual_information),
                abs(closed_form_min_pt_eigenvalue(params, pair) - spectral.min_pt_eigenvalue),
            ]
        assert max(gaps) > 1e-9

    def test_match_the_state_amplitudes(self):
        rng = np.random.default_rng(16)
        ratio = np.exp(rng.uniform(math.log(1e-300), math.log(1e4), 5000))
        points = [(a, 1.0, 1.0 / x) for a, x in zip(rng.uniform(0.0, 1.0, 5000).tolist(), ratio.tolist())]
        # w / (2T) overflows, T = 0, and T far above w
        points += [(0.5, 1.0, 5e-324), (0.5, 1e300, 1e-10), (0.7, 1.0, 0.0), (0.3, 1e-300, 1e300)]
        # 2T overflows
        points += [(0.5, 1e308, 1e308), (0.6, 1.0, sys.float_info.max)]
        got = _amplitudes(*np.array(points).T)
        want = np.array([_ref_amplitudes(*point) for point in points])
        # 2.25 eps was the largest gap measured on these points
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps

    def test_zero_temperature_gives_a_zero_angle_without_a_warning(self):
        points = [(0.6, 1.0, 0.0), (0.3, 1e300, 0.0), (0.9, 5e-324, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amplitudes = _amplitudes(*np.array(points).T)
            evaluate_point(0.6, 1.0, 0.0)
        for point, row in zip(points, amplitudes):
            alpha = point[0]
            assert row.tolist() == [alpha, 0.0, 0.0, 0.0, 0.0, 0.0, math.sqrt((1.0 - alpha) * (1.0 + alpha)), 0.0]
            assert row.tolist() == tripartite_state(ModelParams(*point)).tolist()

    def test_temperature_whose_double_overflows_verifies(self):
        # w = T: the check's weights must not take w / (2T) as w / inf = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = evaluate_point(0.5, 1e308, 1e308)
        assert row[3:] == evaluate_point(0.5, 1.0, 1.0, verify=False)[3:]
