"""Acceptance suite: one test per shipped claim, one verdict line each.

Every test prints ``PASS criterion N: ...`` (or the FAIL twin) straight
to the terminal so a plain pytest run shows the per-criterion outcome.
"""

import io
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hawkent.cli import figure_command
from hawkent.measures import (
    DensityMatrix,
    MeasureSet,
    binary_entropy,
    measure_set,
    measure_stack,
    von_neumann_entropy,
)
from hawkent.model import (
    ModelParams,
    ModePair,
    asymptotic_limits,
    closed_form_concurrence,
    closed_form_eof,
    closed_form_min_pt_eigenvalue,
    closed_form_mutual_information,
    pair_states,
    reduced_density,
    thermal_factors,
    tripartite_state,
)
from hawkent.sweep import (
    CSV_COLUMNS,
    RunConfig,
    SweepSpec,
    emit_csv,
    emit_json,
    evaluate_point,
    grid_values,
    run_sweep,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
ALPHAS = (0.3, INV_SQRT2, 0.9)

GRID_ALPHAS = np.linspace(0.1, 0.9, 20)
GRID_OMEGAS = np.linspace(0.5, 5.0, 20)
GRID_TEMPERATURES = np.linspace(0.01, 100.0, 20)

_PAIRS = (ModePair.A_I, ModePair.A_II, ModePair.I_II)


@contextmanager
def _verdict(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {label}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {label}")


@pytest.fixture(scope="module")
def grid():
    """Closed-form and spectral values over the full 20x20x20 grid.

    The 24000 pair states are built from the stacked amplitudes and
    measured in one ``measure_stack`` call, which also runs the density
    gate on every state.
    """
    start = time.perf_counter()
    grid_params = [
        ModelParams(float(alpha), float(omega), float(temperature))
        for alpha in GRID_ALPHAS
        for omega in GRID_OMEGAS
        for temperature in GRID_TEMPERATURES
    ]
    amplitudes = np.array([tripartite_state(params) for params in grid_params])
    states = np.stack([pair_states(amplitudes, pair) for pair in _PAIRS], axis=1)
    values = measure_stack(states.reshape(-1, 4, 4)).reshape(len(grid_params), len(_PAIRS), 4)
    points = []
    for params, point_states, point_values in zip(grid_params, states, values.tolist()):
        closed = {}
        spectral = {}
        pair_entropy = {}
        for pair, rho, measures in zip(_PAIRS, point_states, point_values):
            closed[pair] = (
                closed_form_concurrence(params, pair),
                closed_form_eof(params, pair),
                closed_form_mutual_information(params, pair),
                closed_form_min_pt_eigenvalue(params, pair),
            )
            spectral[pair] = MeasureSet(*measures)
            pair_entropy[pair] = von_neumann_entropy(DensityMatrix(rho, (2, 2)))
        points.append((params, closed, spectral, pair_entropy))
    elapsed = time.perf_counter() - start
    return points, elapsed


def test_criterion_1_zero_temperature_recovery(capsys):
    with _verdict(capsys, 1, "zero-temperature values recover the flat-space state"):
        for alpha in ALPHAS:
            for omega in (0.5, 1.0, 2.0):
                params = ModelParams(alpha, omega, 0.0)
                b = math.sqrt(1.0 - alpha * alpha)
                mi_cold = 2.0 * binary_entropy(alpha * alpha)
                assert abs(closed_form_concurrence(params, ModePair.A_I) - 2.0 * alpha * b) <= 1e-12
                assert closed_form_concurrence(params, ModePair.A_II) == 0.0
                assert closed_form_concurrence(params, ModePair.I_II) == 0.0
                assert abs(closed_form_mutual_information(params, ModePair.A_I) - mi_cold) <= 1e-12
                assert abs(closed_form_mutual_information(params, ModePair.A_II)) <= 1e-12
                assert abs(closed_form_mutual_information(params, ModePair.I_II)) <= 1e-12
                for pair in _PAIRS:
                    ms = measure_set(reduced_density(params, pair))
                    want_c = 2.0 * alpha * b if pair is ModePair.A_I else 0.0
                    want_mi = mi_cold if pair is ModePair.A_I else 0.0
                    assert abs(ms.concurrence - want_c) <= 1e-12
                    assert abs(ms.mutual_information - want_mi) <= 1e-12
        balanced = ModelParams(INV_SQRT2, 1.0, 0.0)
        assert abs(closed_form_concurrence(balanced, ModePair.A_I) - 1.0) <= 1e-12
        assert abs(closed_form_mutual_information(balanced, ModePair.A_I) - 2.0) <= 1e-12


def test_criterion_2_infinite_temperature_limits(capsys):
    with _verdict(capsys, 2, "infinite-temperature limits and the exact half ratio"):
        for alpha in ALPHAS:
            a2 = alpha * alpha
            report = asymptotic_limits(alpha)
            hot = report.infinite_temperature
            zero = report.zero_temperature
            c_hot = alpha * math.sqrt(2.0 * (1.0 - a2))
            assert abs(hot.c_a_i - c_hot) <= 1e-13
            assert abs(hot.c_a_ii - c_hot) <= 1e-13
            assert abs(hot.c_i_ii - a2) <= 1e-13
            assert abs(hot.mi_a_i - binary_entropy(a2)) <= 1e-13
            assert abs(hot.mi_a_ii - binary_entropy(a2)) <= 1e-13
            assert abs(hot.mi_i_ii - (2.0 * binary_entropy(a2 / 2.0) - binary_entropy(a2))) <= 1e-13

            # finite evaluation at T = 1e6 * omega approaches every limit
            params = ModelParams(alpha, 1.0, 1e6)
            assert abs(closed_form_concurrence(params, ModePair.A_I) - hot.c_a_i) <= 1e-6
            assert abs(closed_form_concurrence(params, ModePair.A_II) - hot.c_a_ii) <= 1e-6
            assert abs(closed_form_concurrence(params, ModePair.I_II) - hot.c_i_ii) <= 1e-6
            assert abs(closed_form_mutual_information(params, ModePair.A_I) - hot.mi_a_i) <= 1e-6
            assert abs(closed_form_mutual_information(params, ModePair.A_II) - hot.mi_a_ii) <= 1e-6
            assert abs(closed_form_mutual_information(params, ModePair.I_II) - hot.mi_i_ii) <= 1e-6

            # the spectral route pins the I_II plateau at alpha^2, and
            # rules out the halved value
            ms = measure_set(reduced_density(ModelParams(alpha, 1.0, 1e9), ModePair.I_II))
            assert abs(ms.concurrence - a2) <= 1e-8
            assert abs(ms.concurrence - a2 / 2.0) > a2 / 4.0

            assert report.accessible_mi_ratio == 0.5
            assert abs(hot.mi_a_i / zero.mi_a_i - 0.5) <= 1e-15


def test_criterion_3_closed_form_spectral_agreement(grid, capsys):
    with _verdict(capsys, 3, "closed forms match the spectral pipeline over the full grid"):
        points, elapsed = grid
        assert len(points) == 20 * 20 * 20
        worst = 0.0
        for _, closed, spectral, _ in points:
            for pair in _PAIRS:
                c, eof, mi, min_pt = closed[pair]
                ms = spectral[pair]
                worst = max(
                    worst,
                    abs(c - ms.concurrence),
                    abs(eof - ms.eof),
                    abs(mi - ms.mutual_information),
                    abs(min_pt - ms.min_pt_eigenvalue),
                )
        assert worst <= 1e-9
        assert elapsed < 10.0


def test_criterion_4_conservation_identities(grid, capsys):
    with _verdict(capsys, 4, "conservation identities hold at every grid point"):
        points, _ = grid
        for params, _, spectral, pair_entropy in points:
            a2 = params.alpha**2
            f = thermal_factors(params.omega, params.temperature)
            c_ai = spectral[ModePair.A_I].concurrence
            c_aii = spectral[ModePair.A_II].concurrence
            assert abs(c_ai**2 + c_aii**2 - 4.0 * a2 * (1.0 - a2)) <= 1e-10
            mi_sum = (
                spectral[ModePair.A_I].mutual_information
                + spectral[ModePair.A_II].mutual_information
            )
            assert abs(mi_sum - 2.0 * binary_entropy(a2)) <= 1e-9
            # each pair reduction carries the entropy of the left-out mode
            assert abs(pair_entropy[ModePair.I_II] - binary_entropy(a2)) <= 1e-10
            assert abs(pair_entropy[ModePair.A_II] - binary_entropy(a2 * f.f_minus**2)) <= 1e-10
            assert abs(pair_entropy[ModePair.A_I] - binary_entropy(a2 * f.f_plus**2)) <= 1e-10


def test_criterion_5_temperature_monotonicity(capsys):
    with _verdict(capsys, 5, "temperature trends are strictly monotone"):
        # the window omega/30 .. 30*omega keeps adjacent differences
        # above double-precision resolution at both tails
        for alpha, omega in ((INV_SQRT2, 1.0), (0.3, 0.5), (0.9, 2.0)):
            temps = np.geomspace(omega / 30.0, 30.0 * omega, 200)
            columns = {key: [] for key in ("c_ai", "c_aii", "c_iii", "mi_ai", "mi_aii", "mi_iii")}
            for temperature in temps:
                params = ModelParams(alpha, omega, float(temperature))
                columns["c_ai"].append(closed_form_concurrence(params, ModePair.A_I))
                columns["c_aii"].append(closed_form_concurrence(params, ModePair.A_II))
                columns["c_iii"].append(closed_form_concurrence(params, ModePair.I_II))
                columns["mi_ai"].append(closed_form_mutual_information(params, ModePair.A_I))
                columns["mi_aii"].append(closed_form_mutual_information(params, ModePair.A_II))
                columns["mi_iii"].append(closed_form_mutual_information(params, ModePair.I_II))
            for key in ("c_ai", "mi_ai"):
                assert (np.diff(columns[key]) < 0).all(), (key, alpha, omega)
            for key in ("c_aii", "c_iii", "mi_aii", "mi_iii"):
                assert (np.diff(columns[key]) > 0).all(), (key, alpha, omega)


def test_criterion_6_peres_consistency(grid, capsys):
    with _verdict(capsys, 6, "negativity and concurrence agree on entanglement"):
        points, _ = grid
        for _, closed, _, _ in points:
            for pair in _PAIRS:
                c, _, _, min_pt = closed[pair]
                assert (min_pt < -1e-8) == (c > 1e-8), pair
        # at T = 0 the A_II and I_II cuts sit exactly on the boundary
        for alpha in ALPHAS:
            params = ModelParams(alpha, 1.0, 0.0)
            for pair in (ModePair.A_II, ModePair.I_II):
                assert abs(closed_form_min_pt_eigenvalue(params, pair)) <= 1e-12
                ms = measure_set(reduced_density(params, pair))
                assert abs(ms.min_pt_eigenvalue) <= 1e-12


def test_criterion_7_spot_values(capsys):
    """Spot row at alpha^2 = 0.5, omega = 1, T = 1, frozen from the spectral route."""
    frozen = {
        "c_a_i": 0.855019636400244,
        "c_a_ii": 0.518595624133096,
        "c_i_ii": 0.443409441985037,
        "eof_a_i": 0.796206044685929,
        "mi_a_i": 1.37760453660271,
        "mi_a_ii": 0.622395463397292,
        "mi_i_ii": 0.516750275591282,
        "min_pt_a_i": -0.365529289315002,
    }
    with _verdict(capsys, 7, "spot values at alpha^2 = 0.5, omega = T = 1"):
        row = evaluate_point(math.sqrt(0.5), 1.0, 1.0, verify=True)
        for name, want in frozen.items():
            assert abs(getattr(row, name) - want) <= 1e-12, name
            assert abs(getattr(row, name) - want) <= 1e-4, name
        spot = ModelParams(math.sqrt(0.5), 1.0, 1.0)
        spectral = {pair: measure_set(reduced_density(spot, pair)) for pair in _PAIRS}
        assert abs(spectral[ModePair.A_I].concurrence - frozen["c_a_i"]) <= 1e-12
        assert abs(spectral[ModePair.I_II].concurrence - frozen["c_i_ii"]) <= 1e-12
        assert abs(spectral[ModePair.A_I].eof - frozen["eof_a_i"]) <= 1e-12
        assert abs(spectral[ModePair.A_II].mutual_information - frozen["mi_a_ii"]) <= 1e-12
        assert abs(spectral[ModePair.A_I].min_pt_eigenvalue - frozen["min_pt_a_i"]) <= 1e-12


def test_criterion_8_variant_rejection(grid, capsys):
    """Plausible near-miss variants of the closed forms are inconsistent.

    A "+2" in the thermal weight denominators breaks normalization; the
    A_I mutual-information combination assigned to the I_II pair fails
    to vanish at T = 0; flipping the sign (and dropping the 4) in the
    I_II smallest PT eigenvalue makes it non-negative.
    """
    with _verdict(capsys, 8, "near-miss variant formulas are rejected"):
        alpha, omega, temperature = INV_SQRT2, 1.0, 1.0
        b = math.sqrt(1.0 - alpha * alpha)

        x = omega / temperature
        bad_minus = (math.exp(-x) + 2.0) ** -0.5
        bad_plus = (math.exp(x) + 2.0) ** -0.5
        bad_amp = np.zeros(8)
        bad_amp[0] = alpha * bad_minus
        bad_amp[3] = alpha * bad_plus
        bad_amp[6] = b
        bad_norm2 = float(np.dot(bad_amp, bad_amp))
        assert abs(bad_norm2 - 1.0) > 0.15
        amp = tripartite_state(ModelParams(alpha, omega, temperature))
        assert abs(np.dot(amp, amp) - 1.0) <= 1e-14

        for a in ALPHAS:
            cold = ModelParams(a, 1.0, 0.0)
            f = thermal_factors(cold.omega, cold.temperature)
            a2 = a * a
            misassigned = (
                binary_entropy(a2)
                + binary_entropy(a2 * f.f_minus**2)
                - binary_entropy(a2 * f.f_plus**2)
            )
            assert misassigned > 0.8
            assert abs(closed_form_mutual_information(cold, ModePair.I_II)) <= 1e-12

        def flipped_lambda(params):
            f = thermal_factors(params.omega, params.temperature)
            b2 = 1.0 - params.alpha**2
            shift = params.alpha**4 * f.f_minus**2 * f.f_plus**2
            return 0.5 * (math.sqrt(b2 * b2 + shift) - b2)

        points, _ = grid
        for params, closed, _, _ in points:
            assert closed[ModePair.I_II][3] <= 1e-15
            assert flipped_lambda(params) >= 0.0
        assert flipped_lambda(ModelParams(alpha, omega, temperature)) > 0.02


def test_criterion_9_figure_reproducibility(capsys):
    with _verdict(capsys, 9, "figure output is reproducible and formats agree"):
        for which in (1, 2, 3):
            first = figure_command(which)
            second = figure_command(which)
            assert first == second
            assert len(first.splitlines()) == 201

        spec = SweepSpec(
            vary="temperature",
            min=0.01,
            max=10.0,
            steps=200,
            scale="log",
            alpha=INV_SQRT2,
            omega=1.0,
        )
        config = RunConfig(sweep=spec)
        whole = io.StringIO()
        one_by_one = io.StringIO()
        emit_csv(run_sweep(config), whole)
        emit_csv([evaluate_point(INV_SQRT2, 1.0, float(t)) for t in grid_values(spec)], one_by_one)
        assert whole.getvalue() == one_by_one.getvalue()

        rows = run_sweep(config)
        csv_out = io.StringIO()
        json_out = io.StringIO()
        emit_csv(rows, csv_out)
        emit_json(rows, json_out, config)
        payload = json.loads(json_out.getvalue())
        csv_lines = csv_out.getvalue().splitlines()[1:]
        assert len(csv_lines) == len(payload["rows"]) == 200
        for line, entry in zip(csv_lines, payload["rows"]):
            for cell, column in zip(line.split(","), CSV_COLUMNS):
                assert abs(float(cell) - entry[column]) <= 1e-12
