"""Tests for the three-mode horizon state and its closed-form measures."""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest

import hawkent.model
from hawkent.measures import (
    TRACE_ATOL,
    _binary_entropies,
    binary_entropy,
    measure_set,
    mutual_information,
    one_to_rest_tangle,
    validate_density,
    von_neumann_entropy,
)
from hawkent.model import (
    _amplitudes,
    _closed_table,
    LimitReport,
    ModelParams,
    ModePair,
    asymptotic_limits,
    check_params,
    closed_form_concurrence,
    closed_form_eof,
    closed_form_min_pt_eigenvalue,
    closed_form_mutual_information,
    closed_forms,
    hawking_temperature,
    reduced_density,
    thermal_factors,
    tripartite_state,
)
from hawkent.sweep import RunConfig, SweepSpec, evaluate_point, run_sweep

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SPOT = ModelParams(alpha=INV_SQRT2, omega=1.0, temperature=1.0)

# frozen values at the spot point alpha = 1/sqrt(2), omega = T = 1
F_MINUS = 0.855019636400244
F_PLUS = 0.518595624133096
SPOT_CONCURRENCE = {
    ModePair.A_I: 0.855019636400244,
    ModePair.A_II: 0.518595624133096,
    ModePair.I_II: 0.443409441985037,
}
SPOT_EOF = {
    ModePair.A_I: 0.796206044685929,
    ModePair.A_II: 0.375148550365908,
    ModePair.I_II: 0.294164041594514,
}
SPOT_MI = {
    ModePair.A_I: 1.37760453660271,
    ModePair.A_II: 0.622395463397292,
    ModePair.I_II: 0.516750275591282,
}
SPOT_MIN_PT = {
    ModePair.A_I: -0.365529289315002,
    ModePair.A_II: -0.134470710684998,
    ModePair.I_II: -0.0841451530553308,
}


def _grid_params():
    for alpha in (0.3, INV_SQRT2, 0.9):
        for omega in (0.5, 2.0):
            for temperature in (0.0, 0.5, 5.0, 100.0):
                yield ModelParams(alpha, omega, temperature)


class TestHawkingTemperature:
    def test_unit_mass(self):
        assert math.isclose(hawking_temperature(1.0), 1.0 / (8.0 * math.pi), rel_tol=1e-15)

    def test_inverse_point(self):
        assert math.isclose(hawking_temperature(1.0 / (8.0 * math.pi)), 1.0, rel_tol=1e-15)

    def test_heavier_is_colder(self):
        assert hawking_temperature(1e3) > hawking_temperature(1e6)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_mass(self, mass):
        with pytest.raises(ValueError, match="mass"):
            hawking_temperature(mass)

    def test_overflowing_temperature_names_the_mass(self):
        with pytest.raises(ValueError, match="mass 1e-320 is too small"):
            hawking_temperature(1e-320)

    def test_tiny_mass_with_finite_temperature(self):
        assert hawking_temperature(1e-300) == 1.0 / (8.0 * math.pi * 1e-300)

    @pytest.mark.parametrize("mass", [1e300, 1e307, 1e308, 1.7e308])
    def test_huge_mass_keeps_a_nonzero_temperature(self, mass):
        temperature = hawking_temperature(mass)
        assert temperature > 0.0
        # the product T M does not overflow; below 2.2e-308 T is subnormal,
        # with about 45 bits left at 1.7e308
        assert math.isclose(temperature * mass, 1.0 / (8.0 * math.pi), rel_tol=1e-13)
        if not math.isfinite(8.0 * math.pi * mass):
            assert temperature == 1.0 / (8.0 * math.pi) / mass

    def test_ordinary_masses_keep_their_bits(self):
        masses = np.exp(np.random.default_rng(16).uniform(math.log(1e-3), math.log(1e3), 2000))
        for mass in masses.tolist():
            assert hawking_temperature(mass) == 1.0 / (8.0 * math.pi * mass)

    def test_int_mass_beyond_the_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            hawking_temperature(10**400)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_numpy_mass_is_computed_in_float64(self, dtype):
        for mass in np.array([0.1, 0.5, 2.0, 3.0, 1e4], dtype):
            temperature = hawking_temperature(mass)
            assert type(temperature) is float
            assert temperature == hawking_temperature(float(mass))

    def test_huge_float32_mass_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            temperature = hawking_temperature(np.float32(1e38))
        assert 0.0 < temperature < math.inf
        assert temperature == hawking_temperature(float(np.float32(1e38)))


class TestThermalFactors:
    def test_zero_temperature_is_exact(self):
        f = thermal_factors(1.0, 0.0)
        assert f.f_minus == 1.0
        assert f.f_plus == 0.0

    def test_spot_values(self):
        f = thermal_factors(1.0, 1.0)
        assert abs(f.f_minus - F_MINUS) <= 1e-14
        assert abs(f.f_plus - F_PLUS) <= 1e-14

    def test_hot_limit_equalises(self):
        f = thermal_factors(1.0, 1e9)
        assert abs(f.f_minus - INV_SQRT2) <= 1e-8
        assert abs(f.f_plus - INV_SQRT2) <= 1e-8

    def test_extreme_ratio_underflows_gracefully(self):
        f = thermal_factors(500.0, 1.0)
        assert f.f_minus == 1.0
        assert 0.0 < f.f_plus < 1e-100

    def test_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            omega = rng.uniform(0.05, 20.0)
            temperature = rng.uniform(0.001, 500.0)
            f = thermal_factors(omega, temperature)
            assert abs(f.f_minus**2 + f.f_plus**2 - 1.0) <= 1e-14
            assert INV_SQRT2 < f.f_minus <= 1.0
            assert 0.0 <= f.f_plus < INV_SQRT2

    @pytest.mark.parametrize("omega,temperature", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_bad_inputs(self, omega, temperature):
        with pytest.raises(ValueError):
            thermal_factors(omega, temperature)

    def test_column_weights_match_the_scalar_formula_bit_for_bit(self):
        # 10000 seeded points at w/T log-uniform in [1e-6, 800], then T = 0,
        # T = 5e-324, T = max float, and w/T that overflows or underflows
        rng = np.random.default_rng(29)
        omega = np.exp(rng.uniform(-30.0, 30.0, 10000))
        temperature = omega / np.exp(rng.uniform(math.log(1e-6), math.log(800.0), 10000))
        big = sys.float_info.max
        extremes = [
            (1.0, 0.0), (big, 0.0), (1e-300, 5e-324), (1.0, 5e-324), (1.0, big),
            (big, big), (5e-324, big), (big, 1e-300), (big, 1.0),
        ]
        omega = np.concatenate((omega, [w for w, _ in extremes]))
        temperature = np.concatenate((temperature, [t for _, t in extremes]))
        # the division by T = 0 and the overflowing w/T must not reach the caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="raise", over="raise"):
                got = hawkent.model._weights(omega, temperature)
        want = [_ref_weights(w, t) for w, t in zip(omega.tolist(), temperature.tolist())]
        assert got.shape == (2, len(omega))
        assert np.array_equal(_bits(got.T), _bits(want))
        assert got[:, -9:-7].tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_thermal_factors_is_one_row_of_the_column_helper(self):
        omega, temperature = np.array([0.3, 1.0, 2.0]), np.array([1.0, 0.0, 1e-3])
        columns = hawkent.model._weights(omega, temperature)
        for k in range(3):
            f = thermal_factors(omega[k], temperature[k])
            assert (f.f_minus, f.f_plus) == tuple(columns[:, k].tolist())
            assert type(f.f_minus) is float and type(f.f_plus) is float


class TestTripartiteState:
    def test_spot_amplitudes(self):
        amp = tripartite_state(SPOT)
        assert abs(amp[0] - 0.604590182946269) <= 1e-14
        assert abs(amp[3] - 0.366702482518182) <= 1e-14
        assert abs(amp[6] - 0.707106781186548) <= 1e-14

    def test_support_is_three_basis_states(self):
        amp = tripartite_state(ModelParams(0.4, 2.0, 3.0))
        assert set(np.nonzero(amp)[0]) == {0, 3, 6}

    def test_zero_temperature_form(self):
        amp = tripartite_state(ModelParams(0.3, 1.0, 0.0))
        assert amp[0] == 0.3
        assert amp[3] == 0.0
        assert abs(amp[6] - math.sqrt(0.91)) <= 1e-15

    def test_normalized_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = ModelParams(
                alpha=rng.uniform(0.02, 0.98),
                omega=rng.uniform(0.05, 20.0),
                temperature=rng.uniform(0.0, 200.0),
            )
            amp = tripartite_state(params)
            assert abs(np.dot(amp, amp) - 1.0) <= 1e-14


class TestReducedDensity:
    def test_spot_exterior_pair(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.365529289315002
        expected[1, 1] = 0.134470710684998
        expected[3, 3] = 0.5
        expected[0, 3] = expected[3, 0] = 0.427509818200122
        rho = reduced_density(SPOT, ModePair.A_I)
        assert np.abs(rho.matrix - expected).max() <= 1e-12

    def test_spot_interior_pair(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.365529289315002
        expected[1, 1] = 0.134470710684998
        expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = 0.259297812066548
        rho = reduced_density(SPOT, ModePair.A_II)
        assert np.abs(rho.matrix - expected).max() <= 1e-12

    def test_spot_horizon_pair(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.365529289315002
        expected[2, 2] = 0.5
        expected[3, 3] = 0.134470710684998
        expected[0, 3] = expected[3, 0] = 0.221704720992519
        rho = reduced_density(SPOT, ModePair.I_II)
        assert np.abs(rho.matrix - expected).max() <= 1e-12

    @pytest.mark.parametrize("alpha,omega,temperature", [(0.6, 1.3, 0.7), (0.25, 4.0, 12.0)])
    def test_generic_point_against_formulas(self, alpha, omega, temperature):
        params = ModelParams(alpha, omega, temperature)
        f = thermal_factors(omega, temperature)
        a2 = alpha * alpha
        b = math.sqrt(1.0 - a2)

        ai = np.zeros((4, 4))
        ai[0, 0] = a2 * f.f_minus**2
        ai[1, 1] = a2 * f.f_plus**2
        ai[3, 3] = 1.0 - a2
        ai[0, 3] = ai[3, 0] = alpha * f.f_minus * b
        assert np.abs(reduced_density(params, ModePair.A_I).matrix - ai).max() <= 1e-14

        aii = np.zeros((4, 4))
        aii[0, 0] = a2 * f.f_minus**2
        aii[1, 1] = a2 * f.f_plus**2
        aii[2, 2] = 1.0 - a2
        aii[1, 2] = aii[2, 1] = alpha * f.f_plus * b
        assert np.abs(reduced_density(params, ModePair.A_II).matrix - aii).max() <= 1e-14

        iii = np.zeros((4, 4))
        iii[0, 0] = a2 * f.f_minus**2
        iii[2, 2] = 1.0 - a2
        iii[3, 3] = a2 * f.f_plus**2
        iii[0, 3] = iii[3, 0] = a2 * f.f_minus * f.f_plus
        assert np.abs(reduced_density(params, ModePair.I_II).matrix - iii).max() <= 1e-14

    def test_zero_temperature_exterior_pair_is_pure(self):
        params = ModelParams(0.55, 1.0, 0.0)
        rho = reduced_density(params, ModePair.A_I)
        assert von_neumann_entropy(rho) <= 1e-12

    def test_zero_temperature_interior_pair_is_diagonal(self):
        params = ModelParams(0.55, 1.0, 0.0)
        rho = reduced_density(params, ModePair.A_II)
        expected = np.diag([0.55**2, 0.0, 1.0 - 0.55**2, 0.0])
        assert np.abs(rho.matrix - expected).max() <= 1e-15


class TestClosedFormsAgainstSpectralRoute:
    @pytest.mark.parametrize("pair", list(ModePair))
    def test_all_measures_on_grid(self, pair):
        for params in _grid_params():
            ms = measure_set(reduced_density(params, pair))
            assert abs(closed_form_concurrence(params, pair) - ms.concurrence) <= 1e-10
            assert abs(closed_form_eof(params, pair) - ms.eof) <= 1e-10
            assert abs(closed_form_mutual_information(params, pair) - ms.mutual_information) <= 1e-10
            assert abs(closed_form_min_pt_eigenvalue(params, pair) - ms.min_pt_eigenvalue) <= 1e-10

    def test_spot_values(self):
        for pair in ModePair:
            assert abs(closed_form_concurrence(SPOT, pair) - SPOT_CONCURRENCE[pair]) <= 1e-14
            assert abs(closed_form_eof(SPOT, pair) - SPOT_EOF[pair]) <= 1e-14
            assert abs(closed_form_mutual_information(SPOT, pair) - SPOT_MI[pair]) <= 1e-14
            assert abs(closed_form_min_pt_eigenvalue(SPOT, pair) - SPOT_MIN_PT[pair]) <= 1e-14

    def test_closed_forms_follow_the_csv_order(self):
        values = closed_forms(SPOT.alpha, SPOT.omega, SPOT.temperature)
        tables = (SPOT_CONCURRENCE, SPOT_EOF, SPOT_MI, SPOT_MIN_PT)
        frozen = [table[pair] for table in tables for pair in ModePair]
        assert len(values) == 12
        for got, want in zip(values, frozen):
            assert abs(got - want) <= 1e-14


# The closed forms as scalar formulas, one point at a time, in the table's
# order of operations: the EoF from its small probability
# C^2 / (2 (1 + sqrt(1 - C^2))), and the binary entropy's second term through
# log1p.  The table must reproduce them bit for bit, sign of zero included.
def _ref_weights(omega, temperature):
    if temperature == 0.0:
        return 1.0, 0.0
    x = omega / temperature
    denom = math.sqrt(1.0 + math.exp(-x))
    return 1.0 / denom, math.exp(-x / 2.0) / denom


def _ref_binary_entropy(p):
    if -TRACE_ATOL <= p < 0.0:
        p = 0.0
    elif 1.0 < p <= 1.0 + TRACE_ATOL:
        p = 1.0
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    out = 0.0
    if p > 0.0:
        out -= p * math.log2(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log1p(-p) / math.log(2.0)
    return out


def _ref_row(alpha, omega, temperature):
    f_minus, f_plus = _ref_weights(omega, temperature)
    a2 = alpha * alpha
    b2 = (1.0 - alpha) * (1.0 + alpha)
    pure = 2.0 * alpha * math.sqrt(b2)
    c = (pure * f_minus, pure * f_plus, 2.0 * alpha * alpha * f_minus * f_plus)
    eof = [_ref_binary_entropy(x * x / (2.0 * (1.0 + math.sqrt(max(0.0, 1.0 - x * x))))) for x in c]
    fm2 = f_minus * f_minus
    fp2 = f_plus * f_plus
    s_a = _ref_binary_entropy(a2)
    s_i = _ref_binary_entropy(a2 * fm2)
    s_ii = _ref_binary_entropy(a2 * fp2)
    # each partial transpose's population d, and its block's squared coherence C^2
    blocks = ((a2 * fp2, c[0] * c[0]), (a2 * fm2, c[1] * c[1]), (b2, c[2] * c[2]))
    return (
        alpha,
        omega,
        temperature,
        *c,
        *eof,
        s_a + s_i - s_ii,
        s_a + s_ii - s_i,
        s_i + s_ii - s_a,
        *(_ref_min_pt(d, cc, x) for (d, cc), x in zip(blocks, c)),
    )


def _ref_min_pt(d, cc, c):
    """Lower eigenvalue of ``[[d, c/2], [c/2, 0]]``, scaled by ``c`` where ``c*c`` is not normal."""
    if cc >= sys.float_info.min:
        return -0.5 * cc / (d + math.sqrt(d * d + cc))
    if c == 0.0:
        return 0.0
    t = d / c
    # past the overflow of t*t, t + sqrt(t*t + 1) is the 2t it rounds to
    half = t + math.sqrt(t * t + 1.0) if t * t < math.inf else 2.0 * t
    return -c / (2.0 * half)


def _ref_amplitudes(alpha, omega, temperature):
    f_minus, f_plus = _ref_weights(omega, temperature)
    amp = [0.0] * 8
    amp[0], amp[3], amp[6] = alpha * f_minus, alpha * f_plus, math.sqrt((1.0 - alpha) * (1.0 + alpha))
    return amp


def _table_points():
    rng = np.random.default_rng(20261018)
    alphas = [1e-300, 1e-160, 1e-8, 0.5, INV_SQRT2, 1.0 - 1e-16]
    alphas += rng.uniform(0.0, 1.0, 12).tolist() + np.exp(rng.uniform(-690.0, 0.0, 6)).tolist()
    omegas = [1e-300, 1.0, 1e300, *np.exp(rng.uniform(-40.0, 690.0, 5)).tolist()]
    temperatures = [0.0, 5e-324, 1e300, sys.float_info.max]
    temperatures += np.exp(rng.uniform(-40.0, 690.0, 8)).tolist()
    points = [(a, w, t) for a in alphas for w in omegas for t in temperatures if 0.0 < a < 1.0]
    # and w/T over the range where both weights are resolved; libm's pow(a, 2)
    # differs from a * a on about 1 in 1000 draws, so enough of them to catch it
    alpha = rng.uniform(0.0, 1.0, 10000).tolist()
    ratio = np.exp(rng.uniform(np.log(1e-3), np.log(700.0), 10000)).tolist()
    return points + [(a, 1.0, 1.0 / x) for a, x in zip(alpha, ratio)]


TABLE_POINTS = _table_points()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _state_amplitudes(points):
    """The state builder's amplitudes at many points, as one batch."""
    return _amplitudes(*np.array(points, float).reshape(-1, 3).T)


class TestClosedTable:
    def test_rows_match_the_scalar_formulas_bit_for_bit(self):
        table = _closed_table(TABLE_POINTS)
        reference = [_ref_row(*point) for point in TABLE_POINTS]
        assert table.shape == (len(TABLE_POINTS), 15)
        assert np.array_equal(_bits(table), _bits(reference))

    def test_amplitudes_match_the_scalar_formulas(self):
        # the builder takes the weights from the Bogoliubov angle, not from libm's
        # scalar formulas; 1 eps was the largest gap measured on these points
        amplitudes = _state_amplitudes(TABLE_POINTS)
        reference = [_ref_amplitudes(*point) for point in TABLE_POINTS]
        assert np.abs(amplitudes - reference).max() <= 8 * np.finfo(float).eps
        for k in (0, 7, 4000):
            state = tripartite_state(ModelParams(*TABLE_POINTS[k]))
            assert np.array_equal(_bits(state), _bits(amplitudes[k]))

    def test_closed_forms_is_the_one_row_view(self):
        for point in TABLE_POINTS[::37]:
            assert np.array_equal(_bits(closed_forms(*point)), _bits(_ref_row(*point)[3:]))

    @pytest.mark.parametrize("size", [2, 200])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_a_point_has_the_same_row_alone_and_in_a_batch(self, size, position):
        point = (0.62333, 80.596, 4.7067)
        others = TABLE_POINTS[:: len(TABLE_POINTS) // size][: size - 1]
        k = {"first": 0, "middle": size // 2, "last": size - 1}[position]
        batch = [*others[:k], point, *others[k:]]
        alone_table, alone_amplitudes = _closed_table([point]), _state_amplitudes([point])
        table, amplitudes = _closed_table(batch), _state_amplitudes(batch)
        assert len(batch) == size
        assert np.array_equal(_bits(table[k]), _bits(alone_table[0]))
        assert np.array_equal(_bits(amplitudes[k]), _bits(alone_amplitudes[0]))

    def test_verified_sweep_takes_the_weights_once_per_point(self, monkeypatch):
        # one call of the column helper covers every point of the sweep
        calls = []
        weights = hawkent.model._weights

        def counted(omega, temperature):
            calls.append(len(temperature))
            return weights(omega, temperature)

        monkeypatch.setattr("hawkent.model._weights", counted)
        spec = SweepSpec(
            vary="temperature", min=0.01, max=10.0, steps=40, scale="log", alpha=0.6, omega=1.0
        )
        rows = run_sweep(RunConfig(sweep=spec, verify=True))
        assert len(rows) == 40
        assert calls == [40]

    def test_binary_entropy_is_one_cell_of_the_kernel(self):
        # the scalar function, the table's kernel and the scalar loop it
        # replaced agree bit for bit, sign of zero included
        rng = np.random.default_rng(15)
        ps = [0.0, 1.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, *rng.random(2000).tolist()]
        cells = _binary_entropies(np.array([ps]))[0]
        assert np.array_equal(_bits([binary_entropy(p) for p in ps]), _bits(cells))
        assert np.array_equal(_bits([_ref_binary_entropy(p) for p in ps]), _bits(cells))
        # rounding dust below 0 and above 1 takes the cells of 0 and 1
        for dust in (-1e-13, -TRACE_ATOL):
            assert _bits(binary_entropy(dust)) == _bits(cells[0])
        for dust in (1.0 + 1e-13, 1.0 + TRACE_ATOL):
            assert _bits(binary_entropy(dust)) == _bits(cells[1])


class TestStructuralIdentities:
    def test_monogamy_centered_on_inertial_mode(self):
        # C(A,I)^2 + C(A,II)^2 saturates the one-to-rest tangle of A,
        # which is temperature independent
        for params in _grid_params():
            c_ai = closed_form_concurrence(params, ModePair.A_I)
            c_aii = closed_form_concurrence(params, ModePair.A_II)
            tangle = 4.0 * params.alpha**2 * (1.0 - params.alpha**2)
            assert abs(c_ai**2 + c_aii**2 - tangle) <= 1e-12

    def test_monogamy_centered_on_exterior_mode(self):
        # C(I,A)^2 + C(I,II)^2 saturates the tangle of the exterior
        # mode marginal; this pins the factor of two in the I_II form
        for params in _grid_params():
            f = thermal_factors(params.omega, params.temperature)
            marginal = np.diag(
                [
                    params.alpha**2 * f.f_minus**2,
                    1.0 - params.alpha**2 * f.f_minus**2,
                ]
            )
            c_ai = closed_form_concurrence(params, ModePair.A_I)
            c_iii = closed_form_concurrence(params, ModePair.I_II)
            assert abs(c_ai**2 + c_iii**2 - one_to_rest_tangle(marginal)) <= 1e-12

    def test_mutual_information_conservation(self):
        # I(A,I) + I(A,II) = 2 H2(alpha^2) at every temperature
        for params in _grid_params():
            total = closed_form_mutual_information(
                params, ModePair.A_I
            ) + closed_form_mutual_information(params, ModePair.A_II)
            from hawkent.measures import binary_entropy

            assert abs(total - 2.0 * binary_entropy(params.alpha**2)) <= 1e-12

    def test_pair_entropy_equals_third_mode_entropy(self):
        # the global state is pure, so each pair reduction shares its
        # spectrum with the traced-out mode
        from hawkent.measures import binary_entropy

        for params in _grid_params():
            f = thermal_factors(params.omega, params.temperature)
            a2 = params.alpha**2
            thirds = {
                ModePair.A_I: binary_entropy(a2 * f.f_plus**2),
                ModePair.A_II: binary_entropy(a2 * f.f_minus**2),
                ModePair.I_II: binary_entropy(a2),
            }
            for pair, expected in thirds.items():
                s = von_neumann_entropy(reduced_density(params, pair))
                assert abs(s - expected) <= 1e-10

    @pytest.mark.parametrize("k", [2.0, 10.0])
    def test_frequency_temperature_scaling(self, k):
        # only omega / T enters: scaling both leaves every measure fixed
        base = ModelParams(0.45, 1.7, 0.9)
        scaled = ModelParams(0.45, 1.7 * k, 0.9 * k)
        for pair in ModePair:
            assert (
                abs(
                    closed_form_concurrence(base, pair)
                    - closed_form_concurrence(scaled, pair)
                )
                <= 1e-12
            )
            assert (
                abs(
                    closed_form_mutual_information(base, pair)
                    - closed_form_mutual_information(scaled, pair)
                )
                <= 1e-12
            )


class TestAsymptoticLimits:
    EXPECTED = {
        0.3: {
            "c0": 0.572363520850167,
            "c_hot": 0.404722126896961,
            "c_hot_i_ii": 0.09,
            "mi0": 0.872939634128206,
            "mi_hot": 0.436469817064103,
            "mi_hot_i_ii": 0.0930602508072585,
        },
        INV_SQRT2: {
            "c0": 1.0,
            "c_hot": 0.707106781186547,
            "c_hot_i_ii": 0.5,
            "mi0": 2.0,
            "mi_hot": 1.0,
            "mi_hot_i_ii": 0.622556248918266,
        },
        0.9: {
            "c0": 0.784601809837321,
            "c_hot": 0.554797260267208,
            "c_hot_i_ii": 0.81,
            "mi0": 1.40294291976779,
            "mi_hot": 0.701471459883897,
            "mi_hot_i_ii": 1.24612927899255,
        },
    }

    @pytest.mark.parametrize("alpha", sorted(EXPECTED))
    def test_frozen_tables(self, alpha):
        want = self.EXPECTED[alpha]
        report = asymptotic_limits(alpha)
        assert isinstance(report, LimitReport)
        assert report.alpha == alpha
        zero, hot = report.zero_temperature, report.infinite_temperature
        assert abs(zero.c_a_i - want["c0"]) <= 1e-13
        assert zero.c_a_ii == 0.0
        assert zero.c_i_ii == 0.0
        assert abs(zero.mi_a_i - want["mi0"]) <= 1e-13
        assert zero.mi_a_ii == 0.0
        assert zero.mi_i_ii == 0.0
        assert abs(hot.c_a_i - want["c_hot"]) <= 1e-13
        assert abs(hot.c_a_ii - want["c_hot"]) <= 1e-13
        assert abs(hot.c_i_ii - want["c_hot_i_ii"]) <= 1e-13
        assert abs(hot.mi_a_i - want["mi_hot"]) <= 1e-13
        assert abs(hot.mi_a_ii - want["mi_hot"]) <= 1e-13
        assert abs(hot.mi_i_ii - want["mi_hot_i_ii"]) <= 1e-13

    # 1e-161 squares to a subnormal, the smallest alphas whose square is nonzero
    @pytest.mark.parametrize("alpha", [0.3, INV_SQRT2, 0.9, 1e-161, 1.0 - 1e-16])
    def test_accessible_mi_ratio_is_exactly_half(self, alpha):
        report = asymptotic_limits(alpha)
        assert report.accessible_mi_ratio == 0.5
        assert abs(report.infinite_temperature.mi_a_i - 0.5 * report.zero_temperature.mi_a_i) <= 1e-13

    @pytest.mark.parametrize("alpha", [1e-200, 1e-300])
    def test_accessible_mi_ratio_is_nan_where_alpha_squared_underflows(self, alpha):
        # the ratio is taken from the two values it names, and 0/0 has no value
        report = asymptotic_limits(alpha)
        assert report.zero_temperature.mi_a_i == report.infinite_temperature.mi_a_i == 0.0
        assert math.isnan(report.accessible_mi_ratio)

    def test_zero_limit_matches_closed_forms_at_zero(self):
        for alpha in (0.3, INV_SQRT2, 0.9):
            params = ModelParams(alpha, 1.0, 0.0)
            zero = asymptotic_limits(alpha).zero_temperature
            assert closed_form_concurrence(params, ModePair.A_I) == zero.c_a_i
            assert closed_form_concurrence(params, ModePair.A_II) == 0.0
            assert closed_form_concurrence(params, ModePair.I_II) == 0.0
            assert closed_form_mutual_information(params, ModePair.A_I) == zero.mi_a_i

    @pytest.mark.parametrize("omega", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize(
        "alpha",
        [
            *(1e-300, 1e-160, 1e-8, 0.3, INV_SQRT2, 0.9, 1.0 - 1e-16),
            # six of np.random.default_rng(26).uniform(0, 1, 10000) where libm's
            # pow(a, 2) and a * a differ, which moves MI_A_I's last bit
            *(0.4837490035323304, 0.3736473737306093, 0.8021428213107062),
            *(0.9566895805015911, 0.03448478963588797, 0.10047040362320747),
        ],
    )
    def test_zero_limit_is_the_closed_forms_row_at_zero(self, alpha, omega):
        zero = dataclasses.astuple(asymptotic_limits(alpha).zero_temperature)
        row = closed_forms(alpha, omega, 0.0)
        # C then MI of A_I, A_II and I_II, sign of zero included
        assert np.array_equal(_bits(zero), _bits(row[0:3] + row[6:9]))

    def test_hot_limit_is_approached(self):
        for alpha in (0.3, INV_SQRT2, 0.9):
            params = ModelParams(alpha, 1.0, 1e6)
            hot = asymptotic_limits(alpha).infinite_temperature
            assert abs(closed_form_concurrence(params, ModePair.A_I) - hot.c_a_i) <= 1e-6
            assert abs(closed_form_concurrence(params, ModePair.A_II) - hot.c_a_ii) <= 1e-6
            assert abs(closed_form_concurrence(params, ModePair.I_II) - hot.c_i_ii) <= 1e-6
            assert abs(closed_form_mutual_information(params, ModePair.I_II) - hot.mi_i_ii) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.3, INV_SQRT2, 0.9, 1e-300, 1.0 - 1e-16])
    def test_mutual_informations_match_the_scalar_formulas_bit_for_bit(self, alpha):
        report = asymptotic_limits(alpha)
        a2 = alpha * alpha
        want = [
            2.0 * _ref_binary_entropy(a2),
            _ref_binary_entropy(a2),
            2.0 * _ref_binary_entropy(a2 / 2.0) - _ref_binary_entropy(a2),
        ]
        got = [
            report.zero_temperature.mi_a_i,
            report.infinite_temperature.mi_a_i,
            report.infinite_temperature.mi_i_ii,
        ]
        assert np.array_equal(_bits(got), _bits(want))
        assert report.infinite_temperature.mi_a_ii == report.infinite_temperature.mi_a_i
        b2 = (1.0 - alpha) * (1.0 + alpha)
        assert _bits(report.zero_temperature.c_a_i) == _bits(2.0 * alpha * math.sqrt(b2))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            asymptotic_limits(alpha)


class TestModelParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0, "omega": 1.0, "temperature": 1.0},
            {"alpha": 1.0, "omega": 1.0, "temperature": 1.0},
            {"alpha": -0.1, "omega": 1.0, "temperature": 1.0},
            {"alpha": math.nan, "omega": 1.0, "temperature": 1.0},
            {"alpha": 0.5, "omega": 0.0, "temperature": 1.0},
            {"alpha": 0.5, "omega": -2.0, "temperature": 1.0},
            {"alpha": 0.5, "omega": math.inf, "temperature": 1.0},
            {"alpha": 0.5, "omega": 1.0, "temperature": -0.1},
            {"alpha": 0.5, "omega": 1.0, "temperature": math.nan},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError) as checked:
            check_params(**kwargs)
        for entry_point in (ModelParams, closed_forms):
            with pytest.raises(ValueError) as raised:
                entry_point(**kwargs)
            assert str(raised.value) == str(checked.value)

    @pytest.mark.parametrize("name", ["alpha", "omega", "temperature"])
    def test_str_parameter_is_a_type_error(self, name):
        # the gate compares the value as given before float() could parse it
        point = {"alpha": 0.5, "omega": 1.0, "temperature": 1.0, name: "0.5"}
        for entry_point in (check_params, ModelParams, closed_forms, evaluate_point):
            with pytest.raises(TypeError):
                entry_point(**point)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ModelParams(0.5, 1.0, None),
            lambda: closed_forms(0.5, 1.0, None),
            lambda: evaluate_point(0.5, None, 1.0),
            lambda: thermal_factors(None, 1.0),
            lambda: asymptotic_limits(None),
            lambda: check_params(temperature=None),
        ],
        ids=["ModelParams", "closed_forms", "evaluate_point", "thermal_factors", "asymptotic_limits", "check_params"],
    )
    def test_explicit_none_is_a_type_error_at_the_gate(self, call):
        # only a parameter left out is skipped: None is compared like any value,
        # and does not reach the arithmetic ("unsupported operand type(s)")
        with pytest.raises(TypeError, match="not supported between instances of 'float' and 'NoneType'"):
            call()

    @pytest.mark.parametrize(
        "name, message",
        [
            ("omega", "omega must be positive and finite, got inf"),
            ("temperature", "temperature must be non-negative and finite, got inf"),
        ],
    )
    def test_infinite_parameter_is_named_as_such(self, name, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_params(**{name: math.inf})

    @pytest.mark.parametrize(
        "name, message",
        [
            ("omega", "omega must be positive and finite"),
            ("temperature", "temperature must be non-negative and finite"),
        ],
    )
    def test_int_beyond_the_float_range_is_a_value_error(self, name, message):
        # such an int compares below math.inf, but float() of it overflows
        point = {"alpha": 0.5, "omega": 1.0, "temperature": 1.0, name: 10**400}
        with pytest.raises(ValueError, match=message) as checked:
            check_params(**{name: 10**400})
        for entry_point in (ModelParams, closed_forms, evaluate_point):
            with pytest.raises(ValueError) as raised:
                entry_point(**point)
            assert str(raised.value) == str(checked.value)

    def test_largest_float_is_in_range(self):
        check_params(omega=sys.float_info.max, temperature=sys.float_info.max)

    def test_float32_is_checked_without_a_warning(self):
        # numpy would cast a bound of the largest float to float32, and overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checked = check_params(
                alpha=np.float32(0.5), omega=np.float32(1.5), temperature=np.float32(0.0)
            )
            assert checked == (0.5, 1.5, 0.0)
            assert [type(x) for x in checked] == [float] * 3
            assert check_params(omega=np.float32(1.5)) == (None, 1.5, None)
            assert hawking_temperature(np.float32(2.0)) > 0.0
            with pytest.raises(ValueError, match="omega"):
                check_params(omega=np.float32("inf"))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_numpy_parameters_compute_as_their_float64_value(self, dtype):
        # 0.6 and 0.7 are inexact in float16 and float32, so arithmetic in those types shows
        given = (dtype(0.6), dtype(1.0), dtype(0.7))
        exact = tuple(float(x) for x in given)

        def assert_same(got, want):
            assert [type(x) for x in got] == [float] * len(want)
            assert np.array_equal(_bits(got), _bits(want))

        assert_same(check_params(*given), exact)
        params, reference = ModelParams(*given), ModelParams(*exact)
        assert_same([params.alpha, params.omega, params.temperature], exact)
        views = (
            closed_form_concurrence,
            closed_form_eof,
            closed_form_mutual_information,
            closed_form_min_pt_eigenvalue,
        )
        for pair in ModePair:
            assert_same(
                [view(params, pair) for view in views], [view(reference, pair) for view in views]
            )
            got = dataclasses.astuple(measure_set(reduced_density(params, pair)))
            want = dataclasses.astuple(measure_set(reduced_density(reference, pair)))
            assert np.array_equal(_bits(got), _bits(want))
        assert_same(closed_forms(*given), closed_forms(*exact))
        assert_same(evaluate_point(*given, verify=True), evaluate_point(*exact, verify=True))
        assert_same(
            dataclasses.astuple(thermal_factors(*given[1:])),
            dataclasses.astuple(thermal_factors(*exact[1:])),
        )
        report, want = asymptotic_limits(given[0]), asymptotic_limits(exact[0])
        assert_same([report.alpha], [want.alpha])
        for limit in ("zero_temperature", "infinite_temperature"):
            assert_same(
                dataclasses.astuple(getattr(report, limit)),
                dataclasses.astuple(getattr(want, limit)),
            )

    def test_accepts_boundary_temperature(self):
        assert ModelParams(0.5, 1.0, 0.0).temperature == 0.0
