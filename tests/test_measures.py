"""Contract tests for the two-qubit correlation measures."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hawkent.measures
from hawkent.measures import (
    DensityMatrix,
    MeasureSet,
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    measure_set,
    measure_stack,
    min_pt_eigenvalue,
    mutual_information,
    one_to_rest_tangle,
    validate_density,
)
from hawkent.model import ModePair

# Reduced pair states at alpha^2 = 0.5, omega = 1, T = 1.  Populations
# are alpha^2 f-^2 = 0.365529..., alpha^2 f+^2 = 0.134470..., 1-alpha^2,
# plus one coherence each.
A2FM2 = 0.365529289315002
A2FP2 = 0.134470710684998

RHO_AI = np.zeros((4, 4))
RHO_AI[0, 0] = A2FM2
RHO_AI[1, 1] = A2FP2
RHO_AI[3, 3] = 0.5
RHO_AI[0, 3] = RHO_AI[3, 0] = 0.427509818200122

RHO_AII = np.zeros((4, 4))
RHO_AII[0, 0] = A2FM2
RHO_AII[1, 1] = A2FP2
RHO_AII[2, 2] = 0.5
RHO_AII[1, 2] = RHO_AII[2, 1] = 0.259297812066548

RHO_III = np.zeros((4, 4))
RHO_III[0, 0] = A2FM2
RHO_III[2, 2] = 0.5
RHO_III[3, 3] = A2FP2
RHO_III[0, 3] = RHO_III[3, 0] = 0.221704720992519

BELL = np.zeros(4)
BELL[0] = BELL[3] = 1.0 / np.sqrt(2.0)
RHO_BELL = np.outer(BELL, BELL)


def _state(matrix, dims=(2, 2)):
    return validate_density(matrix, dims)


def _reference_marginals(m):
    """Both one-qubit marginals of ``(..., 4, 4)`` states by ``np.trace``, first kept first."""
    t = m.reshape(*m.shape[:-2], 2, 2, 2, 2)
    return np.trace(t, axis1=-3, axis2=-1), np.trace(t, axis1=-4, axis2=-2)


_ELEMENTS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

# Complex 4x4 matrices with entries in the unit square.
COMPLEX_4X4 = st.tuples(
    arrays(np.float64, (4, 4), elements=_ELEMENTS),
    arrays(np.float64, (4, 4), elements=_ELEMENTS),
).map(lambda parts: parts[0] + 1.0j * parts[1])


def _normalised(g):
    """The two-qubit state ``g g^dagger / tr``; ``g`` must not be near zero."""
    m = g @ g.conj().T
    trace = m.trace().real
    assume(trace > 1e-3)
    return m / trace


def _random_mixed_states(count, seed=20240817):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        yield _state(m / m.trace().real)


def _random_pure_states(count, seed=20240817):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        psi = rng.normal(size=4) + 1.0j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        yield _state(np.outer(psi, psi.conj()))


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        rho = _state(np.eye(4) / 4.0)
        assert isinstance(rho, DensityMatrix)
        assert rho.dims == (2, 2)
        assert rho.dim == 4

    def test_reduced_pair_state_is_valid(self):
        assert _state(RHO_AI).dims == (2, 2)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            _state(np.eye(4) * 0.225)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4) / 4.0
        bad[0, 1] = 0.1
        with pytest.raises(ValueError) as got:
            _state(bad)
        assert str(got.value) == "matrix is not Hermitian: max |a - a^dagger| entry is 1.000e-01"

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            _state(np.diag([1.2, -0.2, 0.0, 0.0]))

    def test_rejects_bad_bipartition(self):
        with pytest.raises(ValueError, match="bipartition"):
            validate_density(np.eye(4) / 4.0, (3, 2))

    @pytest.mark.parametrize("dims", [(2.9, 2.2), (2.0, 2.0), ("2", "2"), (2,), (2, 2, 1), None])
    def test_rejects_dims_that_are_not_integer_pairs(self, dims):
        # factors go through operator.index: no truncation, no parsing
        with pytest.raises(ValueError, match="pair of positive integers"):
            validate_density(np.eye(4) / 4.0, dims)

    def test_numpy_integer_dims_become_ints(self):
        rho = validate_density(np.eye(4) / 4.0, (np.int64(2), np.int32(2)))
        assert rho.dims == (2, 2)
        assert all(type(d) is int for d in rho.dims)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_density(np.ones((2, 3)), (2, 1))

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (1, 4, 4)])
    def test_rejects_anything_but_one_square_matrix(self, shape):
        want = f"expected a square matrix, got shape {shape}"
        with pytest.raises(ValueError) as got:
            validate_density(np.full(shape, 0.25), (2, 2))
        assert str(got.value) == want
        with pytest.raises(ValueError) as got:
            DensityMatrix(np.full(shape, 0.25), (2, 2))
        assert str(got.value) == want

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            validate_density(bad, (2, 1))

    def test_validated_state_is_a_read_only_copy(self):
        m = RHO_AI.astype(complex)
        rho = _state(m)
        want = measure_set(rho)
        m[0, 0] = 5.0
        assert np.array_equal(rho.matrix, RHO_AI)
        assert measure_set(rho) == want
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
        assert m.flags.writeable


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_fair_coin(self):
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.42):
            assert math.isclose(binary_entropy(p), binary_entropy(1.0 - p), rel_tol=1e-15)

    def test_clamps_rounding_dust(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            binary_entropy(1.5)


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        from hawkent.measures import von_neumann_entropy

        assert von_neumann_entropy(_state(RHO_BELL)) <= 1e-12

    def test_maximally_mixed_two_qubits(self):
        from hawkent.measures import von_neumann_entropy

        assert abs(von_neumann_entropy(_state(np.eye(4) / 4.0)) - 2.0) <= 1e-12

    def test_exterior_mode_marginal(self):
        from hawkent.measures import von_neumann_entropy

        marginal = _state(np.diag([0.365529289315002, 0.634470710684998]), dims=(2, 1))
        assert abs(von_neumann_entropy(marginal) - 0.947177406096995) <= 1e-12

    @pytest.mark.parametrize("pure", [RHO_BELL, np.diag([1.0, 0.0, 0.0, 0.0])], ids=["bell", "product"])
    def test_pure_state_entropy_is_not_negative_zero(self, pure):
        from hawkent.measures import von_neumann_entropy

        assert math.copysign(1.0, von_neumann_entropy(_state(pure))) == 1.0


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(_state(RHO_BELL)) - 1.0) <= 1e-12

    def test_product_state(self):
        rho = np.zeros((4, 4))
        rho[1, 1] = 1.0
        assert concurrence(_state(rho)) == 0.0

    def test_werner_state(self):
        p = 0.8
        werner = p * RHO_BELL + (1.0 - p) * np.eye(4) / 4.0
        assert abs(concurrence(_state(werner)) - (3.0 * p - 1.0) / 2.0) <= 1e-12

    def test_reduced_pair_states(self):
        assert abs(concurrence(_state(RHO_AI)) - 0.855019636400244) <= 1e-12
        assert abs(concurrence(_state(RHO_AII)) - 0.518595624133096) <= 1e-12
        assert abs(concurrence(_state(RHO_III)) - 0.443409441985037) <= 1e-12

    @given(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    )
    @example(5.960464477539063e-08, 5.960464477539063e-08, 0.0, 1.0)
    @example(4e-26, 4e-26, 0.0, 1.0)
    def test_pure_superposition(self, ar, ai, br, bi):
        a = ar + 1.0j * ai
        b = br + 1.0j * bi
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        assume(norm > 0.1)
        psi = np.array([a, 0.0, 0.0, b]) / norm
        rho = _state(np.outer(psi, psi.conj()))
        expected = 2.0 * abs(a) * abs(b) / norm**2
        assert abs(concurrence(rho) - expected) <= 1e-10


class TestEntanglementOfFormation:
    def test_product_state(self):
        rho = np.zeros((4, 4))
        rho[2, 2] = 1.0
        eof = entanglement_of_formation(_state(rho))
        assert eof == 0.0
        assert math.copysign(1.0, eof) == 1.0

    def test_bell_state(self):
        assert abs(entanglement_of_formation(_state(RHO_BELL)) - 1.0) <= 1e-12

    def test_reduced_pair_state(self):
        assert abs(entanglement_of_formation(_state(RHO_AI)) - 0.796206044685929) <= 1e-11


class TestMutualInformation:
    def test_product_state(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.array([[0.6, 0.1], [0.1, 0.4]]))
        assert abs(mutual_information(_state(rho))) <= 1e-12

    def test_random_product_states_read_zero_up_to_rounding(self):
        # Measured on 240000 seeded product states, 60000 for each pair of marginal
        # ranks: -3.5e-14 to +1.5e-14, most below 0, pure marginals the widest; 20000
        # more with pure marginals reached -4.3e-14.  No clamp: the sign stays as computed.
        rng = np.random.default_rng(20261019)
        values = []
        for k in range(400):
            p, q = (rng.normal(size=(2, r)) + 1.0j * rng.normal(size=(2, r)) for r in (1 + k % 2, 1 + k // 2 % 2))
            p, q = p @ p.conj().T, q @ q.conj().T
            values.append(mutual_information(_state(np.kron(p / p.trace().real, q / q.trace().real))))
        assert max(map(abs, values)) <= 5e-14
        assert min(values) < 0.0 < max(values)

    def test_bell_state(self):
        assert abs(mutual_information(_state(RHO_BELL)) - 2.0) <= 1e-12

    def test_reduced_pair_states(self):
        assert abs(mutual_information(_state(RHO_AI)) - 1.37760453660271) <= 1e-11
        assert abs(mutual_information(_state(RHO_III)) - 0.516750275591282) <= 1e-11


class TestMinPtEigenvalue:
    def test_separable_state_is_ppt(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4]))
        assert min_pt_eigenvalue(_state(rho)) >= -1e-10

    def test_bell_state(self):
        assert abs(min_pt_eigenvalue(_state(RHO_BELL)) - (-0.5)) <= 1e-12

    def test_reduced_pair_state(self):
        # equals (a^2 f-^2 - sqrt(a^4 f-^4 + 4 a^2 (1-a^2) f+^2)) / 2
        assert abs(min_pt_eigenvalue(_state(RHO_AII)) - (-0.134470710684998)) <= 1e-12

    @pytest.mark.parametrize(
        "rho,b,c",
        [(RHO_AI, A2FP2, RHO_AI[0, 3]), (RHO_AII, A2FM2, RHO_AII[1, 2]), (RHO_III, 0.5, RHO_III[0, 3])],
        ids=["A_I", "A_II", "I_II"],
    )
    def test_coherence_block_closed_form(self, rho, b, c):
        # the partial transpose moves each pair state's one coherence c into a
        # 2x2 block [[b, c], [c, 0]] with lowest eigenvalue (b - sqrt(b^2 + 4 c^2)) / 2
        want = (b - math.sqrt(b * b + 4.0 * c * c)) / 2.0
        assert abs(min_pt_eigenvalue(_state(rho)) - want) <= 1e-12

    @given(COMPLEX_4X4)
    def test_measures_are_symmetric_under_swapping_the_qubits(self, g):
        # transposing either factor gives the same spectrum, and the
        # marginals trade places, so the PT minimum and the MI stay put
        rho = _normalised(g)
        swapped = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        first, second = measure_stack(np.array([rho, swapped]))
        assert abs(first[3] - second[3]) <= 1e-12
        assert abs(first[2] - second[2]) <= 1e-12


class TestOneToRestTangle:
    def test_pure_qubit(self):
        assert one_to_rest_tangle(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(one_to_rest_tangle(np.eye(2) / 2.0) - 1.0) <= 1e-14

    def test_equal_weight_marginal(self):
        assert abs(one_to_rest_tangle(np.diag([0.5, 0.5])) - 1.0) <= 1e-14

    def test_biased_marginal(self):
        assert abs(one_to_rest_tangle(np.diag([0.3, 0.7])) - 0.84) <= 1e-14

    def test_accepts_density_matrix_wrapper(self):
        rho = validate_density(np.eye(2) / 2.0, (2, 1))
        assert abs(one_to_rest_tangle(rho) - 1.0) <= 1e-14

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="2x2"):
            one_to_rest_tangle(np.eye(4) / 4.0)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            one_to_rest_tangle(np.eye(2))


GATE_FAILURES = pytest.mark.parametrize(
    "bad",
    [
        np.diag([0.25, 0.25, 0.25, 0.25]) + np.eye(4, k=1) * 0.1,
        np.eye(4) * 0.225,
        np.diag([0.6, 0.5, -0.1, 0.0]),
        np.diag([0.25, 0.25, 0.25, np.nan]),
    ],
    ids=["not_hermitian", "trace", "negative_eigenvalue", "non_finite"],
)

# Joint eigenvalues pass the -1e-10 gate; the first marginal diag(1 + 1.8e-10, -1.8e-10) does not.
MARGINAL_BELOW_GATE = np.diag([1.0 + 1.8e-10, 0.0, -0.9e-10, -0.9e-10])


# numpy's public eigensolvers and SVD, which the spectral route never calls:
# each is spied on under this key, and must read no call.
NUMPY_LINALG = {name: f"numpy.linalg.{name}" for name in ("eigh", "eigvalsh", "svd")}
NO_NUMPY_LINALG_CALLS = dict.fromkeys(NUMPY_LINALG.values(), 0)


def _spy_lapack(monkeypatch, record):
    """Call ``record(name, a)`` on each matrix stack handed to an eigensolver.

    hawkent's ``_eigh`` and ``_eigvalsh`` record as ``eigh`` and ``eigvalsh``;
    numpy's public ``eigh``, ``eigvalsh`` and ``svd`` as ``numpy.linalg.<name>``.
    """
    def spied(name, real):
        def call(a, *args, **kwargs):
            record(name, np.asarray(a))
            return real(a, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh"):
        real = getattr(hawkent.measures, f"_{name}")
        monkeypatch.setattr(hawkent.measures, f"_{name}", spied(name, real))
    for name, key in NUMPY_LINALG.items():
        monkeypatch.setattr(np.linalg, name, spied(key, getattr(np.linalg, name)))


def _record_lapack_dtypes(monkeypatch):
    """Record the dtype and size of each matrix handed to an eigensolver (see ``_spy_lapack``).

    A key appears only once its solver is called, so a result without a
    ``numpy.linalg.<name>`` key shows that numpy's public calls got none.
    """
    dtypes = {}

    def record(name, a):
        dtypes.setdefault(name, set()).add((a.dtype, a.shape[-1]))

    _spy_lapack(monkeypatch, record)
    return dtypes


def _count_lapack_calls(monkeypatch):
    """Count the eigensolver calls (see ``_spy_lapack``)."""
    calls = dict.fromkeys(("eigh", "eigvalsh", *NUMPY_LINALG.values()), 0)

    def count(name, a):
        calls[name] += 1

    _spy_lapack(monkeypatch, count)
    return calls


class TestDensityMatrixIsGatedWhenBuilt:
    @GATE_FAILURES
    def test_construction_raises_the_gate_message(self, bad):
        with pytest.raises(ValueError) as want:
            validate_density(bad, (2, 2))
        with pytest.raises(ValueError) as got:
            DensityMatrix(bad, (2, 2))
        assert str(got.value) == str(want.value)

    def test_nested_list_measures_like_validate_density(self):
        nested = RHO_AI.tolist()
        rho = DensityMatrix(nested, (2, 2))
        assert rho.dim == 4
        assert measure_set(rho) == measure_set(validate_density(nested, (2, 2)))

    def test_overwriting_the_callers_array_changes_nothing(self):
        m = RHO_BELL.copy()
        rho = DensityMatrix(m, (2, 2))
        want = measure_set(rho)
        m[:] = np.eye(4) / 4.0
        assert measure_set(rho) == want
        assert want.concurrence > 0.99 and want.min_pt_eigenvalue < -0.49

    @pytest.mark.parametrize("dims", [[2, 2], (np.int64(2), np.int32(2))])
    def test_holds_a_read_only_matrix_and_int_dims(self, dims):
        rho = DensityMatrix(np.eye(4) / 4.0, dims)
        assert rho.dims == (2, 2)
        assert all(type(d) is int for d in rho.dims)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_tangle_of_a_gated_state_takes_no_lapack_call(self, monkeypatch):
        rho = validate_density(np.diag([0.3, 0.7]), (2, 1))
        calls = _count_lapack_calls(monkeypatch)
        assert abs(one_to_rest_tangle(rho) - 0.84) <= 1e-14
        assert calls == {"eigh": 0, "eigvalsh": 0, **NO_NUMPY_LINALG_CALLS}


class TestMeasureSet:
    @pytest.mark.parametrize(
        "measure",
        [measure_set, concurrence, entanglement_of_formation, mutual_information, min_pt_eigenvalue],
    )
    def test_rejects_non_qubit_pair(self, measure):
        with pytest.raises(ValueError, match="qubit pairs"):
            measure(validate_density(np.eye(4) / 4.0, (4, 1)))

    def test_matches_individual_measures(self):
        for rho in (_state(RHO_AI), *_random_mixed_states(150), *_random_pure_states(150)):
            ms = measure_set(rho)
            assert isinstance(ms, MeasureSet)
            assert ms.concurrence == concurrence(rho)
            assert ms.eof == entanglement_of_formation(rho)
            assert ms.mutual_information == mutual_information(rho)
            assert ms.min_pt_eigenvalue == min_pt_eigenvalue(rho)

    def test_werner_boundary_state(self):
        # at p = 1/3 the state sits exactly on the separability border
        werner = RHO_BELL / 3.0 + (2.0 / 3.0) * np.eye(4) / 4.0
        ms = measure_set(_state(werner))
        assert ms.concurrence <= 1e-12
        assert abs(ms.min_pt_eigenvalue) <= 1e-12

    @GATE_FAILURES
    def test_unvalidated_state_is_gated_on_first_use(self, bad):
        with pytest.raises(ValueError) as want:
            validate_density(bad, (2, 2))
        with pytest.raises(ValueError) as got:
            measure_set(DensityMatrix(bad, (2, 2)))
        assert str(got.value) == str(want.value)

    def test_unvalidated_state_accepts_dims_as_a_list(self):
        want = measure_set(validate_density(np.eye(4) / 4.0, (2, 2)))
        assert measure_set(DensityMatrix(np.eye(4) / 4.0, [2, 2])) == want

    def test_unvalidated_state_must_factor_its_dims(self):
        with pytest.raises(ValueError, match="does not factor matrix dimension 3"):
            measure_set(DensityMatrix(np.eye(3) / 3.0, (2, 2)))

    def test_one_spectrum_per_state(self, monkeypatch):
        from hawkent.measures import von_neumann_entropy

        calls = _count_lapack_calls(monkeypatch)
        rho = validate_density(RHO_AI, (2, 2))
        von_neumann_entropy(rho)
        measure_set(rho)
        # one eigh for the gate, the joint entropy and the concurrence factor;
        # one eigvalsh for the 8x8 concurrence embedding and one for the 4x4
        # partial transpose; the 2x2 marginal spectra are closed forms
        assert calls == {"eigh": 1, "eigvalsh": 2, **NO_NUMPY_LINALG_CALLS}


class TestMeasureStack:
    def test_matches_measure_set(self):
        states = [_state(m) for m in (RHO_AI, RHO_AII, RHO_III, RHO_BELL)]
        stacked = measure_stack(np.array([rho.matrix for rho in states]))
        assert stacked.shape == (4, 4)
        for rho, values in zip(states, stacked):
            ms = measure_set(rho)
            want = (ms.concurrence, ms.eof, ms.mutual_information, ms.min_pt_eigenvalue)
            assert np.abs(values - want).max() <= 1e-15

    @GATE_FAILURES
    def test_gate_names_first_failing_state(self, bad):
        with pytest.raises(ValueError) as want:
            validate_density(bad, (2, 2))
        later_bad = np.diag([1.2, -0.2, 0.0, 0.0])
        stack = np.array([RHO_AI, RHO_III, bad, RHO_BELL, later_bad])
        with pytest.raises(ValueError) as got:
            measure_stack(stack)
        assert str(got.value) == str(want.value)

    def test_positivity_checked_before_a_later_structural_failure(self):
        stack = np.array([RHO_AI, np.diag([0.6, 0.5, -0.1, 0.0]), np.eye(4) * 0.225])
        with pytest.raises(ValueError, match="positive semidefinite: eigenvalue -1.000e-01"):
            measure_stack(stack)

    def test_gate_boundary_matches_validate_density(self):
        def diagonal(lowest):
            return np.diag([0.6 - lowest, 0.4, 0.0, lowest])

        inside = diagonal(-1e-10 * (1.0 - 1e-6))
        validate_density(inside, (2, 2))
        measure_stack(inside[None])
        outside = diagonal(-1e-10 * (1.0 + 1e-6))
        with pytest.raises(ValueError) as want:
            validate_density(outside, (2, 2))
        with pytest.raises(ValueError) as got:
            measure_stack(outside[None])
        assert str(got.value) == str(want.value)
        assert str(want.value) == "matrix is not positive semidefinite: eigenvalue -1.000e-10"

    def test_marginal_below_gate_raises(self):
        # the joint spectrum passes the gate; the first marginal has eigenvalue -1.8e-10
        with pytest.raises(ValueError) as got_stack:
            measure_stack(MARGINAL_BELOW_GATE[None])
        with pytest.raises(ValueError) as got_set:
            measure_set(validate_density(MARGINAL_BELOW_GATE, (2, 2)))
        want = "matrix is not positive semidefinite: eigenvalue -1.800e-10"
        assert str(got_stack.value) == str(got_set.value) == want

    def test_complex_state_is_computed_in_complex(self, monkeypatch):
        dtypes = _record_lapack_dtypes(monkeypatch)
        rho = next(_random_mixed_states(1))
        assert rho.matrix.dtype == np.complex128
        measure_set(rho)
        measure_stack(rho.matrix[None])
        # the state and its partial transpose stay complex; the concurrence
        # embedding is real symmetric for every input
        complex128, float64 = np.dtype(np.complex128), np.dtype(np.float64)
        assert dtypes == {"eigh": {(complex128, 4)}, "eigvalsh": {(float64, 8), (complex128, 4)}}

    @pytest.mark.parametrize(
        "rho,dtype",
        [
            (RHO_BELL, np.float64),
            (np.diag([1, 0, 0, 0]), np.float64),
            (np.diag([True, False, False, False]), np.float64),
            (RHO_BELL.astype(np.float32), np.float64),
            (RHO_AI.astype(complex), np.complex128),
        ],
        ids=["float64", "int", "bool", "float32", "complex"],
    )
    def test_input_arithmetic_is_kept(self, monkeypatch, rho, dtype):
        assert validate_density(rho, (2, 2)).matrix.dtype == dtype
        dtypes = _record_lapack_dtypes(monkeypatch)
        measure_stack(np.array([rho, rho]))
        kept, float64 = np.dtype(dtype), np.dtype(np.float64)
        assert dtypes == {"eigh": {(kept, 4)}, "eigvalsh": {(float64, 8), (kept, 4)}}

    def test_real_state_is_computed_in_real(self, monkeypatch):
        from hawkent.sweep import RunConfig, SweepSpec, run_sweep

        dtypes = _record_lapack_dtypes(monkeypatch)
        rho = validate_density(RHO_AI, (2, 2))
        assert rho.matrix.dtype == np.float64
        measure_set(rho)
        # a verified sweep's pair states are real symmetric, and its 4x4
        # embeddings share one eigvalsh with the partial transposes
        spec = SweepSpec(vary="temperature", min=0.01, max=10.0, steps=40, alpha=0.6, omega=1.0)
        run_sweep(RunConfig(sweep=spec))
        float64 = np.dtype(np.float64)
        assert dtypes == {"eigh": {(float64, 4)}, "eigvalsh": {(float64, 8), (float64, 4)}}

    def test_hermiticity_message_names_the_largest_defect(self):
        bad = np.eye(4) / 4.0
        bad[0, 1], bad[1, 0] = 1.0, -1.0
        want = "matrix is not Hermitian: max |a - a^dagger| entry is 2.000e+00"
        with pytest.raises(ValueError) as got_state:
            validate_density(bad, (2, 2))
        with pytest.raises(ValueError) as got_stack:
            measure_stack(np.array([RHO_AI, bad]))
        assert str(got_state.value) == str(got_stack.value) == want

    def test_empty_stack(self):
        assert measure_stack(np.zeros((0, 4, 4))).shape == (0, 4)

    def test_zero_measures_are_positive_zeros(self):
        product = np.diag([0.0, 0.0, 1.0, 0.0])
        row = measure_stack(np.array([RHO_BELL, product]))[1]
        assert row.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert np.all(np.copysign(1.0, row) == 1.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="stack"):
            measure_stack(np.eye(4) / 4.0)

    def test_rejects_non_finite(self):
        bad = np.eye(4) / 4.0
        bad[1, 2] = np.inf
        with pytest.raises(ValueError) as want:
            validate_density(bad, (2, 2))
        with pytest.raises(ValueError) as got:
            measure_stack(np.array([RHO_AI, bad, RHO_BELL]))
        assert str(got.value) == str(want.value) == "matrix contains non-finite entries"


class TestRandomStateProperties:
    def test_bounds(self):
        for rho in _random_mixed_states(150):
            ms = measure_set(rho)
            assert -1e-10 <= ms.concurrence <= 1.0 + 1e-10
            assert -1e-10 <= ms.eof <= 1.0 + 1e-10
            assert -1e-10 <= ms.mutual_information <= 2.0 + 1e-10
            assert ms.min_pt_eigenvalue >= -0.5 - 1e-10

    def test_peres_criterion_consistency(self):
        # margins checked for this seed: entangled samples all have
        # min PT below -4e-5 and PPT samples have concurrence 0
        for rho in _random_mixed_states(150):
            ms = measure_set(rho)
            assert (ms.concurrence > 1e-8) == (ms.min_pt_eigenvalue < -1e-8)

    def test_pure_state_schmidt_symmetry(self):
        from hawkent.measures import von_neumann_entropy

        for rho in _random_pure_states(150):
            first, second = (validate_density(r, (2, 1)) for r in _reference_marginals(rho.matrix))
            s1 = von_neumann_entropy(first)
            s2 = von_neumann_entropy(second)
            assert abs(s1 - s2) <= 1e-10
            assert abs(mutual_information(rho) - 2.0 * s1) <= 1e-10
            # for a pure pair state the EoF is the marginal entropy
            assert abs(entanglement_of_formation(rho) - s1) <= 1e-9


# Largest gaps between the factor route and measure_stack, measured with the
# generic route alone before the factor route existed: C, EoF, MI, min PT were
# 1.9e-15, 2.6e-15, 2.1e-14 and 0 on these Haar states, 7.8e-16, 1.1e-15,
# 1.9e-14 and 0 on the model grid.  A 40-digit mpmath reference put the factor
# route within 3.3e-16 of the exact values at the worst of them; the rest of
# each gap is measure_stack's rounding.
FACTOR_ROUTE_BOUNDS = np.array([4e-15, 6e-15, 5e-14, 0.0])


class TestFactorRoute:
    """The factor route fed a pure state's amplitudes agrees with the generic route."""

    @staticmethod
    def _gaps(amplitudes):
        from hawkent.measures import _FACTOR_ENTRIES, _factor_measures

        got = _factor_measures(amplitudes)
        # the states the factor route builds, bit for bit
        flat = amplitudes[:, _FACTOR_ENTRIES].reshape(-1, 4, 2)
        want = measure_stack(flat @ flat.conj().swapaxes(-1, -2))
        assert got.shape == (len(amplitudes), 3, 4)
        return np.abs(got.reshape(-1, 4) - want).max(axis=0)

    def test_haar_random_complex_pure_states(self):
        rng = np.random.default_rng(20261018)
        psi = rng.normal(size=(2000, 8)) + 1.0j * rng.normal(size=(2000, 8))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        assert np.all(self._gaps(psi) <= FACTOR_ROUTE_BOUNDS)

    def test_model_grid(self):
        from hawkent.model import _amplitudes

        points = [
            (alpha, 1.0, temperature)
            for alpha in np.linspace(0.01, 0.99, 25).tolist()
            for temperature in [0.0, *np.geomspace(1e-3, 1e3, 41).tolist()]
        ]
        # the amplitudes the state builder gives every spectral route
        amplitudes = _amplitudes(*np.array(points).T)
        assert np.all(self._gaps(amplitudes) <= FACTOR_ROUTE_BOUNDS)

    def test_ghz_orbit_has_unentangled_pairs(self):
        # local unitaries keep every pair of GHZ at C = 0 with both concurrence
        # roots equal, where sqrt(|M|_F^2 - 2 |det M|) would lose sqrt(eps):
        # that form reads up to 1.8e-8 here, measure_stack 1.7e-15 and the factor
        # route's (s1^2 - s2^2) / (s1 + s2) 9.3e-16, 1.58e-15 from measure_stack
        from hawkent.measures import _factor_measures

        rng = np.random.default_rng(31)
        gaussian = rng.normal(size=(3, 500, 2, 2)) + 1.0j * rng.normal(size=(3, 500, 2, 2))
        ua, ub, uc = np.linalg.qr(gaussian)[0]
        ghz = np.zeros((2, 2, 2))
        ghz[0, 0, 0] = ghz[1, 1, 1] = 1.0 / np.sqrt(2.0)
        psi = np.einsum("nia,njb,nkc,abc->nijk", ua, ub, uc, ghz).reshape(-1, 8)
        assert self._gaps(psi)[0] <= FACTOR_ROUTE_BOUNDS[0]
        assert _factor_measures(psi)[..., 0].max() <= FACTOR_ROUTE_BOUNDS[0]

    def test_concurrence_is_relatively_accurate_on_model_states(self):
        # alpha down to 1e-150 and w/T up to 1400 take C far below 1e-154, where
        # unscaled squares of M's entries underflow.  The widest relative gap on
        # a normal cell was 3.3 eps here and 4.0 eps on 156000 cells of a larger
        # sample: both routes round their own weights and products, I_II's the most
        from hawkent.measures import _factor_measures
        from hawkent.model import _amplitudes, _closed_table

        rng = np.random.default_rng(1400)
        n = 20000
        alpha = np.exp(rng.uniform(math.log(1e-150), 0.0, n))
        ratio = np.concatenate(
            [rng.uniform(1.0, 1400.0, n // 2), np.exp(rng.uniform(math.log(1e-3), math.log(1400.0), n // 2))]
        )
        table = _closed_table(np.stack([alpha, np.ones(n), 1.0 / ratio], axis=1))
        closed = table[:, 3:6]
        got = _factor_measures(_amplitudes(*table[:, :3].T))[..., 0]
        normal = closed >= np.finfo(float).tiny
        assert normal.sum() > 50000 and closed[normal].min() < 1e-300
        gap = np.abs(got - closed)[normal] / closed[normal]
        assert gap.max() <= 8 * np.finfo(float).eps

    def test_gram_low_below_gate_raises(self, monkeypatch):
        # each Gram spectrum is a joint spectrum and two marginal spectra at
        # once, and the density gate is the one place that sees it
        from hawkent.measures import _factor_measures, _two_level_spectra
        from hawkent.model import _amplitudes

        def one_low(entries):
            spectra = _two_level_spectra(entries)
            spectra[4, 0] = -1e-9  # point 1, pair A_II
            return spectra

        amplitudes = _amplitudes(*np.array([[0.5, 1.0, 1.0], [0.6, 1.0, 0.5]]).T)
        monkeypatch.setattr(hawkent.measures, "_two_level_spectra", one_low)
        with pytest.raises(ValueError) as got:
            _factor_measures(amplitudes)
        assert str(got.value) == "matrix is not positive semidefinite: eigenvalue -1.000e-09"

    def test_pair_factors_reproduce_the_pair_states(self):
        from hawkent.measures import _FACTOR_ENTRIES
        from hawkent.model import pair_states

        rng = np.random.default_rng(7)
        psi = rng.normal(size=(5, 8)) + 1.0j * rng.normal(size=(5, 8))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        t = psi.reshape(-1, 2, 2, 2)
        traced = {  # psi[n, A, I, II], the third mode traced out
            ModePair.A_I: np.einsum("nabc,nxyc->nabxy", t, t.conj()),
            ModePair.A_II: np.einsum("nabc,nxbz->nacxz", t, t.conj()),
            ModePair.I_II: np.einsum("nabc,nayz->nbcyz", t, t.conj()),
        }
        factors = psi[:, _FACTOR_ENTRIES]
        for k, pair in enumerate(ModePair):
            want = traced[pair].reshape(-1, 4, 4)
            assert np.abs(pair_states(psi, pair) - want).max() <= 1e-15
            rho = factors[:, k] @ factors[:, k].conj().swapaxes(-1, -2)
            assert np.abs(rho - want).max() <= 1e-15


class TestSpinFlipEmbedding:
    """The concurrence roots are the top eigenvalues of the real symmetric embedding."""

    @pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_top_eigenvalues_are_the_singular_values(self, complex_entries, rank):
        from hawkent.measures import _spin_flip_embedding

        rng = np.random.default_rng(100 * rank + complex_entries)
        factor = rng.normal(size=(2000, 4, rank))
        if complex_entries:
            factor = factor + 1.0j * rng.normal(size=(2000, 4, rank))
        factor *= np.exp(rng.uniform(-20.0, 20.0, size=(2000, 1, 1)))
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        # M = L^T (sy x sy) L is complex symmetric, and real symmetric for real L
        m = factor.swapaxes(-1, -2) @ np.kron(sy, sy).real @ factor
        singular = np.linalg.svd(m, compute_uv=False)
        spectrum = np.linalg.eigvalsh(_spin_flip_embedding(factor))
        assert spectrum.shape == (2000, 2 * rank)
        # the whole spectrum is +-s, the r largest eigenvalues the roots;
        # 7.7 eps of the largest was the widest gap measured here
        bound = 16 * np.finfo(float).eps * singular[:, :1]
        assert np.all(np.abs(spectrum[:, ::-1][:, :rank] - singular) <= bound)
        assert np.all(np.abs(spectrum[:, :rank] + singular) <= bound)


class TestFactorProducts:
    """The factor route's gathered products match matmuls of the same factors,
    and the closed form of its 2x2 concurrence matches numpy's ``svd``."""

    KINDS = ("full", "rank 1", "zero column")

    @classmethod
    def _factors(cls, complex_entries, kind):
        rng = np.random.default_rng(10 * complex_entries + cls.KINDS.index(kind))
        factor = rng.normal(size=(4000, 4, 2))
        if complex_entries:
            factor = factor + 1.0j * rng.normal(size=(4000, 4, 2))
        if kind == "rank 1":
            factor[:, :, 1] = factor[:, :, 0] * rng.normal(size=(4000, 1))
        elif kind == "zero column":
            factor[:, :, rng.integers(2)] = 0.0
        factor *= np.exp(rng.uniform(-20.0, 20.0, size=(4000, 1, 1)))
        # 16 eps of the largest |L|^2 of each factor
        bound = 16 * np.finfo(float).eps * (np.abs(factor) ** 2).max(axis=(1, 2))
        return factor, bound[:, None, None]

    FACTORS = pytest.mark.parametrize("kind", KINDS)
    ENTRIES = pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])

    @FACTORS
    @ENTRIES
    def test_gram_entries_match_a_matmul(self, complex_entries, kind):
        from hawkent.measures import _factor_products

        factor, bound = self._factors(complex_entries, kind)
        gram = factor.conj().swapaxes(-1, -2) @ factor
        got = _factor_products(factor)[:, :3]
        want = gram.reshape(-1, 4)[:, [0, 3, 1]]
        assert np.all(np.abs(got - want) <= bound[:, 0])

    @staticmethod
    def _svd_gap(flip):
        """``s1 - s2`` by ``np.linalg.svd`` of the 2x2 ``M`` of each ``(M00, M11, M01)`` row."""
        p, r, q = flip.T
        singular = np.linalg.svd(np.stack([p, q, q, r], axis=-1).reshape(-1, 2, 2), compute_uv=False)
        return singular[:, 0] - singular[:, 1], singular[:, 0]

    @FACTORS
    @ENTRIES
    def test_spin_flip_gap_matches_the_singular_values(self, complex_entries, kind):
        from hawkent.measures import _factor_products, _spin_flip_gap

        factor, _ = self._factors(complex_entries, kind)
        flip = _factor_products(factor)[:, 3:]
        want, largest = self._svd_gap(flip)
        # 3.6 eps of s1 was the widest gap measured here
        assert np.all(np.abs(_spin_flip_gap(flip) - want) <= 8 * np.finfo(float).eps * largest)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
    def test_spin_flip_gap_of_zero_is_zero(self, dtype):
        from hawkent.measures import _spin_flip_gap

        got = _spin_flip_gap(np.zeros((3, 3), dtype))
        assert got.dtype == np.float64
        assert got.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_spin_flip_gap_scales_out_of_the_square_range(self, scale):
        # every |entry|^2 under- or overflows here; the closed form scales first
        from hawkent.measures import _spin_flip_gap

        rng = np.random.default_rng(300)
        flip = scale * (rng.normal(size=(2000, 3)) + 1.0j * rng.normal(size=(2000, 3)))
        want, largest = self._svd_gap(flip)
        got = _spin_flip_gap(flip)
        # 3.4 eps of s1 was the widest gap measured here
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * largest)

    def test_spin_flip_gap_of_equal_singular_values(self):
        # M = s U^T U has both singular values s: the gap is rounding alone
        from hawkent.measures import _spin_flip_gap

        rng = np.random.default_rng(42)
        gaussian = rng.normal(size=(4000, 2, 2)) + 1.0j * rng.normal(size=(4000, 2, 2))
        unitary = np.linalg.qr(gaussian)[0]
        s = np.exp(rng.uniform(-20.0, 20.0, size=4000))
        m = s[:, None, None] * (unitary.swapaxes(-1, -2) @ unitary)
        flip = m.reshape(-1, 4)[:, [0, 3, 1]]
        want, _ = self._svd_gap(flip)
        # 3.4 eps of s was the widest gap measured here
        assert np.all(np.abs(_spin_flip_gap(flip) - want) <= 8 * np.finfo(float).eps * s)


class TestMarginalSpectra:
    @pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_eigvalsh_of_partial_trace(self, complex_entries, rank):
        from hawkent.measures import _marginal_spectra

        rng = np.random.default_rng(1000 * rank + complex_entries)
        g = rng.normal(size=(500, 4, rank))
        if complex_entries:
            g = g + 1.0j * rng.normal(size=(500, 4, rank))
        m = g @ g.conj().swapaxes(-1, -2)
        m /= m.trace(axis1=-2, axis2=-1)[:, None, None]
        want = np.stack([np.linalg.eigvalsh(r) for r in _reference_marginals(m)], axis=1)
        got = _marginal_spectra(m)
        assert got.shape == (500, 2, 2)
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
    def test_entries_are_the_partial_trace_sums(self, complex_entries):
        from hawkent.measures import _marginal_entries

        rng = np.random.default_rng(57 + complex_entries)
        m = rng.normal(size=(200, 4, 4))
        if complex_entries:
            m = m + 1.0j * rng.normal(size=(200, 4, 4))
        want = np.stack([r.reshape(-1, 4)[:, [0, 3, 1]] for r in _reference_marginals(m)], axis=1)
        got = _marginal_entries(m)
        assert got.dtype == m.dtype
        assert np.array_equal(got, want)

    def test_product_state_gives_the_factor_spectra(self):
        from hawkent.measures import _marginal_spectra

        p = np.diag([0.3, 0.7])
        q = np.array([[0.5, 0.2], [0.2, 0.5]])
        got = _marginal_spectra(np.kron(p, q)[None])[0]
        assert np.abs(got - [[0.3, 0.7], [0.3, 0.7]]).max() <= 1e-14

    def test_bell_marginals_are_maximally_mixed(self):
        from hawkent.measures import _marginal_spectra

        assert np.abs(_marginal_spectra(RHO_BELL[None]) - 0.5).max() <= 1e-14

    @pytest.mark.parametrize(
        "rho,second",
        [(RHO_AI, [A2FM2, 0.5 + A2FP2]), (RHO_AII, [A2FP2, 0.5 + A2FM2]), (RHO_III, None)],
        ids=["A_I", "A_II", "I_II"],
    )
    def test_model_pair_marginals(self, rho, second):
        # mode A keeps its populations alpha^2 and 1 - alpha^2; I and II
        # hold alpha^2 f-^2 and alpha^2 f+^2 in the ground state, the rest excited
        from hawkent.measures import _marginal_spectra

        first = [A2FM2, 0.5 + A2FP2] if second is None else [0.5, 0.5]
        second = [A2FP2, 0.5 + A2FM2] if second is None else second
        got = _marginal_spectra(rho[None])[0]
        assert np.abs(got - [first, second]).max() <= 1e-15

    @given(COMPLEX_4X4)
    def test_spectra_sum_to_the_trace(self, g):
        from hawkent.measures import _marginal_spectra

        spectra = _marginal_spectra(_normalised(g)[None])[0]
        assert np.abs(spectra.sum(axis=-1) - 1.0).max() <= 1e-12
        assert np.all(spectra[:, 0] <= spectra[:, 1])

    def test_acts_on_a_stack_state_by_state(self):
        from hawkent.measures import _marginal_spectra

        rng = np.random.default_rng(7)
        stack = rng.normal(size=(6, 4, 4)) + 1.0j * rng.normal(size=(6, 4, 4))
        stack = stack @ stack.conj().swapaxes(-1, -2)
        got = _marginal_spectra(stack)
        for k in range(len(stack)):
            assert np.array_equal(got[k], _marginal_spectra(stack[k : k + 1])[0])


class TestPartialTransposeGather:
    @pytest.mark.parametrize("complex_entries", [True, False], ids=["complex", "real"])
    def test_matches_partial_transpose(self, complex_entries):
        from hawkent.measures import _PT_ENTRIES

        rng = np.random.default_rng(31 + complex_entries)
        m = rng.normal(size=(200, 4, 4))
        if complex_entries:
            m = m + 1.0j * rng.normal(size=(200, 4, 4))
        gathered = m.reshape(-1, 16)[:, _PT_ENTRIES]
        want = m.reshape(-1, 2, 2, 2, 2).swapaxes(-4, -2).reshape(m.shape)
        assert gathered.dtype == want.dtype
        assert gathered.shape == want.shape
        assert np.array_equal(gathered, want)

    @given(COMPLEX_4X4)
    def test_involution_is_exact(self, a):
        from hawkent.measures import _PT_ENTRIES

        once = a.reshape(16)[_PT_ENTRIES]
        assert np.array_equal(once.reshape(16)[_PT_ENTRIES], a)

    def test_product_state_transposes_one_factor(self):
        # and its transpose is the partial transpose on the second factor
        from hawkent.measures import _PT_ENTRIES

        p = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
        q = np.array([[0.7, 0.2], [0.2, 0.3]])
        gathered = np.kron(p, q).reshape(16)[_PT_ENTRIES]
        assert np.array_equal(gathered, np.kron(p.T, q))
        assert np.array_equal(gathered.T, np.kron(p, q.T))

    def test_diagonal_is_kept(self):
        from hawkent.measures import _PT_ENTRIES

        assert np.array_equal(np.diag(_PT_ENTRIES), np.arange(0, 16, 5))


class TestTwoLevelSpectra:
    """The closed-form spectra of 2x2 Hermitian matrices ``[[a, b], [b*, c]]``."""

    @pytest.mark.parametrize(
        "entries,want",
        [
            ((1.0, 1.0, 0.0), [1.0, 1.0]),
            ((1.0, -1.0, 0.0), [-1.0, 1.0]),
            # the block the partial transpose of RHO_AI couples
            ((0.0, A2FP2, RHO_AI[0, 3]), [-A2FM2, 0.5]),
        ],
        ids=["identity", "pauli_z", "coherence_block"],
    )
    def test_known_spectra(self, entries, want):
        from hawkent.measures import _two_level_spectra

        assert np.abs(_two_level_spectra(np.array(entries)) - want).max() <= 1e-12

    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    )
    def test_matches_quadratic_formula(self, a, x, y):
        # unit trace and positive semidefinite, as the Gram matrices and marginals it takes are
        from hawkent.measures import _two_level_spectra

        c = 1.0 - a
        b = (x + 1.0j * y) * math.sqrt(a * c / 2.0)
        disc = math.sqrt((a - c) ** 2 + 4.0 * abs(b) ** 2)
        want = [(a + c - disc) / 2.0, (a + c + disc) / 2.0]
        assert np.abs(_two_level_spectra(np.array([a, c, b])) - want).max() <= 1e-12

    def test_keeps_the_leading_shape(self):
        from hawkent.measures import _two_level_spectra

        rng = np.random.default_rng(5)
        entries = rng.uniform(0.1, 1.0, size=(3, 2, 3)) + 0.0j
        entries[..., 2] *= np.exp(1.0j * rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))) / 4.0
        got = _two_level_spectra(entries)
        assert got.shape == (3, 2, 2)
        for index in np.ndindex(3, 2):
            assert np.array_equal(got[index], _two_level_spectra(entries[index]))


class TestEigenFactor:
    """The concurrence factor ``V sqrt(e)`` reproduces its state."""

    @pytest.mark.parametrize(
        "rho",
        [np.eye(4) / 4.0, RHO_BELL, RHO_AI, RHO_III],
        ids=["maximally_mixed", "bell", "A_I", "I_II"],
    )
    def test_reconstructs_the_state(self, rho):
        from hawkent.measures import _eigen_factor

        factor = _eigen_factor(*np.linalg.eigh(rho[None]))[0]
        assert np.abs(factor @ factor.conj().T - rho).max() <= 1e-14

    def test_rank_cut_zeros_the_dust(self):
        from hawkent.measures import _eigen_factor

        # the cut is 16 eps of the largest eigenvalue, 1.8e-15 here
        evals = np.array([[-1e-17, 1e-15, 1e-14, 0.5]])
        factor = _eigen_factor(evals, np.eye(4)[None])[0]
        assert factor.tolist() == np.diag([0.0, 0.0, 1e-7, math.sqrt(0.5)]).tolist()

    @given(COMPLEX_4X4)
    def test_reconstruction_property(self, g):
        from hawkent.measures import _eigen_factor

        rho = _normalised(g)
        factor = _eigen_factor(*np.linalg.eigh(rho[None]))[0]
        assert np.abs(factor @ factor.conj().T - rho).max() <= 1e-10


class TestEigensolverPair:
    """``_eigh`` and ``_eigvalsh`` are numpy's ``eigh`` and ``eigvalsh``, bit for bit."""

    @staticmethod
    def _same(got, want):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("k", [0, 1, 240])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
    def test_matches_numpy(self, dtype, k, size):
        from hawkent.measures import _eigh, _eigvalsh

        rng = np.random.default_rng(1000 * size + k)
        a = rng.normal(size=(k, size, size))
        if dtype is np.complex128:
            a = a + 1.0j * rng.normal(size=(k, size, size))
        a = a + a.conj().swapaxes(-1, -2)
        evals, vecs = _eigh(a)
        want_evals, want_vecs = np.linalg.eigh(a)
        self._same(evals, want_evals)
        self._same(vecs, want_vecs)
        self._same(_eigvalsh(a), np.linalg.eigvalsh(a))

    @pytest.mark.parametrize("fill", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
    @pytest.mark.parametrize("name", ["eigh", "eigvalsh"])
    def test_non_convergence_raises_like_numpy(self, name, dtype, fill):
        a = np.full((1, 4, 4), fill, dtype)
        with pytest.raises(np.linalg.LinAlgError) as want:
            getattr(np.linalg, name)(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError) as got:
                getattr(hawkent.measures, f"_{name}")(a)
        assert str(got.value) == str(want.value) == "Eigenvalues did not converge"
