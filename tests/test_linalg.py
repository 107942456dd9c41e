"""Contract tests for the dense linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hawkent.linalg import (
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    psd_square_root_factor,
)

I2 = np.eye(2)
PAULI_Z = np.diag([1.0, -1.0])

# A-I pair state at alpha^2 = 0.5, omega = 1, T = 1: populations
# alpha^2 f-^2, alpha^2 f+^2, 1 - alpha^2 plus the |00><11| coherence.
RHO_AI = np.zeros((4, 4), dtype=complex)
RHO_AI[0, 0] = 0.365529289315002
RHO_AI[1, 1] = 0.134470710684998
RHO_AI[3, 3] = 0.5
RHO_AI[0, 3] = RHO_AI[3, 0] = 0.427509818200122

# Amplitudes of the tripartite state at the same point, index 4m+2n+p.
AMPS = np.zeros(8)
AMPS[0] = 0.604590182946269
AMPS[3] = 0.366702482518182
AMPS[6] = 0.707106781186548

BELL = np.zeros(4)
BELL[0] = BELL[3] = 1.0 / np.sqrt(2.0)
RHO_BELL = np.outer(BELL, BELL)

_ELEMENTS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _complex_matrices(n):
    shape = (n, n)
    return st.tuples(
        arrays(np.float64, shape, elements=_ELEMENTS),
        arrays(np.float64, shape, elements=_ELEMENTS),
    ).map(lambda parts: parts[0] + 1.0j * parts[1])


class TestPartialTrace:
    def test_product_state_factors(self):
        p = np.diag([0.3, 0.7])
        q = np.array([[0.5, 0.2], [0.2, 0.5]])
        both = np.kron(p, q)
        assert np.allclose(partial_trace(both, (2, 2), keep="first"), p, atol=1e-14)
        assert np.allclose(partial_trace(both, (2, 2), keep="second"), q, atol=1e-14)

    def test_bell_marginals_are_maximally_mixed(self):
        for keep in ("first", "second"):
            assert np.allclose(partial_trace(RHO_BELL, (2, 2), keep=keep), I2 / 2, atol=1e-14)

    def test_tripartite_reduction_a_i(self):
        rho = np.outer(AMPS, AMPS)
        assert np.abs(partial_trace(rho, (4, 2), keep="first") - RHO_AI).max() <= 1e-12

    def test_tripartite_reduction_i_ii(self):
        rho = np.outer(AMPS, AMPS)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.365529289315002
        expected[2, 2] = 0.5
        expected[3, 3] = 0.134470710684998
        expected[0, 3] = expected[3, 0] = 0.221704720992519
        got = partial_trace(rho, (2, 4), keep="second")
        assert np.abs(got - expected).max() <= 1e-12

    @given(_complex_matrices(4))
    def test_trace_preserved(self, a):
        for keep in ("first", "second"):
            reduced = partial_trace(a, (2, 2), keep=keep)
            assert abs(reduced.trace() - a.trace()) <= 1e-12

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="bipartition"):
            partial_trace(np.eye(8), (3, 2))

    @pytest.mark.parametrize("dims", [("2", "2"), (2.0, 2.0)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(ValueError, match="pair of positive integers"):
            partial_trace(np.eye(4), dims)

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), (2, 2), keep="third")


class TestPartialTranspose:
    @given(_complex_matrices(4))
    def test_involution_is_exact(self, a):
        once = partial_transpose(a, (2, 2), "first")
        assert np.array_equal(partial_transpose(once, (2, 2), "first"), a.astype(complex))

    def test_product_state_transposes_one_factor(self):
        p = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
        q = np.array([[0.7, 0.2], [0.2, 0.3]])
        assert np.array_equal(
            partial_transpose(np.kron(p, q), (2, 2), "first"), np.kron(p.T, q)
        )
        assert np.array_equal(
            partial_transpose(np.kron(p, q), (2, 2), "second"), np.kron(p, q.T)
        )

    def test_bell_state_minimum(self):
        evals = hermitian_eigenvalues(partial_transpose(RHO_BELL, (2, 2), "first"))
        assert abs(evals[0] - (-0.5)) <= 1e-12

    def test_reduced_pair_minimum(self):
        evals = hermitian_eigenvalues(partial_transpose(RHO_AI, (2, 2), "first"))
        assert abs(evals[0] - (-0.365529289315002)) <= 1e-12

    @given(_complex_matrices(4))
    def test_both_factors_share_spectrum(self, a):
        h = a + a.conj().T
        first = hermitian_eigenvalues(partial_transpose(h, (2, 2), "first"))
        second = hermitian_eigenvalues(partial_transpose(h, (2, 2), "second"))
        assert np.abs(first - second).max() <= 1e-11

    def test_rejects_bad_which(self):
        with pytest.raises(ValueError, match="which"):
            partial_transpose(np.eye(4), (2, 2), "third")


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4))

    def test_pauli_z_ascending(self):
        assert np.allclose(hermitian_eigenvalues(PAULI_Z), [-1.0, 1.0])

    def test_coherence_block(self):
        # the 2x2 block that the partial transpose of RHO_AI couples:
        # eigenvalues (b +- sqrt(b^2 + 4 c^2)) / 2
        b = 0.134470710684998
        c = 0.427509818200122
        evals = hermitian_eigenvalues(np.array([[0.0, c], [c, b]]))
        assert abs(evals[0] - (-0.365529289315002)) <= 1e-12
        assert abs(evals[1] - 0.5) <= 1e-12

    def test_rejects_non_hermitian_with_magnitude(self):
        with pytest.raises(ValueError, match=r"not Hermitian.*2\.000e\+00"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @given(_complex_matrices(4))
    def test_sum_equals_trace(self, a):
        h = a + a.conj().T
        evals = hermitian_eigenvalues(h)
        assert abs(evals.sum() - h.trace().real) <= 1e-11
        assert np.all(np.diff(evals) >= 0.0)

    @given(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    )
    def test_matches_quadratic_formula(self, d0, d1, x, y):
        h = np.array([[d0, x + 1.0j * y], [x - 1.0j * y, d1]])
        disc = np.sqrt((d0 - d1) ** 2 + 4.0 * (x * x + y * y))
        expected = np.array([(d0 + d1 - disc) / 2.0, (d0 + d1 + disc) / 2.0])
        assert np.abs(hermitian_eigenvalues(h) - expected).max() <= 1e-9


class TestPsdSquareRootFactor:
    def test_identity(self):
        assert np.allclose(psd_square_root_factor(np.eye(4)), np.eye(4))

    def test_diagonal_root(self):
        assert np.allclose(psd_square_root_factor(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))

    def test_reconstructs_reduced_pair_state(self):
        factor = psd_square_root_factor(RHO_AI)
        assert np.abs(factor @ factor.conj().T - RHO_AI).max() <= 1e-10
        assert np.abs(factor - factor.conj().T).max() <= 1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_square_root_factor(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            psd_square_root_factor(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @given(_complex_matrices(4))
    def test_reconstruction_property(self, g):
        rho = g @ g.conj().T
        factor = psd_square_root_factor(rho)
        assert np.abs(factor @ factor.conj().T - rho).max() <= 1e-10


def test_partial_maps_act_on_stacks_matrix_by_matrix():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(3, 2, 4, 4)) + 1.0j * rng.normal(size=(3, 2, 4, 4))
    for keep in ("first", "second"):
        traced = partial_trace(stack, (2, 2), keep)
        assert traced.shape == (3, 2, 2, 2)
        for index in np.ndindex(3, 2):
            assert np.array_equal(traced[index], partial_trace(stack[index], (2, 2), keep))
    for which in ("first", "second"):
        transposed = partial_transpose(stack, (2, 2), which)
        assert transposed.shape == stack.shape
        for index in np.ndindex(3, 2):
            assert np.array_equal(transposed[index], partial_transpose(stack[index], (2, 2), which))


class TestArithmeticIsKept:
    @pytest.mark.parametrize(
        "rho,dtype",
        [
            (RHO_BELL, np.float64),
            (np.eye(4, dtype=int), np.float64),
            (np.eye(4, dtype=bool), np.float64),
            (np.eye(4, dtype=np.float32), np.float64),
            (RHO_AI, np.complex128),
        ],
        ids=["float64", "int", "bool", "float32", "complex"],
    )
    def test_stack_helpers_keep_arithmetic(self, rho, dtype):
        assert partial_trace(rho, (2, 2)).dtype == dtype
        assert partial_transpose(rho, (2, 2)).dtype == dtype
        assert partial_transpose(np.array([rho, rho]), (2, 2)).dtype == dtype
