"""Dense complex linear algebra for few-qubit density matrices.

Everything here operates on plain numpy arrays.  The matrices in this
package never exceed 8x8, so the routines favour clarity and strict
input checking over speed.  Bipartite structure is passed explicitly as
``dims = (d1, d2)`` with the first factor varying slowest (row index
``i1 * d2 + i2``).  ``partial_trace`` and ``partial_transpose`` also
take a stack of matrices, shape ``(..., d, d)``, and act on each.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITICITY_ATOL",
    "PSD_ATOL",
    "mat_mul",
    "adjoint",
    "kron",
    "hermiticity_defect",
    "partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "psd_square_root_factor",
]

# Tolerances for the structural gates below.  Hermiticity is checked
# entrywise; positivity on the eigenvalue spectrum.
HERMITICITY_ATOL = 1e-12
PSD_ATOL = 1e-10


def _as_square_stack(a) -> np.ndarray:
    """Coerce to finite complex matrices, square in the last two axes, or raise ValueError."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def _as_square(a) -> np.ndarray:
    """Coerce to a finite square complex matrix or raise ValueError."""
    m = _as_square_stack(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _split_dims(dim: int, dims) -> tuple[int, int]:
    try:
        d1, d2 = (int(d) for d in dims)
    except (TypeError, ValueError):
        raise ValueError(f"dims must be a pair of positive integers, got {dims!r}") from None
    if d1 < 1 or d2 < 1 or d1 * d2 != dim:
        raise ValueError(f"bipartition {(d1, d2)} does not factor matrix dimension {dim}")
    return d1, d2


def mat_mul(a, b) -> np.ndarray:
    """Product of two equally sized square matrices.

    Raises
    ------
    ValueError
        If either argument is not square or the dimensions differ.
    """
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_square(a).conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product.

    Row index of the result is ``i_a * dim_b + i_b``, i.e. the first
    argument is the slow (leftmost) factor.
    """
    return np.kron(_as_square(a), _as_square(b))


def hermiticity_defect(a) -> float:
    """Largest entrywise magnitude of ``a - a^dagger``."""
    m = _as_square(a)
    return float(np.abs(m - m.conj().T).max())


def partial_trace(rho, dims, keep: str = "first") -> np.ndarray:
    """Trace out one factor of a bipartite matrix.

    Parameters
    ----------
    rho : array_like
        Square matrix on the product space ``dims[0] * dims[1]``, or a
        stack of them along leading axes.
    dims : (int, int)
        Dimensions of the two factors.
    keep : {"first", "second"}
        Which factor survives.

    Returns
    -------
    numpy.ndarray
        The reduced matrix on the kept factor, one per input matrix.
        Trace is preserved.
    """
    m = _as_square_stack(rho)
    d1, d2 = _split_dims(m.shape[-1], dims)
    t = m.reshape(*m.shape[:-2], d1, d2, d1, d2)
    if keep == "first":
        return np.trace(t, axis1=-3, axis2=-1)
    if keep == "second":
        return np.trace(t, axis1=-4, axis2=-2)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def partial_transpose(rho, dims, which: str = "first") -> np.ndarray:
    """Transpose one factor of a bipartite matrix.

    An involution: applying it twice returns the input exactly.  The
    result of transposing either factor has the same spectrum.  A stack
    of matrices is transposed matrix by matrix.
    """
    m = _as_square_stack(rho)
    d1, d2 = _split_dims(m.shape[-1], dims)
    t = m.reshape(*m.shape[:-2], d1, d2, d1, d2)
    if which == "first":
        return np.swapaxes(t, -4, -2).reshape(m.shape)
    if which == "second":
        return np.swapaxes(t, -3, -1).reshape(m.shape)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


def hermitian_eigenvalues(a, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises
    ------
    ValueError
        If the largest entry of ``a - a^dagger`` exceeds ``atol``; the
        message reports the offending magnitude.
    """
    m = _as_square(a)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > atol:
        raise ValueError(
            f"matrix is not Hermitian: max |a - a^dagger| entry is {defect:.3e}"
        )
    return np.linalg.eigvalsh(m)


def psd_square_root_factor(rho, atol: float = PSD_ATOL) -> np.ndarray:
    """Hermitian factor ``L`` with ``rho = L @ L^dagger``.

    ``L`` is the principal square root, built from the eigensystem of
    ``rho``.  Eigenvalue dust in ``[-atol, 0)`` is clamped to zero
    before the square root.

    Raises
    ------
    ValueError
        If ``rho`` is not Hermitian, or an eigenvalue lies below
        ``-atol``.
    """
    m = _as_square(rho)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |a - a^dagger| entry is {defect:.3e}"
        )
    evals, vecs = np.linalg.eigh(m)
    if evals[0] < -atol:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {evals[0]:.3e}")
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T
