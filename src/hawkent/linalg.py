"""Dense linear algebra for few-qubit density matrices.

Everything here operates on plain numpy arrays and keeps their
arithmetic: bool, integer and real input is computed in ``float64``,
anything else in ``complex128``, so a real symmetric matrix reaches the
real LAPACK routines.  The matrices in this package never exceed 8x8,
so the routines favour clarity and strict input checking over speed.
Bipartite structure is passed explicitly as ``dims = (d1, d2)`` with
the first factor varying slowest (row index ``i1 * d2 + i2``).
``partial_trace`` and ``partial_transpose`` also take a stack of
matrices, shape ``(..., d, d)``, and act on each.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "HERMITICITY_ATOL",
    "PSD_ATOL",
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
    """Coerce to finite matrices, square in the last two axes, or raise ValueError.

    Bool, integer and real input becomes ``float64``, anything else
    ``complex128``.
    """
    m = np.asarray(a)
    m = m.astype(float if m.dtype.kind in "biuf" else complex, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def _as_square(a) -> np.ndarray:
    """Coerce to one finite square matrix, dtype as above, or raise ValueError."""
    m = _as_square_stack(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _split_dims(dim: int, dims) -> tuple[int, int]:
    try:
        d1, d2 = (operator.index(d) for d in dims)
    except (TypeError, ValueError):
        raise ValueError(f"dims must be a pair of positive integers, got {dims!r}") from None
    if d1 < 1 or d2 < 1 or d1 * d2 != dim:
        raise ValueError(f"bipartition {(d1, d2)} does not factor matrix dimension {dim}")
    return d1, d2


def _not_hermitian(defect: float) -> ValueError:
    return ValueError(f"matrix is not Hermitian: max |a - a^dagger| entry is {defect:.3e}")


def _not_psd(lowest: float) -> ValueError:
    return ValueError(f"matrix is not positive semidefinite: eigenvalue {lowest:.3e}")


def _hermitian(a) -> np.ndarray:
    """``a`` as a finite square matrix, Hermitian within ``HERMITICITY_ATOL``, or raise ValueError."""
    m = _as_square(a)
    defect = np.abs(m - m.conj().T).max()
    if defect > HERMITICITY_ATOL:
        raise _not_hermitian(defect)
    return m


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


def hermitian_eigenvalues(a) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises
    ------
    ValueError
        If the largest entry of ``a - a^dagger`` exceeds 1e-12; the
        message reports the offending magnitude.
    """
    return np.linalg.eigvalsh(_hermitian(a))


def psd_square_root_factor(rho) -> np.ndarray:
    """Hermitian factor ``L`` with ``rho = L @ L^dagger``.

    ``L`` is the principal square root, built from the eigensystem of
    ``rho``.  Eigenvalue dust in ``[-1e-10, 0)`` is clamped to zero
    before the square root.

    Raises
    ------
    ValueError
        If ``rho`` is not Hermitian, or an eigenvalue lies below
        ``-1e-10``.
    """
    evals, vecs = np.linalg.eigh(_hermitian(rho))
    if evals[0] < -PSD_ATOL:
        raise _not_psd(evals[0])
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T
