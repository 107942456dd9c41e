"""Bipartite density matrices and two-qubit correlation measures.

A ``DensityMatrix`` couples a validated matrix to its tensor split, so
every measure knows which cut it refers to.  The split is passed as
``dims = (d1, d2)`` with the first factor varying slowest (row index
``i1 * d2 + i2``).  Bool, integer and real input is computed in
``float64``, anything else in ``complex128``.  All entropic quantities
are in bits (logarithms base 2).  The closed forms' binary entropies
take libm's ``log2``, in one kernel; the spectral route takes numpy's.

The concurrence follows the spin-flip construction: with
``rho_tilde = (sy x sy) conj(rho) (sy x sy)`` and ``l1 >= ... >= l4``
the eigenvalues of ``rho @ rho_tilde``,

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)).

With any factor ``rho = L L^dagger`` the roots ``sqrt(l_i)`` are the
singular values ``s_i`` of the complex symmetric matrix
``M = L^T (sy x sy) L`` (Wootters, PRL 80, 2245 (1998); Uhlmann, PRA 62,
032307 (2000)).  The stack route reads them off the real symmetric
embedding ``H = [[Re M, Im M], [Im M, -Re M]]``: if ``M conj(u) = s u``
with ``u = x + iy``, then ``H [x; y] = s [x; y]`` and
``H [-y; x] = -s [-y; x]``, so the eigenvalues of ``H`` are exactly
``+-s_i`` and the roots are its ``r`` largest.  They are never squared
and rooted again: an absolute rounding error ``d`` in an eigenvalue
``l`` would otherwise become ``d / (2 sqrt(l))`` in its root.

Near a rank-deficient state C is only Hölder-1/2 in ``rho``: an
eigenvalue ``e`` of ``rho`` moves the roots by about ``sqrt(e)``.  The
eigensolver leaves dust of a few units of rounding where ``rho`` has
exact zeros, and that dust cannot be told from zero in float64, so
eigenvalues of ``rho`` below ``16 eps`` times its largest are set to
zero before ``L`` is formed.  The result is accurate to O(eps), not
O(sqrt(eps)).

Two routes reach the spectra of a stack of states, and one kernel,
:func:`_measures`, takes the four measures from them and the states:
it solves the partial transposes, a fixed gather of 16 entries of each
state, for both routes, and puts both marginal spectra, the joint
spectrum and the EoF pair through one ``x log2 x`` pass.
:func:`measure_stack` takes one ``eigh`` of the stack, the marginal
spectra in closed form from the 2x2 entries, and the embedding ``H`` of
``M`` for ``L = V sqrt(e)``, which is 8x8, so the stack costs three
LAPACK calls: ``eigh`` and two ``eigvalsh``.  A verified sweep measures
the pair states of pure three-qubit states from their amplitudes, with
no ``eigh`` and one ``eigvalsh``; :func:`_factor_measures` describes
that route.  Real input stays real, so the real pair states of the
model reach the real LAPACK routines, and ``H`` is real for every
input.  A :class:`DensityMatrix` is gated when built; single-state
measures read its gate's eigensystem.  Each spectrum takes the
positivity gate once: the joint spectra in the density gate, the
marginal spectra of a stack in :func:`_stack_measures`, and the factor
route's Gram spectra, which are its joint and its marginal spectra
alike, in the density gate alone; the kernel gates nothing.

Every LAPACK call goes straight to numpy's ``eigh`` and ``eigvalsh``
gufuncs, under the error settings of numpy's own wrapper, so the
values are numpy's bit for bit and a solve that does not converge
still raises ``LinAlgError``.  The call counts are three per
:func:`measure_stack` and one per verified sweep.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "HERMITICITY_ATOL",
    "PSD_ATOL",
    "TRACE_ATOL",
    "DensityMatrix",
    "MeasureSet",
    "validate_density",
    "binary_entropy",
    "von_neumann_entropy",
    "concurrence",
    "entanglement_of_formation",
    "mutual_information",
    "min_pt_eigenvalue",
    "one_to_rest_tangle",
    "measure_set",
    "measure_stack",
]

# Tolerances of the density gate: Hermiticity and trace entrywise,
# positivity on the eigenvalue spectrum.
HERMITICITY_ATOL = 1e-12
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-12

# Eigenvalues of rho this far below its largest are rounding dust.
_RANK_CUT = 16.0 * np.finfo(float).eps

# ``(sy x sy) L`` is ``L`` with its rows reversed and the first and last negated.
_SPIN_FLIP_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# numpy's own error settings around its eigensolvers: a solve that fails
# leaves NaN and the invalid flag, and the flag raises LinAlgError.
_LAPACK_ERRORS = dict(
    call=_lapack_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``eigh`` of a ``float64`` or ``complex128`` stack, as its bare gufunc."""
    with np.errstate(**_LAPACK_ERRORS):
        return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """numpy's ``eigvalsh`` of a ``float64`` or ``complex128`` stack, as its bare gufunc."""
    with np.errstate(**_LAPACK_ERRORS):
        return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix with an explicit bipartition, gated when built.

    Holds a read-only copy of any array-like ``matrix``, ``dims`` as
    ints and the eigensystem the gate took; see :func:`validate_density`.
    """

    matrix: np.ndarray
    dims: tuple[int, int]
    _spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        m = _as_square_stack(self.matrix)
        if m.ndim != 2:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        dim = m.shape[0]
        try:
            d1, d2 = (operator.index(d) for d in self.dims)
        except (TypeError, ValueError):
            raise ValueError(
                f"dims must be a pair of positive integers, got {self.dims!r}"
            ) from None
        if d1 < 1 or d2 < 1 or d1 * d2 != dim:
            raise ValueError(f"bipartition {(d1, d2)} does not factor matrix dimension {dim}")
        evals, vecs = _eigh(m)
        _check_density(m[None], evals[:1])
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", (d1, d2))
        object.__setattr__(self, "_spectrum", (evals, vecs))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MeasureSet:
    """The four pairwise measures evaluated on one state."""

    concurrence: float
    eof: float
    mutual_information: float
    min_pt_eigenvalue: float


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


def _not_psd(lowest: float) -> ValueError:
    return ValueError(f"matrix is not positive semidefinite: eigenvalue {lowest:.3e}")


def _check_density(m: np.ndarray, lowest: np.ndarray) -> None:
    """The density gate on a finite ``(K, d, d)`` stack.

    ``lowest`` holds the smallest eigenvalue of each state.  The first
    state that is not Hermitian within 1e-12, not of unit trace within
    1e-12 or has an eigenvalue below -1e-10 raises the ValueError that
    :func:`validate_density` gives for it.  Pass or fail is decided on
    the maxima over the whole stack; the defect of each state is taken
    only when some state fails.
    """
    k, d = m.shape[:2]
    defect = np.abs(m - m.swapaxes(-1, -2).conj())
    trace = m.reshape(k, d * d)[:, :: d + 1].sum(axis=1)
    if (
        defect.max(initial=0.0) <= HERMITICITY_ATOL
        and np.abs(trace - 1.0).max(initial=0.0) <= TRACE_ATOL
        and lowest.min(initial=0.0) >= -PSD_ATOL
    ):
        return
    defect = defect.reshape(k, d * d).max(axis=1)
    bad = (defect > HERMITICITY_ATOL) | (np.abs(trace - 1.0) > TRACE_ATOL) | (lowest < -PSD_ATOL)
    first = bad.argmax()
    if defect[first] > HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |a - a^dagger| entry is {defect[first]:.3e}"
        )
    if abs(trace[first] - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace is {trace[first].real:.15g}, expected 1 within {TRACE_ATOL:g}")
    raise _not_psd(lowest[first])


def validate_density(matrix, dims) -> DensityMatrix:
    """Check the density-matrix axioms and attach the bipartition.

    Requirements: square and finite, ``dims[0] * dims[1]`` matches the
    matrix dimension, Hermitian within 1e-12 entrywise, unit trace
    within 1e-12, and no eigenvalue below -1e-10.  The state holds a
    read-only copy of ``matrix``, real (``float64``) for real input and
    ``complex128`` otherwise, and the eigensystem the gate took.

    Raises
    ------
    ValueError
        On any violated requirement, naming the offending quantity.
    """
    return DensityMatrix(matrix, dims)


def _binary_entropies(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits of each cell of an ``(N, k)`` block of probabilities in [0, 1].

    Each cell is ``0.0 - p log2 p - (1 - p) log1p(-p) / ln 2``, its
    logarithms libm's ``math.log2`` and ``math.log1p`` (numpy's differ in
    the last bit on some arguments).  ``log1p`` keeps the second term,
    about ``p / ln 2``, for a small ``p``, where ``log2(1 - p)`` would
    lose it once ``1 - p`` rounds to 1.  A cell of 0 or 1 takes a zero
    logarithm for its zero-weight term, so it comes out ``+0.0``.  There
    is no clamp.
    """
    log_p = np.fromiter(map(math.log2, np.where(p > 0.0, p, 1.0).ravel().tolist()), float, p.size)
    log_q = np.fromiter(map(math.log1p, np.where(p < 1.0, -p, 0.0).ravel().tolist()), float, p.size)
    return 0.0 - p * log_p.reshape(p.shape) - (1.0 - p) * log_q.reshape(p.shape) / math.log(2.0)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a biased coin, in bits: one cell of the closed forms' kernel."""
    if -TRACE_ATOL <= p < 0.0:
        p = 0.0
    elif 1.0 < p <= 1.0 + TRACE_ATOL:
        p = 1.0
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return float(_binary_entropies(np.array([[p]], float))[0, 0])


def _xlogx(x: np.ndarray) -> np.ndarray:
    """``x log2 x`` elementwise, with 0 where ``x <= 0``."""
    return x * np.log2(x, out=np.zeros(x.shape), where=x > 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum, in bits; 0 for pure states."""
    return 0.0 - float(_xlogx(rho._spectrum[0]).sum())


def _eigen_factor(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The factor ``V diag(sqrt(e))`` of each state, from its ascending eigensystem.

    Eigenvalues below ``_RANK_CUT`` times the largest, negative dust
    included, become exact zeros first.
    """
    kept = evals >= _RANK_CUT * evals[..., -1:]
    return vecs * np.sqrt(evals * kept)[..., None, :]


def _two_level_spectra(entries: np.ndarray) -> np.ndarray:
    """Ascending spectra ``(..., 2)`` of the Hermitian ``[[a, b], [b*, c]]``.

    ``entries`` holds ``(a, c, b)`` along its last axis.  The larger
    eigenvalue is ``(a + c) / 2 + hypot((a - c) / 2, |b|)``; the smaller
    is taken as ``(a c - |b|^2)`` over it rather than as the
    difference, which cancels when the matrix is near rank one.
    """
    a, c, b = entries[..., 0].real, entries[..., 1].real, np.abs(entries[..., 2])
    out = np.empty((*a.shape, 2))
    high = np.add((a + c) / 2.0, np.hypot((a - c) / 2.0, b), out=out[..., 1])
    np.divide(a * c - b * b, high, out=out[..., 0])
    return out


# Flat ``row * 4 + col`` entries of a two-qubit state whose pair sums are ``a``,
# ``c`` and ``b`` of its marginals ``[[a, b], [b*, c]]``, first qubit kept, then
# second: the first terms of each sum, then the second terms.
_MARGINAL_TERMS = np.array([[[0, 10, 2], [0, 5, 1]], [[5, 15, 7], [10, 15, 11]]])

# Flat entries of a two-qubit state that form its partial transpose on the
# first qubit: entry ``(i1 i2, j1 j2)`` is read from ``(j1 i2, i1 j2)``.
_PT_ENTRIES = np.arange(16).reshape(2, 2, 2, 2).swapaxes(0, 2).reshape(4, 4)


def _marginal_entries(m: np.ndarray) -> np.ndarray:
    """Entries ``(a, c, b)`` of both one-qubit marginals of ``(K, 4, 4)`` states, ``(K, 2, 3)``."""
    flat = m.reshape(-1, 16)
    return flat[:, _MARGINAL_TERMS[0]] + flat[:, _MARGINAL_TERMS[1]]


def _marginal_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending spectra ``(K, 2, 2)`` of both one-qubit marginals of ``(K, 4, 4)`` states."""
    return _two_level_spectra(_marginal_entries(m))


def _spin_flip_embedding(factor: np.ndarray) -> np.ndarray:
    """The real symmetric ``(K, 2r, 2r)`` embeddings of a ``(K, 4, r)`` factor stack.

    Each is ``[[Re M, Im M], [Im M, -Re M]]`` for ``M = L^T (sy x sy) L``,
    and its eigenvalues are ``+-`` the singular values of ``M`` (see the
    module docstring).
    """
    k, r = factor.shape[0], factor.shape[-1]
    flipped = (_SPIN_FLIP_SIGNS * factor[:, ::-1]).swapaxes(-1, -2) @ factor
    embedding = np.empty((k, 2 * r, 2 * r))
    embedding[:, :r, :r] = flipped.real
    np.negative(flipped.real, out=embedding[:, r:, r:])
    embedding[:, :r, r:] = embedding[:, r:, :r] = flipped.imag
    return embedding


def _measures(gap: np.ndarray, m: np.ndarray, joint: np.ndarray, marginals: np.ndarray) -> np.ndarray:
    """The ``(K, 4)`` measures of gated ``(K, 4, 4)`` two-qubit states ``m``, from their spectra.

    ``gap`` holds each state's concurrence before it is clipped at 0,
    ``s1 - s2 - ... - s_r`` of its concurrence roots (see the module
    docstring), ``joint`` its ascending nonzero spectrum (zeros may be
    left out: they add nothing to the entropy) and ``marginals`` the
    ``(K, 2, 2)`` spectra of both one-qubit marginals; its callers gate
    every spectrum, it gates none.  The partial transposes of ``m``, on
    the first qubit, take one ``eigvalsh``.  Each state's probabilities
    (both marginal spectra, the EoF pair ``p, 1 - p`` and the joint
    spectrum) form one row of a block that takes one ``x log2 x`` pass;
    entropies are ``0.0 - sum``, so a zero entropy is ``+0.0``, and so
    is a zero concurrence.
    """
    k, r = joint.shape
    out = np.empty((k, 4))
    p = np.empty((k, 6 + r))
    p[:, :4] = marginals.reshape(k, 4)
    # adding 0.0 folds a -0.0 concurrence into +0.0
    c = np.maximum(0.0, gap, out=out[:, 0])
    c += 0.0
    p[:, 4] = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0
    p[:, 5] = 1.0 - p[:, 4]
    p[:, 6:] = joint
    h = _xlogx(p)
    # minus the entropies of the two marginals and of the EoF pair
    pairs = h[:, 0:6:2] + h[:, 1:6:2]
    np.subtract(0.0, pairs[:, 2], out=out[:, 1])
    np.subtract(h[:, 6:].sum(axis=1), pairs[:, 0] + pairs[:, 1], out=out[:, 2])
    out[:, 3] = _eigvalsh(m.reshape(-1, 16)[:, _PT_ENTRIES])[:, 0]
    return out


def _stack_measures(m: np.ndarray, evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The ``(K, 4)`` measures of gated ``(K, 4, 4)`` states from their ascending eigensystems.

    The concurrence roots are the four largest eigenvalues of the 8x8
    embeddings of the factors ``V sqrt(e)`` after the rank cut; the
    embeddings take one ``eigvalsh``, and the kernel another.
    The closed-form marginal spectra take the positivity gate of
    :func:`validate_density` here, before either call: no other gate has
    seen them.
    """
    marginals = _marginal_spectra(m)
    lowest = marginals[:, :, 0]
    bad = lowest < -PSD_ATOL
    if bad.any():
        raise _not_psd(lowest[bad][0])
    roots = _eigvalsh(_spin_flip_embedding(_eigen_factor(evals, vecs)))[:, 4:]
    return _measures(roots[:, -1] - roots[:, :-1].sum(axis=-1), m, evals, marginals)


# Flat ``row * 2 + col`` entries of a 4x2 factor ``L`` whose products give the
# Gram and spin-flip entries: row ``n`` of the ``(K, 6)`` sums adds up
# ``[conj L, L, -L][_PRODUCT_LEFT[n]] * L[_PRODUCT_RIGHT[n]]`` over four terms.
# Rows 0-2 are ``(a, c, b)`` of ``L^dagger L = [[a, b], [b*, c]]``, sums of
# ``conj(L[i, j]) L[i, l]``; rows 3-5 are ``(M00, M11, M01)`` of
# ``M = L^T (sy x sy) L``, sums of ``s_i L[3 - i, j] L[i, l]`` whose spin-flip
# signs ``s_i`` pick ``L`` or ``-L``.
_COLUMN_0 = np.arange(0, 8, 2)
_FLIPPED_0 = np.where(_SPIN_FLIP_SIGNS[:, 0] < 0.0, 16, 8) + _COLUMN_0[::-1]
_PRODUCT_LEFT = np.array(
    [_COLUMN_0, _COLUMN_0 + 1, _COLUMN_0, _FLIPPED_0, _FLIPPED_0 + 1, _FLIPPED_0]
)
_PRODUCT_RIGHT = np.array([_COLUMN_0, _COLUMN_0 + 1, _COLUMN_0 + 1] * 2)


def _factor_products(factors: np.ndarray) -> np.ndarray:
    """The ``(K, 6)`` Gram and spin-flip entries of a ``(K, 4, 2)`` factor stack.

    Each row holds ``(a, c, b)`` of ``L^dagger L``, then ``(M00, M11, M01)``
    of ``M = L^T (sy x sy) L``, each entry a sum of four gathered
    products (see ``_PRODUCT_LEFT``); no BLAS call is made.
    """
    flat = factors.reshape(-1, 8)
    left = np.concatenate((flat.conj(), flat, -flat), axis=1)
    return (left[:, _PRODUCT_LEFT] * flat[:, _PRODUCT_RIGHT]).sum(axis=-1)


def _spin_flip_gap(flip: np.ndarray) -> np.ndarray:
    """``s1 - s2`` of the singular values of each 2x2 complex symmetric ``M``.

    ``flip`` holds ``(M00, M11, M01) = (p, r, q)`` in its ``(K, 3)`` rows.
    The gap is ``(s1^2 - s2^2) / (s1 + s2)``, which does not cancel: the
    numerator is the eigenvalue gap of ``M^dagger M``,
    ``2 hypot((|p|^2 - |r|^2) / 2, |conj(p) q + conj(q) r|)``, and
    ``(s1 + s2)^2 = |p|^2 + 2 |q|^2 + |r|^2 + 2 |pr - q^2|``.  ``M`` is
    scaled by its largest ``|entry|`` first, so no square underflows or
    overflows; ``M = 0`` gives ``0.0``.
    """
    scale = np.abs(flip).max(axis=1)
    p, r, q = (flip / np.where(scale > 0.0, scale, 1.0)[:, None]).T
    pp, rr, qq = (p * p.conj()).real, (r * r.conj()).real, (q * q.conj()).real
    gap = np.hypot(pp - rr, 2.0 * np.abs(p.conj() * q + q.conj() * r))
    total = np.sqrt(pp + rr + 2.0 * (qq + np.abs(p * r - q * q)))
    return scale * np.divide(gap, total, out=np.zeros(len(flip)), where=total > 0.0)


# Basis index ``4 q1 + 2 q2 + q3`` of each entry of the 4x2 factors of the
# pairs of a pure three-qubit state, pairs (q1 q2), (q1 q3), (q2 q3) as in
# ``ModePair``: the amplitudes with the kept pair indexing the rows and the
# traced-out qubit the columns.
_FACTOR_ENTRIES = np.array([
    [[0, 1], [2, 3], [4, 5], [6, 7]],
    [[0, 2], [1, 3], [4, 6], [5, 7]],
    [[0, 4], [1, 5], [2, 6], [3, 7]],
])

# Each pair's two kept qubits, in ``ModePair`` order, as the pairs that trace
# them out: the Gram matrix of the A_I, A_II and I_II factors is the state of
# II, I and A, so the marginals of A_I are those of I_II and A_II, and so on.
_MARGINAL_PAIRS = np.array([[2, 1], [2, 0], [1, 0]])


def _factor_measures(amplitudes) -> np.ndarray:
    """The ``(N, 3, 4)`` measures of the pair states of N pure three-qubit states.

    ``amplitudes`` holds the states' ``(N, 8)`` amplitudes in the
    ``4 q1 + 2 q2 + q3`` basis, and the pairs come in ``ModePair``
    order.  ``_FACTOR_ENTRIES`` gathers each pair's 4x2 factor ``L``,
    so ``L L^dagger`` is the pair's reduced state.  By the Schmidt
    decomposition its nonzero spectrum is that of the 2x2 Gram matrix
    ``L^dagger L``, which is the state of the traced-out qubit, up to a
    transpose (Coffman, Kundu and Wootters, PRA 61, 052306 (2000)).  So
    the three Gram spectra of a point, taken in closed form, are also
    its one-qubit spectra, and each pair reads its two marginal spectra
    off the other two pairs' (``_MARGINAL_PAIRS``): a point takes three
    two-level spectra, not nine, and no ``eigh``.  The Gram entries and
    ``M = L^T (sy x sy) L`` are gathered sums of four products over the
    whole stack (:func:`_factor_products`), where a batched matmul
    would make one BLAS call per 4x2 matrix.  ``M`` is 2x2, so each C is
    the closed form :func:`_spin_flip_gap`, and the one LAPACK call is
    the kernel's ``eigvalsh`` of the ``3N`` partial transposes.  The
    states ``L L^dagger`` stay a batched matmul, so their partial
    transposes are bit for bit those of the same states handed to
    :func:`measure_stack`.  The states pass the Hermiticity and trace
    gates of :func:`validate_density`.  Positivity holds by
    construction: the rest of the spectrum is exactly zero, so the
    lowest eigenvalue is ``min(0, gram_low)``.  That one gate covers the
    marginal spectra too: they are Gram spectra.
    """
    factors = np.asarray(amplitudes).reshape(-1, 8)[:, _FACTOR_ENTRIES]
    n = len(factors)
    flat = factors.reshape(-1, 4, 2)
    m = flat @ flat.conj().swapaxes(-1, -2)
    products = _factor_products(flat)
    joint = _two_level_spectra(products[:, :3])
    marginals = joint.reshape(n, 3, 2).take(_MARGINAL_PAIRS, axis=1).reshape(-1, 2, 2)
    _check_density(m, np.minimum(joint[:, 0], 0.0))
    return _measures(_spin_flip_gap(products[:, 3:]), m, joint, marginals).reshape(n, 3, 4)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    The roots ``sqrt(l_i)`` are the four largest eigenvalues of the 8x8
    embedding of ``M`` for the factor ``L = V diag(sqrt(e))`` of ``rho``
    (see the module docstring).  Eigenvalues ``e`` below ``16 eps max(e)``,
    negative dust included, count as exact zeros: rounding dust of
    ``eps`` would shift C by about ``sqrt(eps)``.
    """
    return measure_set(rho).concurrence


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Binary entropy of (1 + sqrt(1 - C^2)) / 2; monotone in C."""
    return measure_set(rho).eof


def mutual_information(rho: DensityMatrix) -> float:
    """``S(rho_1) + S(rho_2) - S(rho_12)`` of a two-qubit state, in bits.

    At most 2 bits, and non-negative up to rounding: a product state
    reads O(1e-14) on either side of 0, often below it, and no clamp
    is applied.
    """
    return measure_set(rho).mutual_information


def min_pt_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of a two-qubit state after transposing one factor.

    The partial-transpose spectrum is the same whichever factor is
    transposed.  For qubit pairs a negative value is equivalent to
    entanglement.
    """
    return measure_set(rho).min_pt_eigenvalue


def one_to_rest_tangle(rho_single) -> float:
    """``4 det(rho)`` of a single-qubit reduced state, clamped to [0, 1].

    ``det(rho)`` is the product of its two eigenvalues.  For a pure global
    state this equals the tangle between the qubit and everything else.
    """
    gated = isinstance(rho_single, DensityMatrix)
    m = rho_single.matrix if gated else rho_single
    if np.shape(m) != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {np.shape(m)}")
    low, high = (rho_single if gated else DensityMatrix(m, (2, 1)))._spectrum[0].tolist()
    return min(1.0, max(0.0, 4.0 * low * high))


def measure_stack(states) -> np.ndarray:
    """The four measures of each state in a ``(K, 4, 4)`` stack.

    Returns a ``(K, 4)`` array with the columns of :class:`MeasureSet`.
    Every state must pass the gates of :func:`validate_density`; the
    first state that fails raises the ``ValueError`` that
    ``validate_density`` gives.  The closed-form marginal spectra of the
    stack then take the same positivity gate, and the first below it
    raises the same message (:func:`measure_set` takes this gate too).
    A non-finite entry anywhere in the stack raises before any state is
    gated.

    One ``eigh`` per state feeds the positivity gate, the joint entropy
    and the concurrence factor ``V sqrt(e)``; the spectra of the 8x8
    concurrence embeddings and of the 4x4 partial transposes are one
    ``eigvalsh`` each on the whole stack, three LAPACK calls in all, and
    the marginal spectra are closed forms with no LAPACK call.  (A
    verified sweep measures the pair states of pure states by
    :func:`_factor_measures`, in one LAPACK call.)  A real stack is
    computed in ``float64`` throughout.  A complex stack takes its
    ``eigh`` and partial transposes in ``complex128``; the embeddings
    are real for every input.
    """
    m = np.asarray(states)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"expected a (K, 4, 4) stack of two-qubit states, got shape {m.shape}")
    m = _as_square_stack(m)
    evals, vecs = _eigh(m)
    _check_density(m, evals[:, 0])
    return _stack_measures(m, evals, vecs)


def measure_set(rho: DensityMatrix) -> MeasureSet:
    """All four pairwise measures of one two-qubit state.

    Reads the eigensystem taken when the state was built; the four
    single-state measures are fields of this result.  Dims must be (2, 2).
    """
    if rho.dims != (2, 2):
        raise ValueError(f"measure is defined for qubit pairs, got dims {rho.dims}")
    evals, vecs = rho._spectrum
    return MeasureSet(*_stack_measures(rho.matrix[None], evals[None], vecs[None])[0].tolist())
