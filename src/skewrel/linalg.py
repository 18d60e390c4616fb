"""Dense complex Hermitian linear algebra.

Everything downstream (states, uncertainty functionals, relation checks)
is built on the operations in this module: LAPACK's Hermitian eigensolver
with a fixed ordering and phase convention, and the validation of its
inputs.  The eigensolver works on stacks of matrices
(``hermitian_eig_stack``).  Validation returns the Hermitian part of its
input, so every matrix that passes it is exactly Hermitian.  All
functions are pure; matrices are never mutated in place.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

# Tolerances for input validation.
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix entries must be finite (no NaN/Inf)")
    return a


def as_complex_stack(m) -> np.ndarray:
    """Coerce input to an (N, d, d) complex128 stack with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 3 or a.shape[0] < 1 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise DimensionMismatch(
            f"expected a non-empty stack of square matrices, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix entries must be finite (no NaN/Inf)")
    return a


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of one matrix or of every matrix in a stack."""
    return m.swapaxes(-1, -2).conj()


def hermiticity_defect(m: np.ndarray) -> float:
    """max entrywise |M - M^dagger|, over every matrix of a stack."""
    return float(np.abs(m - _adjoint(m)).max())


def _check_hermitian(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` itself if exactly Hermitian, its Hermitian part if within tolerance."""
    defect = hermiticity_defect(a)
    if defect == 0.0:
        return a
    if defect > HERMITIAN_TOL:
        raise NotHermitian(
            f"{what} is not Hermitian: "
            f"max |M - M^dagger| = {defect:.3e} > {HERMITIAN_TOL:.0e}"
        )
    return (a + _adjoint(a)) / 2.0


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    return _check_hermitian(as_complex_matrix(m), what)


def require_hermitian_stack(ms, what: str = "matrix") -> np.ndarray:
    """require_hermitian for every matrix of an (N, d, d) stack."""
    return _check_hermitian(as_complex_stack(ms), what)


def canonical_phases(vectors: np.ndarray) -> np.ndarray:
    """Rescale each column so its largest-magnitude component is real positive.

    Takes an (N, d, d) stack of eigenvector matrices; ties between
    equally large components go to the lowest row index.
    """
    cols = vectors.swapaxes(-1, -2)  # cols[n, j] is column j of matrix n
    rows = np.arange(cols.shape[0])[:, None]
    pivots = cols[rows, np.arange(cols.shape[1]), np.argmax(np.abs(cols), axis=-1)]
    safe = np.abs(pivots)
    # a zero column has a zero pivot and stays zero whatever its factor
    return vectors * (pivots.conj() / np.where(safe > 0.0, safe, 1.0))[:, None, :]


def sort_descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order a stack of eigensystems: eigenvalues descending, phases canonical.

    w is (N, d) and v is (N, d, d), with v[n][:, j] paired with w[n, j].
    Exact eigenvalue ties are broken by the (phase-canonical) first
    component's real part, also descending, for determinism.
    """
    v = canonical_phases(v)
    order = np.lexsort((-v[:, 0, :].real, -w), axis=-1)
    rows = np.arange(w.shape[0])[:, None]
    sorted_cols = v.swapaxes(-1, -2)[rows, order]
    return w[rows, order], np.ascontiguousarray(sorted_cols.swapaxes(-1, -2))


def hermitian_eig_stack(ms, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a stack of Hermitian matrices with LAPACK (numpy.linalg.eigh).

    Takes an (N, d, d) stack and returns (eigenvalues, eigenvectors) of
    shapes (N, d) and (N, d, d) in the convention of ``sort_descending``.
    Each matrix is diagonalized on its own, so a row's result does not
    depend on the other rows of the stack.

    Raises
    ------
    NotHermitian
        if max |M - M^dagger| of any matrix exceeds HERMITIAN_TOL.
    NoConvergence
        if LAPACK fails to converge.
    """
    a = require_hermitian_stack(ms, what=what)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver did not converge: {exc}") from exc
    return sort_descending(w, v)
