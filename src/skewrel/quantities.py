"""Uncertainty functionals of a quantum state and observables.

For a density matrix rho and Hermitian H (centered as H0 = H - <H> I):

    V(H)      = Tr[rho H0^2]                          variance
    Cov(A,B)  = Tr[rho A0 B0]                         covariance (complex)
    I(H)      = Tr[rho H0^2] - Tr[sqrt(rho) H0 sqrt(rho) H0]
                                                      skew information
    J(H)      = (1/2) Tr[{sqrt(rho), H0}^2] = 2V - I
    U(H)      = sqrt(I J) = sqrt(V^2 - (V - I)^2)
    Corr(A,B) = Tr[rho A B] - Tr[sqrt(rho) A sqrt(rho) B]

plus the one-parameter family I_alpha(H) and the eigenbasis (spectral)
forms of I and the J lower bound used for cross-checks.  Those, and the
bound chain of relations.proof_chain, are weighted sums over one rotation
h_ij = <phi_i|H0|phi_j> into the eigenbasis of rho (_eigenbasis_elements),
taken by one helper (_weighted_sum); the spectral I is its alpha = 1/2
case.  Each is built from the H0 of one helper, _centered, so H + c I
gives the values of H.  full_report evaluates every functional of one
triple and full_report_stack of N triples, through one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    InconsistentResult,
    NegativeSpectrum,
    TraceNotOne,
)
from .linalg import _adjoint, require_hermitian

TRACE_TOL = 1e-10
# Values that are nonnegative in exact arithmetic may come out as tiny
# negatives; anything in [-ROUNDOFF_FLOOR, 0) is reported as 0.
ROUNDOFF_FLOOR = 1e-10
# Eigenvalues of a unit-trace matrix below this are indistinguishable from
# solver roundoff; they are pinned to exactly 0 so sqrt(rho) and the
# eigenbasis sums cannot amplify sqrt(dust) ~ 1e-8 into the functionals.
EIGENVALUE_DUST = 1e-14


class Observable:
    """A validated Hermitian matrix, stored as its exactly Hermitian part."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = require_hermitian(matrix, what="observable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class DensityMatrix:
    """A validated quantum state: one row of a StateStack.

    Invariants checked at construction: Hermitian within 1e-10, all
    eigenvalues >= -1e-10, trace within 1e-10 of 1.  The fields are the
    StateStack arrays of one row, under the same names: matrix (d, d),
    eigenvalues (d,) sorted descending with solver dust pinned to 0,
    eigenvectors (d, d) with eigenvectors[:, j] paired with
    eigenvalues[j], and the PSD square root sqrt (d, d).  They are
    computed once and reused by every functional.  A state holds nothing
    else: the eigenbasis weights are formed from the eigenvalues on each
    call, so no functional writes to a state.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors", "sqrt")

    def __init__(self, matrix):
        self._take_row(StateStack(linalg.as_complex_matrix(matrix)[None]), 0)

    @classmethod
    def from_spectral(cls, eigenvalues, eigenvectors) -> "DensityMatrix":
        """Build a state from a known eigensystem, skipping the eigensolver.

        The eigenvector matrix must be unitary within 1e-10; eigenvalues are
        sorted and phase conventions applied here, so callers may pass them
        in any order.
        """
        w = np.asarray(eigenvalues, dtype=np.float64)
        v = np.asarray(eigenvectors, dtype=np.complex128)
        return StateStack.from_spectral(w[None], v[None]).state(0)

    def _take_row(self, stack: "StateStack", i: int) -> None:
        self.matrix = stack.matrix[i]
        self.eigenvalues = stack.eigenvalues[i]
        self.eigenvectors = stack.eigenvectors[i]
        self.sqrt = stack.sqrt[i]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class StateStack:
    """N validated states of one dimension, as stacked arrays.

    matrix (N, d, d), eigenvalues (N, d) sorted descending with solver dust
    pinned to 0, eigenvectors (N, d, d) and the PSD square roots sqrt
    (N, d, d).  Every row is validated and derived from its own data only,
    so a row does not depend on the rest of the stack.  Both public
    constructors, ``StateStack(ms)`` and ``from_spectral``, check the
    invariants of DensityMatrix on every row.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors", "sqrt")

    def __init__(self, ms):
        """Validate an (N, d, d) stack of density matrices (one batched eigensolve)."""
        m = linalg.as_complex_stack(ms)
        w, v = linalg.hermitian_eig_stack(m, what="density matrix")
        self.matrix, self.eigenvalues, self.eigenvectors, self.sqrt = self._derive(m, w, v)

    @classmethod
    def _trusted(cls, matrix, eigenvalues, eigenvectors, sqrt) -> "StateStack":
        """A stack of arrays that already hold the invariants (no checks)."""
        out = cls.__new__(cls)
        out.matrix, out.eigenvalues, out.eigenvectors, out.sqrt = (
            matrix, eigenvalues, eigenvectors, sqrt
        )
        return out

    @classmethod
    def from_spectral(cls, eigenvalues, eigenvectors) -> "StateStack":
        """States from known eigensystems (N, d) and (N, d, d), skipping the eigensolver.

        Each eigenvector matrix must be unitary within 1e-10; eigenvalues
        are sorted and phase conventions applied here.
        """
        w = np.asarray(eigenvalues, dtype=np.float64)
        v = np.asarray(eigenvectors, dtype=np.complex128)
        n = w.shape[-1]
        if w.ndim != 2 or v.shape != w.shape + (n,):
            raise DimensionMismatch(
                f"eigenvector matrices {v.shape[1:]} do not match eigenvalues {w.shape[1:]}"
            )
        gram_defect = float(np.abs(_adjoint(v) @ v - np.eye(n)).max(initial=0.0))
        if gram_defect > 1e-10:
            raise DimensionMismatch(
                f"eigenvectors are not orthonormal: max |V^dagger V - I| = {gram_defect:.3e}"
            )
        w, v = linalg.sort_descending(w, v)
        return cls._trusted(*cls._derive((v * w[:, None, :]) @ _adjoint(v), w, v))

    @staticmethod
    def _derive(matrix, eigenvalues, eigenvectors):
        """Check PSD and unit trace per row, pin dust, and derive the square roots.

        ``eigenvalues`` and ``eigenvectors`` must be the sorted eigensystem
        of the Hermitian ``matrix``; returns the four stack arrays.
        """
        w = eigenvalues
        lowest = w.min(initial=0.0)
        if lowest < -linalg.PSD_TOL:
            raise NegativeSpectrum(
                f"density matrix is not PSD: smallest eigenvalue {lowest:.3e}"
            )
        with np.errstate(over="ignore"):  # a trace beyond the largest double is inf
            tr = w.sum(axis=-1)
        off = ~(np.abs(tr - 1.0) <= TRACE_TOL)  # also catches a NaN spectrum from overflow
        if off.any():
            raise TraceNotOne(
                f"density matrix has unit-trace violation: Tr = {float(tr[off][0])!r}"
            )
        clean = np.where(w < EIGENVALUE_DUST, 0.0, w)  # also clamps tolerated negatives
        v = eigenvectors
        return (
            np.ascontiguousarray((matrix + _adjoint(matrix)) / 2.0),
            clean,
            v,
            (v * np.sqrt(clean)[:, None, :]) @ _adjoint(v),
        )

    def state(self, i: int) -> DensityMatrix:
        """Row i as a DensityMatrix (sharing this stack's memory)."""
        rho = DensityMatrix.__new__(DensityMatrix)
        rho._take_row(self, i)
        return rho

    def take(self, rows) -> "StateStack":
        """The selected rows, as a new stack."""
        return StateStack._trusted(
            self.matrix[rows], self.eigenvalues[rows], self.eigenvectors[rows], self.sqrt[rows]
        )

    def replace(self, rows, other: "StateStack") -> "StateStack":
        """A copy of this stack with ``rows`` taken from ``other``, row for row."""
        out = StateStack._trusted(
            self.matrix.copy(), self.eigenvalues.copy(), self.eigenvectors.copy(), self.sqrt.copy()
        )
        out.matrix[rows] = other.matrix
        out.eigenvalues[rows] = other.eigenvalues
        out.eigenvectors[rows] = other.eigenvectors
        out.sqrt[rows] = other.sqrt
        return out


@dataclass(frozen=True)
class UncertaintyReport:
    """Every scalar functional of one (rho, A, B) triple.

    full_report_stack fills the same fields with (N,) arrays, one entry
    per triple of the stack.
    """

    mean_a: float
    mean_b: float
    v_a: float
    v_b: float
    i_a: float
    i_b: float
    j_a: float
    j_b: float
    u_a: float
    u_b: float
    cov: complex
    corr: complex
    commutator_avg: complex


def _observables(rho: DensityMatrix, *hs) -> list[np.ndarray]:
    """The validated matrices of the observables ``hs``, each of rho's shape."""
    mats = [
        h.matrix if isinstance(h, Observable) else require_hermitian(h, what="observable")
        for h in hs
    ]
    for m in mats:
        if m.shape != rho.matrix.shape:
            raise DimensionMismatch(
                f"state dim {rho.matrix.shape[0]} vs observable shape {m.shape}"
            )
    return mats


def _real_floor(x: float) -> float:
    return 0.0 if -ROUNDOFF_FLOOR <= x < 0.0 else x


def _centered(rho: np.ndarray, obs) -> tuple[np.ndarray, np.ndarray]:
    """Means Tr[rho H] and centered H0 = H - Tr[rho H] I (a new array) of ``obs``.

    Tr[rho H] = sum_ij conj(rho_ij) H_ij for an exactly Hermitian rho, and
    vecdot sums each row on its own, so a mean does not depend on its stack.
    """
    h0 = np.array(obs)
    d = h0.shape[-1]
    flat = h0.reshape(h0.shape[:-2] + (d * d,))
    means = np.vecdot(rho.reshape(rho.shape[:-2] + (d * d,)), flat).real
    flat[..., :: d + 1] -= means[..., None]
    return means, h0


def _eigenbasis_elements(rho: DensityMatrix, *hs) -> np.ndarray:
    """h_ij = <phi_i| H0 |phi_j> of every observable in ``hs``, as one (k, d, d) rotation."""
    _, h0 = _centered(rho.matrix, _observables(rho, *hs))
    v = rho.eigenvectors
    return _adjoint(v) @ h0 @ v


def _weighted_sum(helems: np.ndarray, pa: np.ndarray, pb=None, plus=False) -> float:
    """(1/2) sum_{i != j} (pa_i -+ pa_j)(pb_i -+ pb_j) |h_ij|^2 over rotated elements h_ij.

    With pa = l^alpha, pb = l^(1-alpha) and the minus sign this is
    I_alpha, whose weight vanishes on the diagonal by itself.  pb defaults
    to pa, the alpha = 1/2 case pa = pb = sqrt(l); with the plus sign
    that is the J lower bound, whose weight (sqrt(l_i) + sqrt(l_j))^2 is
    cut off the diagonal.
    """
    op = np.add if plus else np.subtract
    wa = op(pa[:, None], pa)
    weight = wa * (wa if pb is None else op(pb[:, None], pb))
    if plus:
        weight.flat[:: len(pa) + 1] = 0.0
    return 0.5 * float(np.vdot(weight, (helems * helems.conj()).real))


def wyd_skew_information(rho: DensityMatrix, h, alpha: float) -> float:
    """One-parameter skew information (1/2) Tr[(i[rho^a, H])(i[rho^(1-a), H])].

    Evaluated in the eigenbasis of rho as
    (1/2) sum_ij (l_i^a - l_j^a)(l_i^(1-a) - l_j^(1-a)) |h_ij|^2 with
    h = V^dagger H0 V: the weight vanishes on the diagonal, so centering
    changes no exact value, but H + c I loses no precision.  Only the
    open interval 0 < alpha < 1 is accepted: at the endpoints rho^0 would
    be rank-dependent, so the request is rejected rather than silently
    computed.  Symmetric under alpha <-> 1 - alpha; at alpha = 1/2 it is
    the same sum as spectral_sums' skew_information, and equal to the
    skew information I (full_report's i_a, i_b).
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must satisfy 0 < alpha < 1, got {alpha}")
    lam = rho.eigenvalues  # dust-pinned, so already >= 0
    return _real_floor(_weighted_sum(matrix_elements(rho, h), lam**alpha, lam ** (1.0 - alpha)))


def matrix_elements(rho: DensityMatrix, h) -> np.ndarray:
    """h_ij = <phi_i| H0 |phi_j> in the eigenbasis of rho (a Hermitian array)."""
    return _eigenbasis_elements(rho, h)[0]


@dataclass(frozen=True)
class SpectralSums:
    """The three eigenbasis sums over h_ij = <phi_i|H0|phi_j>."""

    skew_information: float     # sum_{i<j} (sqrt(l_i) - sqrt(l_j))^2 |h_ij|^2
    j_lower_bound: float        # sum_{i<j} (sqrt(l_i) + sqrt(l_j))^2 |h_ij|^2
    j_diagonal_term: float      # 2 sum_i l_i h_ii^2


def spectral_sums(rho: DensityMatrix, h) -> SpectralSums:
    """All three eigenbasis sums from one rotation of H0."""
    helems = matrix_elements(rho, h)
    lam = rho.eigenvalues
    roots = np.sqrt(lam)
    return SpectralSums(
        skew_information=_weighted_sum(helems, roots),
        j_lower_bound=_weighted_sum(helems, roots, plus=True),
        j_diagonal_term=2.0 * float(np.vdot(lam, helems.diagonal().real ** 2)),
    )


# The reductions below run on C-ordered operands: numpy picks the order of
# a sum from the memory layout, and the layout numpy gives a result can
# depend on the stack size, so without this a row's rounding could depend
# on how many rows share its stack.


def _tr_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr[X Y] for every pair of matrices in two stacks."""
    return np.einsum("...ij,...ji->...", np.ascontiguousarray(x), np.ascontiguousarray(y))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix in a stack."""
    f = np.ascontiguousarray(x).view(np.float64)
    return np.einsum("...ij,...ij->...", f, f)


def _first(values: np.ndarray, bad: np.ndarray):
    return values[bad][0].item()


def _vij_stack(sqrt: np.ndarray, h0: np.ndarray, rho_h0: np.ndarray):
    """(V, I, J, sqrt(rho) H0) for stacks of centered observables.

    With X = sqrt(rho) H0:  I = ||i(X - X^dagger)||_F^2 / 2 and
    J = ||X + X^dagger||_F^2 / 2, both nonnegative by construction, and
    the identity J = 2V - I is verified entry by entry before returning.
    """
    x = sqrt @ h0
    xh = _adjoint(x)
    i_val = 0.5 * _sq_norms(x - xh)
    j_val = 0.5 * _sq_norms(x + xh)
    v_val = _tr_products(rho_h0, h0).real
    v_val[(v_val < 0.0) & (v_val >= -ROUNDOFF_FLOOR)] = 0.0
    j_ident = 2.0 * v_val - i_val
    bad = np.abs(j_val - j_ident) > 1e-10 * np.maximum(1.0, np.abs(j_ident))
    if np.count_nonzero(bad):
        raise InconsistentResult(
            f"J forms disagree: anticommutator {_first(j_val, bad)!r} "
            f"vs 2V - I {_first(j_ident, bad)!r}"
        )
    return v_val, i_val, j_val, x


def _report_kernel(rho: np.ndarray, sqrt: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Every functional of N triples given as (N, d, d) stacks.

    Returns the UncertaintyReport fields in order, each an (N,) array.

    J = 2V - I and U = sqrt(I J) are recomputed from independent forms and
    must agree to within 1e-10 and 1e-9 (relative beyond magnitude 1) on
    every row, or InconsistentResult is raised.  A and B go through every
    step together as one (2, N, d, d) stack of centered observables H0,
    and the products rho H0 and X = sqrt(rho) H0 are computed once and
    shared by V, Cov, I, J, Corr and the commutator term, so no functional
    sees the means again.  Each row is computed from its own matrices only.
    """
    rho = np.ascontiguousarray(rho)
    sqrt = np.ascontiguousarray(sqrt)
    means, h0 = _centered(rho, (a, b))
    rho_h0 = rho @ h0
    v, i, j, x = _vij_stack(sqrt, h0, rho_h0)
    u = np.sqrt(np.maximum(i * j, 0.0))
    # V^2 - (V - I)^2 = I (2V - I)
    u_def = np.sqrt(np.maximum(i * (2.0 * v - i), 0.0))
    bad = np.abs(u - u_def) > 1e-9 * np.maximum(1.0, u_def)
    if np.count_nonzero(bad):
        raise InconsistentResult(f"U forms disagree: {_first(u, bad)!r} vs {_first(u_def, bad)!r}")

    cov = _tr_products(rho_h0[0], h0[1])
    return (
        *means, *v, *i, *j, *u,
        cov,
        # Corr = Tr[rho A0 B0] - Tr[sqrt(rho) A0 sqrt(rho) B0]
        cov - _tr_products(x[0], x[1]),
        # Tr[rho B0 A0] = conj(Cov), so the real part is exactly +0.0
        cov - cov.conj(),
    )


def full_report_stack(states: StateStack, a, b) -> UncertaintyReport:
    """All functionals of N triples at once; every report field is an (N,) array.

    ``a`` and ``b`` are (N, d, d) stacks of Hermitian observables matching
    ``states``.  Row n depends on states row n, a[n] and b[n] only, so
    the values do not depend on how samples are grouped into stacks.
    """
    a = linalg.require_hermitian_stack(a, what="observable")
    b = linalg.require_hermitian_stack(b, what="observable")
    if a.shape != states.matrix.shape or b.shape != states.matrix.shape:
        raise DimensionMismatch(
            f"state stack {states.matrix.shape} vs observable stacks {a.shape}, {b.shape}"
        )
    return UncertaintyReport(*_report_kernel(states.matrix, states.sqrt, a, b))


def full_report(rho: DensityMatrix, a, b) -> UncertaintyReport:
    """All functionals of one triple: the one-row case of full_report_stack."""
    ma, mb = _observables(rho, a, b)
    fields = _report_kernel(rho.matrix[None], rho.sqrt[None], ma[None], mb[None])
    return UncertaintyReport(*(f.item() for f in fields))
