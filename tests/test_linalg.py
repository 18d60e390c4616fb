import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewrel import linalg
from skewrel.errors import DimensionMismatch, NegativeSpectrum, NoConvergence, NotHermitian

import oracles

SQ2 = np.sqrt(2.0)


def test_eig_diagonal_is_sorted_descending():
    s = linalg.hermitian_eig(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(s.eigenvalues, [0.75, 0.25], atol=1e-14)
    # eigenvector of the larger eigenvalue is e2, of the smaller e1
    np.testing.assert_allclose(s.eigenvectors[:, 0], [0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(s.eigenvectors[:, 1], [1.0, 0.0], atol=1e-14)


def test_eig_symmetric_2x2_hand_solved():
    # characteristic polynomial of [[.5,.4],[.4,.5]]: roots .5 +/- .4
    m = np.array([[0.5, 0.4], [0.4, 0.5]])
    s = linalg.hermitian_eig(m)
    np.testing.assert_allclose(s.eigenvalues, [0.9, 0.1], atol=1e-12)
    np.testing.assert_allclose(s.eigenvectors[:, 0], [1 / SQ2, 1 / SQ2], atol=1e-12)
    np.testing.assert_allclose(s.eigenvectors[:, 1], [1 / SQ2, -1 / SQ2], atol=1e-12)


def test_eig_identity_reconstructs():
    s = linalg.hermitian_eig(np.eye(5))
    np.testing.assert_allclose(s.eigenvalues, np.ones(5))
    np.testing.assert_allclose(s.reconstruct(), np.eye(5), atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square_and_nan():
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eig(np.zeros((2, 3)))
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eig(bad)


def test_eig_reconstruction_and_orthonormality_bulk():
    # 1000 random Hermitian matrices per dimension, both invariants at 1e-10,
    # eigenvalues cross-checked against LAPACK.
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        for _ in range(1000):
            m = oracles.random_hermitian(n, rng)
            s = linalg.hermitian_eig(m)
            scale = max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(s.reconstruct() - m) <= 1e-10 * scale
            gram = s.eigenvectors.conj().T @ s.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            assert (np.diff(s.eigenvalues) <= 1e-12).all()
            np.testing.assert_allclose(
                s.eigenvalues, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10 * scale
            )


def test_eig_phase_convention_deterministic():
    rng = np.random.default_rng(3)
    m = oracles.random_hermitian(4, rng)
    s1 = linalg.hermitian_eig(m)
    s2 = linalg.hermitian_eig(m.copy())
    np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)
    for j in range(4):
        col = s1.eigenvectors[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-12


def test_matrix_power_diagonal():
    s = linalg.hermitian_eig(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(
        linalg.matrix_power(s, 0.5), np.diag([0.5, np.sqrt(0.75)]), atol=1e-12
    )


def test_matrix_power_scalar_matrix():
    n = 4
    s = linalg.hermitian_eig(np.eye(n) / n)
    np.testing.assert_allclose(linalg.matrix_power(s, 0.5), np.eye(n) / 2.0, atol=1e-12)


def test_matrix_power_hand_solved_sqrt():
    # sqrt of [[.5,.4],[.4,.5]] from its (0.9, 0.1) eigensystem
    m = np.array([[0.5, 0.4], [0.4, 0.5]])
    s = linalg.hermitian_eig(m)
    d = (np.sqrt(0.9) + np.sqrt(0.1)) / 2.0
    o = (np.sqrt(0.9) - np.sqrt(0.1)) / 2.0
    np.testing.assert_allclose(linalg.matrix_power(s, 0.5), [[d, o], [o, d]], atol=1e-12)


def test_matrix_power_square_recovers_input():
    rng = np.random.default_rng(11)
    for n in (2, 5):
        rho = oracles.random_state(n, rng)
        s = linalg.hermitian_eig(rho)
        root = linalg.matrix_power(s, 0.5)
        assert np.linalg.norm(root @ root - rho) <= 1e-9


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9])
def test_matrix_power_complement_product(alpha):
    rng = np.random.default_rng(13)
    rho = oracles.random_state(4, rng)  # full rank almost surely
    s = linalg.hermitian_eig(rho)
    prod = linalg.matrix_power(s, alpha) @ linalg.matrix_power(s, 1.0 - alpha)
    assert np.linalg.norm(prod - rho) <= 1e-9


def test_matrix_power_rejects_negative_spectrum():
    s = linalg.hermitian_eig(np.diag([1.5, -0.5]))
    with pytest.raises(NegativeSpectrum):
        linalg.matrix_power(s, 0.5)


def test_matrix_power_rejects_bad_exponent():
    s = linalg.hermitian_eig(np.eye(2))
    with pytest.raises(ValueError):
        linalg.matrix_power(s, 1.5)
    with pytest.raises(ValueError):
        linalg.matrix_power(s, 0.0)


def _unitary(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _with_spectrum(spectrum, rng):
    u = _unitary(len(spectrum), rng)
    m = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _oracle_cases(n, rng):
    """Generic, degenerate and rank-deficient Hermitian matrices of size n."""
    yield "generic", oracles.random_hermitian(n, rng)
    yield "degenerate", _with_spectrum([0.5, 0.5] + [0.0] * (n - 2), rng)
    yield "clustered", _with_spectrum([2.0] * (n // 2) + [-1.0] * (n - n // 2), rng)
    rank = max(1, n // 2)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    yield "rank_deficient", m / np.trace(m).real
    yield "scaled", 1e3 * oracles.random_hermitian(n, rng)


def _eigenspace_projectors(w, v, tol):
    """Projector onto each cluster of eigenvalues closer than tol, in order."""
    projectors = []
    start = 0
    for j in range(1, len(w) + 1):
        if j == len(w) or abs(w[j] - w[j - 1]) > tol:
            block = v[:, start:j]
            projectors.append((w[start], block @ block.conj().T))
            start = j
    return projectors


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_eig_matches_jacobi_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        for case, m in _oracle_cases(n, rng):
            scale = max(1.0, np.linalg.norm(m))
            s = linalg.hermitian_eig(m)
            w_ref, v_ref = oracles.jacobi_eigh(m)
            w_ref, v_ref = w_ref[::-1], v_ref[:, ::-1]
            np.testing.assert_allclose(s.eigenvalues, w_ref, atol=1e-10 * scale, err_msg=case)
            ours = _eigenspace_projectors(s.eigenvalues, s.eigenvectors, 1e-8 * scale)
            ref = _eigenspace_projectors(w_ref, v_ref, 1e-8 * scale)
            assert len(ours) == len(ref), case
            for (lam, p), (lam_ref, p_ref) in zip(ours, ref):
                assert abs(lam - lam_ref) <= 1e-10 * scale, case
                assert np.abs(p - p_ref).max() <= 1e-9, case
            assert np.linalg.norm(s.reconstruct() - m) <= 1e-10 * scale, case
            gram = s.eigenvectors.conj().T @ s.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10, case


def test_eig_stack_rows_equal_one_matrix_case():
    rng = np.random.default_rng(17)
    for n in (2, 3, 8):
        ms = np.stack([oracles.random_hermitian(n, rng) for _ in range(6)])
        w, v = linalg.hermitian_eig_stack(ms)
        assert w.shape == (6, n) and v.shape == (6, n, n)
        for k in range(6):
            s = linalg.hermitian_eig(ms[k])
            assert s.eigenvalues.tobytes() == w[k].tobytes()
            assert s.eigenvectors.tobytes() == v[k].tobytes()


def test_eig_stack_validates_every_row():
    ms = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig_stack(ms)
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eig_stack(np.eye(2))


def test_eig_lapack_failure_is_no_convergence(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg.np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eig(np.eye(2))


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    vals = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)
    re = draw(st.lists(st.lists(vals, min_size=n, max_size=n), min_size=n, max_size=n))
    im = draw(st.lists(st.lists(vals, min_size=n, max_size=n), min_size=n, max_size=n))
    m = np.array(re) + 1j * np.array(im)
    return (m + m.conj().T) / 2.0


@settings(max_examples=40, deadline=None)
@given(hermitian_matrices())
def test_eig_invariants_hypothesis(m):
    s = linalg.hermitian_eig(m)
    scale = max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(s.reconstruct() - m) <= 1e-10 * scale
    assert np.abs(s.eigenvectors.conj().T @ s.eigenvectors - np.eye(len(m))).max() <= 1e-10
