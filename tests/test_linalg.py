import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewrel import counterexamples, ensembles, linalg, search
from skewrel.errors import DimensionMismatch, NoConvergence, NotHermitian
from skewrel.quantities import Observable

import oracles

SQ2 = np.sqrt(2.0)


def _eig(m):
    """(eigenvalues, eigenvectors) of one matrix: the one-row case of hermitian_eig_stack."""
    w, v = linalg.hermitian_eig_stack(np.asarray(m)[None])
    return w[0], v[0]


def test_eig_diagonal_is_sorted_descending():
    w, v = _eig(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-14)
    # eigenvector of the larger eigenvalue is e2, of the smaller e1
    np.testing.assert_allclose(v[:, 0], [0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(v[:, 1], [1.0, 0.0], atol=1e-14)


def test_eig_symmetric_2x2_hand_solved():
    # characteristic polynomial of [[.5,.4],[.4,.5]]: roots .5 +/- .4
    m = np.array([[0.5, 0.4], [0.4, 0.5]])
    w, v = _eig(m)
    np.testing.assert_allclose(w, [0.9, 0.1], atol=1e-12)
    np.testing.assert_allclose(v[:, 0], [1 / SQ2, 1 / SQ2], atol=1e-12)
    np.testing.assert_allclose(v[:, 1], [1 / SQ2, -1 / SQ2], atol=1e-12)


def test_eig_identity_reconstructs():
    w, v = _eig(np.eye(5))
    np.testing.assert_allclose(w, np.ones(5))
    np.testing.assert_allclose(oracles.reconstruct(w, v), np.eye(5), atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        _eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square_and_nan():
    with pytest.raises(DimensionMismatch):
        _eig(np.zeros((2, 3)))
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(DimensionMismatch):
        _eig(bad)


def test_eig_reconstruction_and_orthonormality_bulk():
    # 1000 random Hermitian matrices per dimension, both invariants at 1e-10,
    # eigenvalues cross-checked against LAPACK.
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        for _ in range(1000):
            m = oracles.random_hermitian(n, rng)
            w, v = _eig(m)
            scale = max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(oracles.reconstruct(w, v) - m) <= 1e-10 * scale
            gram = v.conj().T @ v
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            assert (np.diff(w) <= 1e-12).all()
            np.testing.assert_allclose(
                w, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10 * scale
            )


def test_eig_phase_convention_deterministic():
    rng = np.random.default_rng(3)
    m = oracles.random_hermitian(4, rng)
    _, v1 = _eig(m)
    _, v2 = _eig(m.copy())
    np.testing.assert_array_equal(v1, v2)
    for j in range(4):
        col = v1[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-12


# Validation keeps exactly Hermitian input as it is and stores input within
# tolerance as its Hermitian part, so every validated matrix is exactly
# Hermitian.


def _exactly_hermitian_stacks():
    """Random observables, built-in triples and refine-perturbed matrices."""
    for d in range(2, 17):
        yield ensembles.random_observable_stack(d, 1.0, 40 + d, range(4))
        yield ensembles.random_observable_stack(d, 1e3, 60 + d, range(4))
    for make in counterexamples.BUILTIN_TRIPLES.values():
        rho, a, b = make()
        yield np.stack([rho.matrix, a.matrix, b.matrix])
    rng = np.random.default_rng(19)
    for d in (2, 3, 8):
        count = 64
        trial = np.stack(
            [ensembles.random_observable_stack(d, 1.0, 80 + k, range(count)) for k in range(3)]
        )
        for _ in range(5):
            i = rng.integers(0, d, count)
            j = rng.integers(0, d, count)
            search._perturb_rows(
                trial, rng.integers(0, 3, count), i, j, rng.standard_normal(count)
            )
        yield trial.reshape(-1, d, d)


def test_exactly_hermitian_input_is_kept_bitwise():
    for ms in _exactly_hermitian_stacks():
        assert linalg.hermiticity_defect(ms) == 0.0
        assert linalg.require_hermitian_stack(ms).tobytes() == ms.tobytes()
        for m in ms:
            assert Observable(m).matrix.tobytes() == m.tobytes()


def test_input_within_tolerance_is_stored_as_hermitian_part():
    rng = np.random.default_rng(23)
    for d in (2, 3, 8, 16):
        ms = np.stack([oracles.random_hermitian(d, rng) for _ in range(5)])
        ms = ms + 5e-12 * (rng.standard_normal(ms.shape) + 1j * rng.standard_normal(ms.shape))
        assert 0.0 < linalg.hermiticity_defect(ms) <= linalg.HERMITIAN_TOL
        part = (ms + ms.swapaxes(-1, -2).conj()) / 2.0
        out = linalg.require_hermitian_stack(ms)
        assert out.tobytes() == part.tobytes()
        assert linalg.hermiticity_defect(out) == 0.0
        for m, h in zip(ms, part):
            assert Observable(m).matrix.tobytes() == h.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [[[1, 1e308], [-1e308, 1]], [[0, 0], [0, 1e308j]]])
def test_overflowing_defect_is_not_hermitian_without_warning(m):
    # M - M^dagger overflows to inf although every entry is finite
    assert linalg.hermiticity_defect(np.array(m, dtype=complex)) == np.inf
    with pytest.raises(NotHermitian):
        Observable(m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitian_part_of_huge_entries_stays_finite():
    m = np.full((2, 2), 1e308 + 1e-80j)
    assert Observable(m).matrix.tobytes() == np.full((2, 2), 1e308 + 0j).tobytes()


# The fractional powers of the I_alpha trace-form oracle.


def test_matrix_power_diagonal():
    np.testing.assert_allclose(
        oracles.matrix_power(np.diag([0.25, 0.75]), 0.5),
        np.diag([0.5, np.sqrt(0.75)]),
        atol=1e-12,
    )


def test_matrix_power_scalar_matrix():
    n = 4
    np.testing.assert_allclose(
        oracles.matrix_power(np.eye(n) / n, 0.5), np.eye(n) / 2.0, atol=1e-12
    )


def test_matrix_power_hand_solved_sqrt():
    # sqrt of [[.5,.4],[.4,.5]] from its (0.9, 0.1) eigensystem
    m = np.array([[0.5, 0.4], [0.4, 0.5]])
    d = (np.sqrt(0.9) + np.sqrt(0.1)) / 2.0
    o = (np.sqrt(0.9) - np.sqrt(0.1)) / 2.0
    np.testing.assert_allclose(oracles.matrix_power(m, 0.5), [[d, o], [o, d]], atol=1e-12)


def test_matrix_power_square_recovers_input():
    rng = np.random.default_rng(11)
    for n in (2, 5):
        rho = oracles.random_state(n, rng)
        root = oracles.matrix_power(rho, 0.5)
        assert np.linalg.norm(root @ root - rho) <= 1e-9


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9])
def test_matrix_power_complement_product(alpha):
    rng = np.random.default_rng(13)
    rho = oracles.random_state(4, rng)  # full rank almost surely
    prod = oracles.matrix_power(rho, alpha) @ oracles.matrix_power(rho, 1.0 - alpha)
    assert np.linalg.norm(prod - rho) <= 1e-9


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
            w, v = _eig(m)
            w_ref, v_ref = oracles.jacobi_eigh(m)
            w_ref, v_ref = w_ref[::-1], v_ref[:, ::-1]
            np.testing.assert_allclose(w, w_ref, atol=1e-10 * scale, err_msg=case)
            ours = _eigenspace_projectors(w, v, 1e-8 * scale)
            ref = _eigenspace_projectors(w_ref, v_ref, 1e-8 * scale)
            assert len(ours) == len(ref), case
            for (lam, p), (lam_ref, p_ref) in zip(ours, ref):
                assert abs(lam - lam_ref) <= 1e-10 * scale, case
                assert np.abs(p - p_ref).max() <= 1e-9, case
            assert np.linalg.norm(oracles.reconstruct(w, v) - m) <= 1e-10 * scale, case
            gram = v.conj().T @ v
            assert np.abs(gram - np.eye(n)).max() <= 1e-10, case


def test_eig_stack_rows_equal_one_matrix_case():
    rng = np.random.default_rng(17)
    for n in (2, 3, 8):
        ms = np.stack([oracles.random_hermitian(n, rng) for _ in range(6)])
        w, v = linalg.hermitian_eig_stack(ms)
        assert w.shape == (6, n) and v.shape == (6, n, n)
        for k in range(6):
            wk, vk = _eig(ms[k])
            assert wk.tobytes() == w[k].tobytes()
            assert vk.tobytes() == v[k].tobytes()


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
        _eig(np.eye(2))


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
    w, v = _eig(m)
    scale = max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(oracles.reconstruct(w, v) - m) <= 1e-10 * scale
    assert np.abs(v.conj().T @ v - np.eye(len(m))).max() <= 1e-10
