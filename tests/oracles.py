"""Independent reference implementations for cross-checking the library.

Everything here deliberately avoids the package's own code paths: a
cyclic Jacobi eigensolver with complex rotations for eigensystems (the
library uses LAPACK), direct trace formulas for the functionals, and
explicit double loops for the eigenbasis sums.
"""

import numpy as np

JACOBI_OFFDIAG_FACTOR = 1e-12
JACOBI_MAX_SWEEPS = 100


def _rotation(app: float, aqq: float, apq: complex, beta: float) -> tuple[float, complex]:
    """(c, s) of the unitary [[c, s], [-conj(s), c]] zeroing the (p, q) entry."""
    phase = apq / beta
    tau = (aqq - app) / (2.0 * beta)
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c * phase


def _round_robin_rounds(n: int) -> list[list[tuple[int, int]]]:
    """Partition all index pairs into rounds of disjoint pairs (tournament order).

    Every sweep visits each pair exactly once; pairs within a round act on
    disjoint indices, so their rotations commute and one block unitary per
    round applies them all at once.
    """
    m = n + (n % 2)  # odd n gets a bye slot
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            lo, hi = sorted((players[i], players[m - 1 - i]))
            if hi < n:
                pairs.append((lo, hi))
        rounds.append(pairs)
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def jacobi_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, by cyclic Jacobi.

    Sweeps repeat until the off-diagonal Frobenius norm drops below 1e-12
    times the Frobenius norm of the input, for at most 100 sweeps.
    """
    a = np.asarray(m, dtype=np.complex128)
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    thresh = JACOBI_OFFDIAG_FACTOR * float(np.linalg.norm(a))
    # Skipping pairs below thresh/n keeps every |a_pq| small enough that
    # the off-diagonal norm still lands under thresh.
    skip = thresh / n
    offdiag = ~np.eye(n, dtype=bool)
    rounds = _round_robin_rounds(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        if float(np.linalg.norm(a[offdiag])) <= thresh:
            break
        for pairs in rounds:
            rot = np.eye(n, dtype=np.complex128)
            rotated = False
            for p, q in pairs:
                apq = a[p, q]
                beta = abs(apq)
                if beta <= skip:
                    continue
                c, s = _rotation(a[p, p].real, a[q, q].real, apq, beta)
                rot[p, p] = c
                rot[p, q] = s
                rot[q, p] = -s.conjugate()
                rot[q, q] = c
                rotated = True
            if rotated:
                a = rot.conj().T @ a @ rot
                v = v @ rot
    else:
        raise RuntimeError("Jacobi sweeps exhausted")
    w = a.real.diagonal()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def eigh_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = jacobi_eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def mean(rho, h) -> float:
    return float(np.trace(rho @ h).real)


def centered(rho, h) -> np.ndarray:
    return h - mean(rho, h) * np.eye(h.shape[0])


def variance(rho, h) -> float:
    h0 = centered(rho, h)
    return float(np.trace(rho @ h0 @ h0).real)


def covariance(rho, a, b) -> complex:
    return complex(np.trace(rho @ centered(rho, a) @ centered(rho, b)))


def skew_information(rho, h) -> float:
    sq = eigh_sqrt(rho)
    h0 = centered(rho, h)
    return float((np.trace(rho @ h0 @ h0) - np.trace(sq @ h0 @ sq @ h0)).real)


def j_value(rho, h) -> float:
    return 2.0 * variance(rho, h) - skew_information(rho, h)


def u_value(rho, h) -> float:
    v, i = variance(rho, h), skew_information(rho, h)
    return float(np.sqrt(max(v * v - (v - i) ** 2, 0.0)))


def correlation(rho, a, b) -> complex:
    sq = eigh_sqrt(rho)
    ad = a.conj().T
    return complex(np.trace(rho @ ad @ b) - np.trace(sq @ ad @ sq @ b))


def commutator_average(rho, a, b) -> complex:
    return complex(np.trace(rho @ (a @ b - b @ a)))


def spectral_sums(rho, h) -> tuple[float, float, float]:
    """(I sum, J lower bound sum, diagonal slack) via explicit loops."""
    w, v = jacobi_eigh(rho)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    h0 = centered(rho, h)
    helems = v.conj().T @ h0 @ v
    roots = np.sqrt(np.clip(w, 0.0, None))
    n = len(w)
    i_sum = 0.0
    j_sum = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            mag = abs(helems[i, j]) ** 2
            i_sum += (roots[i] - roots[j]) ** 2 * mag
            j_sum += (roots[i] + roots[j]) ** 2 * mag
    slack = 2.0 * sum(
        max(w[i], 0.0) * helems[i, i].real ** 2 for i in range(n)
    )
    return i_sum, j_sum, slack


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / 2.0


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real
