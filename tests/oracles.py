"""Independent reference implementations for cross-checking the library.

Everything here deliberately avoids the package's own code paths: a
cyclic Jacobi eigensolver with complex rotations for eigensystems (the
library uses LAPACK), direct trace formulas for the functionals (I_alpha
from fractional matrix powers, where the library works in the
eigenbasis), explicit double loops for the eigenbasis sums, and the
standard library's json encoder with ``indent=2`` for the wire writer.  The one exception is
lockstep_refine, the one-step-at-a-time reference walk for witness
refinement: it uses the library's evaluation path on purpose, so that
comparing it with search.refine_witnesses isolates the walk schedule.
"""

import json

import numpy as np

from skewrel import ensembles, linalg, quantities, search
from skewrel.quantities import StateStack

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


def reconstruct(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Sum of eigenvalue * |v><v| over an eigensystem, i.e. the decomposed matrix."""
    return (eigenvectors * eigenvalues) @ eigenvectors.conj().T


def eigh_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = jacobi_eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def matrix_power(rho: np.ndarray, p: float) -> np.ndarray:
    """rho**p of a PSD matrix from its Jacobi eigensystem.

    Eigenvalues below quantities.EIGENVALUE_DUST count as 0, the library's
    rule for states: a roundoff eigenvalue of 1e-17 would otherwise weigh
    (1e-17)**0.1 = 0.02 in a small power.
    """
    w, v = jacobi_eigh(rho)
    w = np.where(w < quantities.EIGENVALUE_DUST, 0.0, w)
    return (v * w**p) @ v.conj().T


def wyd_skew_information(rho, h, alpha) -> float:
    """(1/2) Tr[(i[rho^a, H])(i[rho^(1-a), H])], from the two matrix powers."""
    xa = matrix_power(rho, alpha) @ h
    xb = matrix_power(rho, 1.0 - alpha) @ h
    ca = 1j * (xa - xa.conj().T)
    cb = 1j * (xb - xb.conj().T)
    return float(0.5 * np.trace(ca @ cb).real)


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


def matrix_to_wire(m) -> list:
    """Nested rows of [re, im] pairs, one Python complex at a time."""
    return [[[v.real, v.imag] for v in row] for row in np.asarray(m, dtype=np.complex128).tolist()]


def _plain(o):
    if isinstance(o, np.ndarray):
        return matrix_to_wire(o)
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    return o


def document_text(doc) -> str:
    """json.dumps(doc, indent=2) plus a newline, with 2-D ndarrays as wire matrices."""
    return json.dumps(_plain(doc), indent=2) + "\n"


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / 2.0


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _perturb_hermitian(m: np.ndarray, param: int, delta: float) -> None:
    """Shift one real Hermitian coordinate of m in place: diagonal, or re/im of an off pair."""
    n = m.shape[0]
    i, j = divmod(param, n)
    if i == j:
        m[i, i] += delta
    elif i < j:
        m[i, j] += delta
        m[j, i] += delta
    else:
        m[j, i] += 1j * delta
        m[i, j] -= 1j * delta


def lockstep_refine(witnesses, objective, steps, seeds, maximize=None, initial_step=0.1):
    """search.refine_witnesses taken one step at a time, all witnesses in lock-step.

    Same streams, step schedule, projection and acceptance rule; every
    step scores exactly one proposal per witness.
    """
    witnesses = list(witnesses)
    if steps <= 0 or not witnesses:
        return witnesses
    count = len(witnesses)
    sign = np.where(maximize if maximize is not None else [False] * count, -1.0, 1.0)
    mats = [
        linalg.as_complex_stack([getattr(w, name) for w in witnesses]).copy()
        for name in ("rho", "a", "b")
    ]
    coords = mats[0].shape[-1] ** 2

    seeds = np.array([int(s) & ((1 << 64) - 1) for s in seeds], dtype=np.uint64)
    picks = (ensembles.uniforms(seeds, steps) * 3 * coords).astype(np.int64) % (3 * coords)
    which, param = np.divmod(picks, coords)
    deltas = ensembles.normals(seeds ^ np.uint64(search._REFINE_SALT), steps)

    states = StateStack(mats[0])
    report = quantities.full_report_stack(states, mats[1], mats[2])
    start = sign * search.objective_from_report(objective, report)
    best = np.minimum(start, sign * np.array([w.objective_value for w in witnesses]))
    step = np.full(count, initial_step)
    patience = max(1, steps // 5)
    stale = np.zeros(count, dtype=np.int64)
    improved = np.zeros(count, dtype=bool)

    for k in range(steps):
        trial = [m.copy() for m in mats]
        for row in range(count):
            _perturb_hermitian(trial[which[row, k]][row], param[row, k], step[row] * deltas[row, k])
        trial_states = states
        dead = np.zeros(count, dtype=bool)
        moving = np.flatnonzero(which[:, k] == 0)
        if moving.size:
            w, v = linalg.hermitian_eig_stack(trial[0][moving])
            lam = np.clip(w, 0.0, None)
            total = lam.sum(axis=-1)
            ok = total > 1e-12
            dead[moving[~ok]] = True
            fresh = moving[ok]
            if fresh.size:
                trial_states = states.replace(
                    fresh, StateStack.from_spectral(lam[ok] / total[ok, None], v[ok])
                )
                trial[0][fresh] = trial_states.matrix[fresh]
        report = quantities.full_report_stack(trial_states, trial[1], trial[2])
        value = np.where(dead, np.inf, sign * search.objective_from_report(objective, report))

        accept = value < best
        if accept.any():
            rows = np.flatnonzero(accept)
            for m, t in zip(mats, trial):
                m[rows] = t[rows]
            states = states.replace(rows, trial_states.take(rows))
            best[rows] = value[rows]
            improved[rows] = True
        stale = np.where(accept, 0, stale + 1)
        halve = stale >= patience
        step[halve] = np.maximum(step[halve] / 2.0, 1e-6)
        stale[halve] = 0

    return [
        search.Witness(
            rho=mats[0][row].copy(),
            a=mats[1][row].copy(),
            b=mats[2][row].copy(),
            objective_value=float(sign[row] * best[row]),
            sample_index=w.sample_index,
            refined=True,
        )
        if improved[row]
        else w
        for row, w in enumerate(witnesses)
    ]
