"""Randomized search for extremal witnesses of the falsifiable relations.

A search task evaluates a scalar objective over seeded random triples
(rho, A, B) and keeps the extremes: the most negative gaps for the two
falsifiable relations, or one witness of each sign for the lhs
difference between the schrodinger and schrodinger_wy bounds.  Because
every candidate is a pure function of (task, sample index), the result
is identical however the evaluation is scheduled, and a returned witness
can always be re-scored from its stored matrices alone.

Candidates are drawn and scored as stacks of (d, d) matrices, a fixed
number of matrix entries per stack, through quantities.full_report_stack;
refinement moves all returned witnesses in lock-step through the same
kernel.  Every row of a stack is computed from its own data only, so
stack boundaries change no value.

Every dim-2 search starts from the known counterexample triples, so the
reported extremes can never be worse than the built-in cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import counterexamples, ensembles, linalg, quantities, relations
from .ensembles import EnsembleSpec
from .errors import BadSpec
from .quantities import DensityMatrix, Observable, StateStack

OBJECTIVES = (
    "min_gap_false_cov_variant",
    "min_gap_re_ordering",
    "sign_witnesses_lhs_difference",
)

_REFINE_SALT = 0x7F4A7C15F39CC060
# Matrix entries per stacked operand in one evaluation chunk: 4096 samples
# at d=2, 64 at d=16.  Temporaries then stay near 10 MB at any sample
# count; larger chunks cost memory and were no faster.
_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class SearchTask:
    objective: str
    dim: int
    samples: int
    seed: int = 0
    state_kind: str = "ginibre_mixed"
    purity_blend: float = 0.0
    observable_scale: float = 1.0
    refine: bool = False
    refine_steps: int = 200
    top_k: int = 10

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise BadSpec(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.samples < 1:
            raise BadSpec(f"samples must be >= 1, got {self.samples}")
        if self.top_k < 1:
            raise BadSpec(f"top_k must be >= 1, got {self.top_k}")
        if self.refine_steps < 0:
            raise BadSpec(f"refine_steps must be >= 0, got {self.refine_steps}")
        self.state_spec().validate()

    def state_spec(self) -> EnsembleSpec:
        return EnsembleSpec(
            dim=self.dim,
            kind=self.state_kind,
            purity_blend=self.purity_blend,
            seed=self.seed,
        )


@dataclass(frozen=True)
class Witness:
    """A concrete triple with the objective value it achieved."""

    rho: np.ndarray
    a: np.ndarray
    b: np.ndarray
    objective_value: float
    sample_index: int
    refined: bool = False


def objective_from_report(objective: str, report: quantities.UncertaintyReport):
    """Objective of a report: a float, or an (N,) array for a stacked report."""
    if objective == "min_gap_false_cov_variant":
        return relations.verdict_from_report(report, "false_cov_variant").gap
    if objective == "min_gap_re_ordering":
        return relations.verdict_from_report(report, "false_re_ordering").gap
    if objective == "sign_witnesses_lhs_difference":
        return relations.lhs_difference_from_report(report)
    raise BadSpec(f"unknown objective {objective!r}")


def objective_value(objective: str, rho: DensityMatrix, a, b) -> float:
    """Score one triple under a search objective (lower is better)."""
    return objective_from_report(objective, quantities.full_report(rho, a, b))


def _candidates(
    task: SearchTask, indices: np.ndarray
) -> tuple[StateStack, np.ndarray, np.ndarray]:
    """The triples of the given sample indices, as stacks."""
    states = ensembles.random_density_stack(task.state_spec(), indices)
    a = ensembles.random_observable_stack(
        task.dim, task.observable_scale, task.seed ^ ensembles.SALT_OBSERVABLE_A, indices
    )
    b = ensembles.random_observable_stack(
        task.dim, task.observable_scale, task.seed ^ ensembles.SALT_OBSERVABLE_B, indices
    )
    if task.dim == 2:
        rows = np.flatnonzero(indices < counterexamples.BUILTIN_TRIPLE_COUNT)
        if rows.size:
            triples = [counterexamples.builtin_triple(int(indices[r])) for r in rows]
            states = states.replace(
                rows,
                StateStack(np.stack([rho.matrix for rho, _, _ in triples])),
            )
            a[rows] = [ra.matrix for _, ra, _ in triples]
            b[rows] = [rb.matrix for _, _, rb in triples]
    return states, a, b


def evaluate_all(task: SearchTask, workers: int = 1) -> np.ndarray:
    """Objective value of every candidate, indexed by sample.

    Samples are scored in stacks of a fixed size; each value depends on
    its own sample only.  ``workers`` is accepted for compatibility and
    changes neither the values nor the speed.
    """
    rows = max(1, _CHUNK_ENTRIES // (task.dim * task.dim))
    out = np.empty(task.samples)
    for start in range(0, task.samples, rows):
        indices = np.arange(start, min(start + rows, task.samples))
        states, a, b = _candidates(task, indices)
        report = quantities.full_report_stack(states, a, b)
        out[indices] = objective_from_report(task.objective, report)
    return out


def _witnesses_at(task: SearchTask, picks: list[int], values: np.ndarray) -> list[Witness]:
    states, a, b = _candidates(task, np.array(picks))
    return [
        Witness(
            rho=states.matrix[row].copy(),
            a=a[row].copy(),
            b=b[row].copy(),
            objective_value=float(values[index]),
            sample_index=index,
        )
        for row, index in enumerate(picks)
    ]


def run_search(task: SearchTask, workers: int = 1) -> list[Witness]:
    """Evaluate the task and return its extremal witnesses.

    For the min-gap objectives: the top_k most negative gaps, ascending.
    For the sign objective: the most negative candidate followed by the
    most positive one (if a sign is missing these are simply the closest
    candidates to it, for the caller to report).  ``workers`` is accepted
    for compatibility; the result is the same for every value.
    """
    task.validate()
    values = evaluate_all(task, workers=workers)

    if task.objective == "sign_witnesses_lhs_difference":
        picks = [int(np.argmin(values)), int(np.argmax(values))]
    else:
        k = min(task.top_k, task.samples)
        order = np.lexsort((np.arange(task.samples), values))
        picks = [int(i) for i in order[:k]]
    witnesses = _witnesses_at(task, picks, values)

    if task.refine and task.refine_steps > 0:
        witnesses = refine_witnesses(
            witnesses,
            task.objective,
            task.refine_steps,
            seeds=[ensembles.stream_seed(task.seed ^ _REFINE_SALT, i) for i in picks],
            maximize=[
                task.objective == "sign_witnesses_lhs_difference" and slot == 1
                for slot in range(len(picks))
            ],
        )
    return witnesses


def reevaluate(objective: str, w: Witness) -> float:
    """Score a witness from its stored matrices only (fresh validation path)."""
    return objective_value(objective, DensityMatrix(w.rho), Observable(w.a), Observable(w.b))


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


def refine_witness(
    w: Witness,
    objective: str,
    steps: int,
    seed: int,
    maximize: bool = False,
    initial_step: float = 0.1,
) -> Witness:
    """Coordinate-wise random descent from one witness; never worsens it.

    The one-witness case of refine_witnesses.
    """
    return refine_witnesses([w], objective, steps, [seed], [maximize], initial_step)[0]


def refine_witnesses(
    witnesses: list[Witness],
    objective: str,
    steps: int,
    seeds: list[int],
    maximize: list[bool] | None = None,
    initial_step: float = 0.1,
) -> list[Witness]:
    """Coordinate-wise random descent from each witness, all in lock-step.

    Each step perturbs one Hermitian parameter of rho, A, or B (rho is
    projected back to the state set afterwards) and keeps the move only if
    the objective strictly improves on the best value so far, which starts
    at the stored value or its re-evaluation, whichever is better.  The
    step size halves after every steps/5 consecutive rejections, with a
    floor of 1e-6.  Witness k has its own stream (seeds[k]), step size and
    patience, and every row is evaluated from its own matrices only, so
    the result for witness k equals refining it alone.  A step that moves
    A or B reuses the cached state; one that moves rho costs one stacked
    eigensolve for the projection, and the state is built from that
    spectrum.  Witnesses must share one dimension.
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
    deltas = ensembles.normals(seeds ^ np.uint64(_REFINE_SALT), steps)

    states = StateStack(mats[0])
    report = quantities.full_report_stack(states, mats[1], mats[2])
    start = sign * objective_from_report(objective, report)
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
        value = np.where(dead, np.inf, sign * objective_from_report(objective, report))

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
        Witness(
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
