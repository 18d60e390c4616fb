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
refinement scores blocks of proposals of all returned witnesses through
the same kernel.  Every row of a stack is computed from its own data
only, so stack boundaries change no value.

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
# Proposals per witness scored in one stacked call during refinement.
# Refined witnesses do not depend on it; it only trades discarded
# proposals against per-call overhead.
_REFINE_BLOCK = 8


@dataclass(frozen=True)
class SearchTask:
    objective: str
    dim: int
    samples: int
    seed: int = 0
    state_kind: str = "ginibre_mixed"
    rank: int | None = None
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
            rank=self.rank,
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


def _perturb_rows(trial: np.ndarray, which, i, j, delta) -> None:
    """Shift one real Hermitian coordinate of every trial row, in place.

    ``trial`` is a (3, N, d, d) stack of (rho, A, B); row n moves matrix
    which[n] by delta[n] along coordinate (i[n], j[n]): the diagonal entry
    if i == j, else the real (i < j) or imaginary (i > j) part of the
    off-diagonal pair.
    """
    rows = np.arange(len(which))
    lower = i > j
    # entry (r, c) moves by inc, and its mirror (c, r) by conj(inc): inc
    # itself for a real part, -inc for an imaginary part
    r, c = np.where(lower, j, i), np.where(lower, i, j)
    inc = np.where(lower, 1j * delta, delta)
    mirror = np.where(lower, -inc, inc)
    trial[which, rows, r, c] += inc
    off = i != j
    trial[which[off], rows[off], c[off], r[off]] += mirror[off]


def _project(states: StateStack, rho: np.ndarray, moving: np.ndarray):
    """Project the moved rho rows back to the state set.

    Returns the trial states (``states`` with the projected rows replaced,
    whose matrices are also written back into ``rho``) and a mask of the
    rows whose projection is dead: nothing is left of the trace once the
    negative eigenvalues are clipped.  One stacked eigensolve; each state
    is built from that spectrum.
    """
    dead = np.zeros(len(rho), dtype=bool)
    rows = np.flatnonzero(moving)
    if not rows.size:
        return states, dead
    w, v = linalg.hermitian_eig_stack(rho[rows])
    lam = np.clip(w, 0.0, None)
    total = lam.sum(axis=-1)
    ok = total > 1e-12
    dead[rows[~ok]] = True
    fresh = rows[ok]
    if fresh.size:
        states = states.replace(
            fresh, StateStack.from_spectral(lam[ok] / total[ok, None], v[ok])
        )
        rho[fresh] = states.matrix[fresh]
    return states, dead


def _halved(step: np.ndarray, halvings: np.ndarray) -> np.ndarray:
    """Step sizes after the given numbers of halvings, each floored at 1e-6."""
    return np.where(halvings == 0, step, np.maximum(np.ldexp(step, -halvings), 1e-6))


def refine_witnesses(
    witnesses: list[Witness],
    objective: str,
    steps: int,
    seeds: list[int],
    maximize: list[bool] | None = None,
    initial_step: float = 0.1,
) -> list[Witness]:
    """Coordinate-wise random descent from each witness, all witnesses at once.

    Each step perturbs one Hermitian parameter of rho, A, or B (rho is
    projected back to the state set afterwards) and keeps the move only if
    the objective strictly improves on the best value so far, which starts
    at the stored value or its re-evaluation, whichever is better.  The
    step size halves after every steps/5 consecutive rejections, with a
    floor of 1e-6.  Witness k has its own stream (seeds[k]), step size and
    patience.  Witnesses must share one dimension.

    The walk is evaluated speculatively in blocks: each round, every
    unfinished witness builds its next _REFINE_BLOCK proposals as if all
    of them were rejected (the step schedule is then known in advance),
    all of them are scored in one stacked call, and each witness commits
    its first accepted proposal, discarding the rest.  Every row is
    evaluated from its own matrices only, so the result equals taking the
    steps one at a time, for every block size, and witness k's result
    equals refining it alone.
    """
    witnesses = list(witnesses)
    if steps <= 0 or not witnesses:
        return witnesses
    count = len(witnesses)
    sign = np.where(maximize if maximize is not None else [False] * count, -1.0, 1.0)
    # (3, count, d, d): rho, A and B of every witness
    mats = np.stack([
        linalg.as_complex_stack([getattr(w, name) for w in witnesses])
        for name in ("rho", "a", "b")
    ])
    dim = mats.shape[-1]
    coords = dim * dim

    seeds = np.array([int(s) & ((1 << 64) - 1) for s in seeds], dtype=np.uint64)
    picks = (ensembles.uniforms(seeds, steps) * 3 * coords).astype(np.int64) % (3 * coords)
    which, param = np.divmod(picks, coords)
    coord_i, coord_j = np.divmod(param, dim)
    deltas = ensembles.normals(seeds ^ np.uint64(_REFINE_SALT), steps)

    states = StateStack(mats[0])
    report = quantities.full_report_stack(states, mats[1], mats[2])
    start = sign * objective_from_report(objective, report)
    best = np.minimum(start, sign * np.array([w.objective_value for w in witnesses]))
    step = np.full(count, initial_step)
    patience = max(1, steps // 5)
    stale = np.zeros(count, dtype=np.int64)
    taken = np.zeros(count, dtype=np.int64)
    improved = np.zeros(count, dtype=bool)

    while (live := np.flatnonzero(taken < steps)).size:
        block = np.minimum(_REFINE_BLOCK, steps - taken[live])
        first = np.cumsum(block) - block  # row of each live witness's first proposal
        owner = np.repeat(live, block)
        j = np.arange(len(owner)) - np.repeat(first, block)
        k = taken[owner] + j
        size = _halved(step[owner], (stale[owner] + j) // patience)
        trial = mats.take(owner, axis=1)
        moved = which[owner, k]
        _perturb_rows(
            trial, moved, coord_i[owner, k], coord_j[owner, k], size * deltas[owner, k]
        )
        trial_states, dead = _project(states.take(owner), trial[0], moved == 0)
        report = quantities.full_report_stack(trial_states, trial[1], trial[2])
        value = np.where(dead, np.inf, sign[owner] * objective_from_report(objective, report))

        # the schedule after a fully rejected block, then each witness's first accept
        run = stale[live] + block
        step[live] = _halved(step[live], run // patience)
        stale[live] = run % patience
        taken[live] += block
        hit = np.minimum.reduceat(np.where(value < best[owner], j, _REFINE_BLOCK), first)
        won = hit < block
        if won.any():
            winners = live[won]
            rows = first[won] + hit[won]
            step[winners] = size[rows]
            stale[winners] = 0
            taken[winners] = k[rows] + 1
            mats[:, winners] = trial[:, rows]
            states = states.replace(winners, trial_states.take(rows))
            best[winners] = value[rows]
            improved[winners] = True

    return [
        Witness(
            rho=mats[0, row].copy(),
            a=mats[1, row].copy(),
            b=mats[2, row].copy(),
            objective_value=float(sign[row] * best[row]),
            sample_index=w.sample_index,
            refined=True,
        )
        if improved[row]
        else w
        for row, w in enumerate(witnesses)
    ]
