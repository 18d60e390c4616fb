from dataclasses import replace

import numpy as np
import pytest

import oracles
from skewrel import ensembles, quantities, search
from skewrel.counterexamples import builtin_triple, cov_variant_triple
from skewrel.ensembles import EnsembleSpec
from skewrel.errors import BadSpec
from skewrel.search import SearchTask, Witness, refine_witness, run_search


def objective_value(objective, rho, a, b) -> float:
    """Score one triple through the one-triple report."""
    return search.objective_from_report(objective, quantities.full_report(rho, a, b))


def small_task(**overrides):
    base = dict(
        objective="min_gap_false_cov_variant",
        dim=2,
        samples=400,
        seed=1234,
        top_k=5,
    )
    base.update(overrides)
    return SearchTask(**base)


class TestRunSearch:
    def test_min_gap_results_sorted_ascending(self):
        witnesses = run_search(small_task())
        values = [w.objective_value for w in witnesses]
        assert values == sorted(values)
        assert len(witnesses) == 5

    def test_injected_counterexample_bounds_result(self):
        # candidate 0 is the known -0.75 triple, so the best can't be worse
        witnesses = run_search(small_task(samples=3))
        assert witnesses[0].objective_value <= -0.75 + 1e-12

    def test_dim3_search_runs_without_injection(self):
        witnesses = run_search(small_task(dim=3, samples=100, top_k=3))
        assert len(witnesses) == 3
        assert all(w.rho.shape == (3, 3) for w in witnesses)

    def test_deterministic_across_runs(self):
        a = run_search(small_task())
        b = run_search(small_task())
        for wa, wb in zip(a, b):
            assert wa.objective_value == wb.objective_value
            assert wa.sample_index == wb.sample_index
            np.testing.assert_array_equal(wa.rho, wb.rho)
            np.testing.assert_array_equal(wa.a, wb.a)

    def test_deterministic_across_worker_counts(self):
        serial = run_search(small_task())
        threaded = run_search(small_task(), workers=4)
        for ws, wt in zip(serial, threaded):
            assert ws.objective_value == wt.objective_value
            assert ws.sample_index == wt.sample_index
            np.testing.assert_array_equal(ws.rho, wt.rho)

    def test_witness_reevaluation_is_sound(self):
        task = small_task(samples=200)
        for w in run_search(task):
            again = search.reevaluate(task.objective, w)
            assert abs(again - w.objective_value) <= 1e-9

    def test_sign_objective_returns_both_signs(self):
        task = small_task(objective="sign_witnesses_lhs_difference", samples=50)
        neg, pos = run_search(task)
        # the injected triples already witness both signs
        assert neg.objective_value < 0
        assert pos.objective_value > 0

    def test_sign_objective_single_candidate(self):
        task = small_task(
            objective="sign_witnesses_lhs_difference", dim=3, samples=1, top_k=1
        )
        neg, pos = run_search(task)
        assert neg.sample_index == pos.sample_index

    def test_re_ordering_objective_finds_negative(self):
        witnesses = run_search(small_task(objective="min_gap_re_ordering", samples=500))
        assert witnesses[0].objective_value <= -0.1539 + 1e-12

    def test_bad_task_rejected(self):
        with pytest.raises(BadSpec):
            run_search(small_task(samples=0))
        with pytest.raises(BadSpec):
            run_search(small_task(objective="maximize_fun"))
        with pytest.raises(BadSpec):
            run_search(small_task(top_k=0))


class TestRefinement:
    def test_zero_steps_is_identity(self):
        w = run_search(small_task(samples=3))[0]
        assert refine_witness(w, "min_gap_false_cov_variant", 0, seed=1) is w

    def test_never_worsens(self):
        task = small_task(samples=50)
        for w in run_search(task)[:3]:
            refined = refine_witness(w, task.objective, 60, seed=7)
            assert refined.objective_value <= w.objective_value + 1e-12

    def test_refining_known_counterexample_improves_past_reference(self):
        rho, a, b = cov_variant_triple()
        w = Witness(
            rho=rho.matrix, a=a.matrix, b=b.matrix,
            objective_value=-0.75, sample_index=0,
        )
        refined = refine_witness(w, "min_gap_false_cov_variant", 300, seed=11)
        assert refined.objective_value <= -0.75

    def test_refined_value_reevaluates(self):
        task = small_task(samples=30, refine=True, refine_steps=40)
        for w in run_search(task):
            assert abs(search.reevaluate(task.objective, w) - w.objective_value) <= 1e-9

    def test_refinement_deterministic(self):
        w = run_search(small_task(samples=30))[0]
        r1 = refine_witness(w, "min_gap_false_cov_variant", 50, seed=3)
        r2 = refine_witness(w, "min_gap_false_cov_variant", 50, seed=3)
        assert r1.objective_value == r2.objective_value
        np.testing.assert_array_equal(r1.rho, r2.rho)

    def test_refined_states_stay_valid(self):
        task = small_task(samples=20, refine=True, refine_steps=50)
        for w in run_search(task):
            from skewrel.quantities import DensityMatrix
            state = DensityMatrix(w.rho)  # validates Hermitian/PSD/trace
            assert state.dim == 2


def _witness_bytes(w):
    return (
        w.rho.tobytes(),
        w.a.tobytes(),
        w.b.tobytes(),
        repr(w.objective_value),
        w.sample_index,
        w.refined,
    )


def _per_triple(task, index):
    """Candidate `index` of a task, drawn one triple at a time."""
    if task.dim == 2 and index < 2:
        return builtin_triple(index)
    return (
        ensembles.random_density(task.state_spec(), index),
        ensembles.random_observable(
            task.dim, task.observable_scale, task.seed ^ ensembles.SALT_OBSERVABLE_A, index
        ),
        ensembles.random_observable(
            task.dim, task.observable_scale, task.seed ^ ensembles.SALT_OBSERVABLE_B, index
        ),
    )


def _refine_inputs(task):
    """The witnesses of a task with the seeds and directions run_search refines them with."""
    witnesses = run_search(task)
    seeds = [
        ensembles.stream_seed(task.seed ^ search._REFINE_SALT, w.sample_index)
        for w in witnesses
    ]
    maximize = [
        task.objective == "sign_witnesses_lhs_difference" and k == 1
        for k in range(len(witnesses))
    ]
    return witnesses, seeds, maximize


class TestBatchedPath:
    @pytest.mark.parametrize("kind", ensembles.KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_batched_values_match_per_triple(self, kind, dim):
        seed = 4242
        spec = EnsembleSpec(
            dim=dim, kind=kind, rank=dim - 1 if kind == "rank_k" else None, seed=seed
        )
        indices = np.arange(2, 9)
        states = ensembles.random_density_stack(spec, indices)
        a = ensembles.random_observable_stack(
            dim, 1.0, seed ^ ensembles.SALT_OBSERVABLE_A, indices
        )
        b = ensembles.random_observable_stack(
            dim, 1.0, seed ^ ensembles.SALT_OBSERVABLE_B, indices
        )
        report = quantities.full_report_stack(states, a, b)
        for objective in search.OBJECTIVES:
            batched = search.objective_from_report(objective, report)
            for row, index in enumerate(indices):
                single = objective_value(
                    objective,
                    ensembles.random_density(spec, int(index)),
                    ensembles.random_observable(
                        dim, 1.0, seed ^ ensembles.SALT_OBSERVABLE_A, int(index)
                    ),
                    ensembles.random_observable(
                        dim, 1.0, seed ^ ensembles.SALT_OBSERVABLE_B, int(index)
                    ),
                )
                assert abs(batched[row] - single) <= 1e-12 * max(1.0, abs(single))

    @pytest.mark.parametrize("kind", [k for k in ensembles.KINDS if k != "rank_k"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_evaluate_all_matches_per_triple(self, kind, dim):
        for objective in search.OBJECTIVES:
            task = small_task(objective=objective, dim=dim, samples=6, state_kind=kind)
            values = search.evaluate_all(task)
            for index in range(task.samples):
                single = objective_value(objective, *_per_triple(task, index))
                assert abs(values[index] - single) <= 1e-12 * max(1.0, abs(single))

    def test_chunk_boundaries_change_no_value(self):
        # 1100 samples at d=8 span several stacks
        task = small_task(dim=8, samples=1100, top_k=3)
        rows = search._CHUNK_ENTRIES // 64
        assert rows < task.samples
        values = search.evaluate_all(task)
        head = search.evaluate_all(replace(task, samples=40))
        assert values[:40].tobytes() == head.tobytes()
        for index in range(rows - 3, rows + 3):
            single = objective_value(task.objective, *_per_triple(task, index))
            assert abs(values[index] - single) <= 1e-12 * max(1.0, abs(single))
        first = [_witness_bytes(w) for w in run_search(task)]
        second = [_witness_bytes(w) for w in run_search(task)]
        assert first == second

    @pytest.mark.parametrize(
        "objective", ["min_gap_false_cov_variant", "sign_witnesses_lhs_difference"]
    )
    def test_lockstep_refine_equals_refining_alone(self, objective):
        task = small_task(objective=objective, samples=60, top_k=4, refine_steps=80)
        witnesses, seeds, maximize = _refine_inputs(task)
        together = search.refine_witnesses(witnesses, objective, 80, seeds, maximize)
        alone = [
            refine_witness(w, objective, 80, seed=s, maximize=m)
            for w, s, m in zip(witnesses, seeds, maximize)
        ]
        assert [_witness_bytes(w) for w in together] == [_witness_bytes(w) for w in alone]
        assert any(w.refined for w in together)
        refined_search = run_search(replace(task, refine=True))
        assert [_witness_bytes(w) for w in refined_search] == [
            _witness_bytes(w) for w in together
        ]

    def test_lockstep_refine_dim3_rho_moves(self):
        task = small_task(dim=3, samples=40, top_k=3)
        witnesses = run_search(task)
        together = search.refine_witnesses(witnesses, task.objective, 60, [5, 6, 7])
        alone = [
            refine_witness(w, task.objective, 60, seed=s) for w, s in zip(witnesses, [5, 6, 7])
        ]
        assert [_witness_bytes(w) for w in together] == [_witness_bytes(w) for w in alone]
        for w, before in zip(together, witnesses):
            assert w.objective_value <= before.objective_value
            assert abs(search.reevaluate(task.objective, w) - w.objective_value) <= 1e-9

    @pytest.mark.parametrize("refine", [False, True])
    def test_worker_counts_give_identical_bytes(self, refine):
        task = small_task(samples=300, refine=refine, refine_steps=30)
        runs = [[_witness_bytes(w) for w in run_search(task, workers=k)] for k in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2]


def _assert_matches_lockstep(witnesses, objective, steps, seeds, maximize=None, **kw):
    block = search.refine_witnesses(witnesses, objective, steps, seeds, maximize, **kw)
    lockstep = oracles.lockstep_refine(witnesses, objective, steps, seeds, maximize, **kw)
    assert [_witness_bytes(w) for w in block] == [_witness_bytes(w) for w in lockstep]
    return block


class TestSpeculativeRefine:
    """The block walk of refine_witnesses against the one-step-at-a-time reference."""

    @pytest.mark.parametrize("kind", ["ginibre_mixed", "pure", "degenerate_spectrum"])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_matches_lockstep(self, objective, dim, kind):
        task = small_task(objective=objective, dim=dim, samples=30, top_k=3, state_kind=kind)
        witnesses, seeds, maximize = _refine_inputs(task)
        refined = _assert_matches_lockstep(witnesses, objective, 40, seeds, maximize)
        assert any(w.refined for w in refined)

    @pytest.mark.parametrize("steps", [1, 5, 8, 21])
    def test_steps_below_and_off_block_multiples(self, steps):
        assert search._REFINE_BLOCK == 8
        witnesses, seeds, maximize = _refine_inputs(small_task(samples=40, top_k=4))
        _assert_matches_lockstep(witnesses, "min_gap_false_cov_variant", steps, seeds, maximize)

    def test_maximize_rows_of_sign_objective(self):
        task = small_task(objective="sign_witnesses_lhs_difference", dim=3, samples=50)
        witnesses, seeds, maximize = _refine_inputs(task)
        assert maximize == [False, True]
        refined = _assert_matches_lockstep(witnesses, task.objective, 60, seeds, maximize)
        assert refined[1].objective_value >= witnesses[1].objective_value

    def test_single_witness(self):
        witnesses, seeds, _ = _refine_inputs(small_task(samples=20, top_k=1))
        assert len(witnesses) == 1
        _assert_matches_lockstep(witnesses, "min_gap_false_cov_variant", 45, seeds)

    def test_top_10(self):
        task = small_task(objective="min_gap_re_ordering", dim=3, samples=60, top_k=10)
        witnesses, seeds, maximize = _refine_inputs(task)
        assert len(witnesses) == 10
        _assert_matches_lockstep(witnesses, task.objective, 50, seeds, maximize)

    def test_step_floor(self):
        # steps < 10 gives patience 1, so every rejection halves the step
        # and 3e-6 reaches the 1e-6 floor after two rejections
        witnesses, seeds, _ = _refine_inputs(small_task(dim=3, samples=20, top_k=3))
        _assert_matches_lockstep(
            witnesses, "min_gap_false_cov_variant", 9, seeds, initial_step=3e-6
        )

    def test_halved_matches_repeated_halving(self):
        for start in (0.1, 3e-6, 1e-6, 1e-8, 0.0):
            step = start
            for h in range(30):
                got = search._halved(np.array([start]), np.array([h]))[0]
                assert got == step
                step = max(step / 2.0, 1e-6)

    def test_dead_projections(self, monkeypatch):
        # From |0><0|, a step of size ~50 down the (0, 0) entry leaves no
        # positive eigenvalue, so that projection is dead.
        dead_rows = []
        project = search._project

        def counting(states, rho, moving):
            out = project(states, rho, moving)
            dead_rows.append(int(out[1].sum()))
            return out

        monkeypatch.setattr(search, "_project", counting)
        objective = "min_gap_false_cov_variant"
        rho = np.diag([1.0, 0.0]).astype(complex)
        witnesses = []
        for index in range(4):
            a = ensembles.random_observable(2, 1.0, 11, index).matrix
            b = ensembles.random_observable(2, 1.0, 12, index).matrix
            value = objective_value(objective, quantities.DensityMatrix(rho), a, b)
            witnesses.append(Witness(rho, a, b, value, index))
        _assert_matches_lockstep(witnesses, objective, 60, [1, 2, 3, 4], initial_step=50.0)
        assert sum(dead_rows) > 0

    @pytest.mark.parametrize("block", [1, 16])
    def test_block_size_changes_no_byte(self, monkeypatch, block):
        task = small_task(dim=3, samples=40, top_k=4, refine=True, refine_steps=70)
        default = [_witness_bytes(w) for w in run_search(task)]
        monkeypatch.setattr(search, "_REFINE_BLOCK", block)
        assert [_witness_bytes(w) for w in run_search(task)] == default
