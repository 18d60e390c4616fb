"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and timings.  The heavy sampled sweep (criteria 4, 5, 7) runs once and is
shared by those tests.
"""

import time

import numpy as np
import pytest

from skewrel import ensembles, quantities, relations, search
from skewrel.cli import main
from skewrel.counterexamples import cov_variant_triple, re_ordering_triple
from skewrel.ensembles import EnsembleSpec, random_density, random_observable
from skewrel.quantities import DensityMatrix, Observable
from skewrel.relations import THEOREM_IDS

SEED = 20260808
DIMS = (2, 3, 4, 8)
SAMPLES_PER_DIM = 10_000
PURE_SAMPLES = 1_000
KIND_CYCLE = ("ginibre_mixed", "pure", "rank_k", "degenerate_spectrum")


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _announce(capsys, line: str) -> None:
    # criterion lines must reach the terminal even under pytest capture
    with capsys.disabled():
        print(line)


def _triple(dim: int, index: int):
    kind = KIND_CYCLE[index % len(KIND_CYCLE)]
    rank = max(1, dim - 1) if kind == "rank_k" else None
    spec = EnsembleSpec(dim=dim, kind=kind, rank=rank, seed=SEED)
    rho = random_density(spec, sample_index=index)
    a = random_observable(dim, 1.0, SEED ^ ensembles.SALT_OBSERVABLE_A, index)
    b = random_observable(dim, 1.0, SEED ^ ensembles.SALT_OBSERVABLE_B, index)
    return rho, a, b


@pytest.fixture(scope="module")
def sweep():
    """Evaluate every functional, identity, and bound on the shared sample set."""
    worst = {
        "theorem_gap": np.inf,          # min over all four theorem gaps
        "j_identity": 0.0,              # max |J - (2V - I)|
        "u_squared": 0.0,               # max |U^2 - I J|
        "i_spectral": 0.0,              # max |I_trace - I_spectral|
        "j_slack_identity": 0.0,        # max |(J - bound) - 2 sum l h_ii^2|
        "j_slack_min": np.inf,          # min (J - bound)
        "order_i": np.inf,              # min I
        "order_u_minus_i": np.inf,      # min (U - I)
        "order_v_minus_u": np.inf,      # min (V - U)
        "im_corr": 0.0,                 # max ||Im Corr|^2 - (1/4)|tr rho[A,B]|^2|
        "wyd_half": 0.0,                # max |I_{1/2} - I|
        "wyd_sym": 0.0,                 # max |I_a - I_{1-a}|, a in {0.1, 0.3}
        "chain_triangle": np.inf,       # min (t_triangle - t_corr_sq)
        "chain_schwarz": np.inf,        # min (t_schwarz - t_triangle)
        "chain_ij": np.inf,             # min (t_ij - t_schwarz)
        "chain_ji": np.inf,             # min (t_ji - t_corr_sq)
        "chain_uu": np.inf,             # min (t_uu - t_corr_sq)
    }
    started = time.perf_counter()
    for dim in DIMS:
        for index in range(SAMPLES_PER_DIM):
            rho, a, b = _triple(dim, index)
            report = quantities.full_report(rho, a, b)

            rhs = 0.25 * abs(report.commutator_avg) ** 2
            gaps = (
                report.v_a * report.v_b - rhs,
                report.v_a * report.v_b - report.cov.real**2 - rhs,
                report.u_a * report.u_b - rhs,
                report.u_a * report.u_b - report.corr.real**2 - rhs,
            )
            worst["theorem_gap"] = min(worst["theorem_gap"], *gaps)

            for v, i, j, u, obs in (
                (report.v_a, report.i_a, report.j_a, report.u_a, a),
                (report.v_b, report.i_b, report.j_b, report.u_b, b),
            ):
                worst["j_identity"] = max(worst["j_identity"], abs(j - (2 * v - i)))
                worst["u_squared"] = max(worst["u_squared"], abs(u * u - i * j))
                sums = quantities.spectral_sums(rho, obs)
                worst["i_spectral"] = max(worst["i_spectral"], abs(i - sums.skew_information))
                slack = j - sums.j_lower_bound
                worst["j_slack_identity"] = max(
                    worst["j_slack_identity"], abs(slack - sums.j_diagonal_term)
                )
                worst["j_slack_min"] = min(worst["j_slack_min"], slack)
                worst["order_i"] = min(worst["order_i"], i)
                worst["order_u_minus_i"] = min(worst["order_u_minus_i"], u - i)
                worst["order_v_minus_u"] = min(worst["order_v_minus_u"], v - u)

            worst["im_corr"] = max(worst["im_corr"], abs(report.corr.imag**2 - rhs))

            worst["wyd_half"] = max(
                worst["wyd_half"],
                abs(quantities.wyd_skew_information(rho, a, 0.5) - report.i_a),
            )
            for alpha in (0.1, 0.3):
                worst["wyd_sym"] = max(
                    worst["wyd_sym"],
                    abs(
                        quantities.wyd_skew_information(rho, a, alpha)
                        - quantities.wyd_skew_information(rho, a, 1.0 - alpha)
                    ),
                )

            t = relations.proof_chain(rho, a, b, report=report)
            worst["chain_triangle"] = min(worst["chain_triangle"], t.t_triangle - t.t_corr_sq)
            worst["chain_schwarz"] = min(worst["chain_schwarz"], t.t_schwarz - t.t_triangle)
            worst["chain_ij"] = min(worst["chain_ij"], t.t_ij - t.t_schwarz)
            worst["chain_ji"] = min(worst["chain_ji"], t.t_ji - t.t_corr_sq)
            worst["chain_uu"] = min(worst["chain_uu"], t.t_uu - t.t_corr_sq)
    worst["elapsed"] = time.perf_counter() - started
    worst["samples"] = len(DIMS) * SAMPLES_PER_DIM
    return worst


def test_criterion_1_cov_variant_counterexample_value(capsys):
    rho, a, b = cov_variant_triple()
    rho_m, a_m, b_m = rho.matrix.copy(), a.matrix.copy(), b.matrix.copy()

    def evaluate():
        report = quantities.full_report(DensityMatrix(rho_m), Observable(a_m), Observable(b_m))
        return relations.verdict_from_report(report, "false_cov_variant").gap

    best = np.inf
    for _ in range(30):
        t0 = time.perf_counter()
        gap = evaluate()
        best = min(best, time.perf_counter() - t0)
    ok_value = abs(gap - (-0.75)) <= 1e-10
    ok_time = best < 1e-3
    _announce(
        capsys,
        f"\nACCEPTANCE 1 (cov-variant gap = -3/4): {_status(ok_value and ok_time)} "
        f"gap={gap!r} err={abs(gap + 0.75):.2e} (tol 1e-10), best runtime {best*1e6:.0f} us (< 1 ms)"
    )
    assert ok_value and ok_time


def test_criterion_2_re_ordering_counterexample_value(capsys):
    rho, a, b = re_ordering_triple()
    gap = relations.verdict_from_report(quantities.full_report(rho, a, b), "false_re_ordering").gap
    rel = abs(gap - (-0.1539)) / 0.1539
    ok = rel <= 1e-3
    _announce(
        capsys,
        f"\nACCEPTANCE 2 (re-ordering gap = -0.1539): {_status(ok)} "
        f"gap={gap!r} rel_err={rel:.2e} (tol 1e-3)"
    )
    assert ok


def test_criterion_3_lhs_difference_both_values(capsys):
    d1 = relations.lhs_difference_from_report(quantities.full_report(*cov_variant_triple()))
    d2 = relations.lhs_difference_from_report(quantities.full_report(*re_ordering_triple()))
    rel1 = abs(d1 - (-0.232051)) / 0.232051
    rel2 = abs(d2 - 13.7862) / 13.7862
    ok = rel1 <= 1e-5 and rel2 <= 1e-3
    _announce(
        capsys,
        f"\nACCEPTANCE 3 (lhs differences): {_status(ok)} "
        f"{d1!r} vs -0.232051 (rel {rel1:.2e}, tol 1e-5); "
        f"{d2!r} vs 13.7862 (rel {rel2:.2e}, tol 1e-3)"
    )
    assert ok


def test_criterion_4_theorem_suite(sweep, capsys):
    ok_gap = sweep["theorem_gap"] >= -1e-9
    ok_time = sweep["elapsed"] < 60.0
    _announce(
        capsys,
        f"\nACCEPTANCE 4 (theorem suite, {sweep['samples']} triples over dims {DIMS}): "
        f"{_status(ok_gap and ok_time)} min gap={sweep['theorem_gap']:.3e} (>= -1e-9), "
        f"sweep ran {sweep['elapsed']:.1f} s incl. criteria 5+7 work (< 60 s)"
    )
    assert ok_gap and ok_time


def test_criterion_5_identity_suite(sweep, capsys):
    checks = [
        ("J = 2V - I", sweep["j_identity"] <= 1e-10, f"max dev {sweep['j_identity']:.2e} (tol 1e-10)"),
        ("U^2 = I J", sweep["u_squared"] <= 1e-9, f"max dev {sweep['u_squared']:.2e} (tol 1e-9)"),
        ("trace vs spectral I", sweep["i_spectral"] <= 1e-9, f"max dev {sweep['i_spectral']:.2e} (tol 1e-9)"),
        (
            "J slack = 2 sum l h^2 >= 0",
            sweep["j_slack_identity"] <= 1e-9 and sweep["j_slack_min"] >= -1e-9,
            f"max dev {sweep['j_slack_identity']:.2e}, min slack {sweep['j_slack_min']:.2e}",
        ),
        (
            "0 <= I <= U <= V",
            sweep["order_i"] >= -1e-9
            and sweep["order_u_minus_i"] >= -1e-9
            and sweep["order_v_minus_u"] >= -1e-9,
            f"min I {sweep['order_i']:.2e}, min U-I {sweep['order_u_minus_i']:.2e}, "
            f"min V-U {sweep['order_v_minus_u']:.2e}",
        ),
        ("|Im Corr|^2 = rhs", sweep["im_corr"] <= 1e-9, f"max dev {sweep['im_corr']:.2e} (tol 1e-9)"),
        (
            "order-1/2 and alpha-symmetry",
            sweep["wyd_half"] <= 1e-10 and sweep["wyd_sym"] <= 1e-10,
            f"max dev {max(sweep['wyd_half'], sweep['wyd_sym']):.2e} (tol 1e-10)",
        ),
    ]
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name}: {_status(passed)} {info}" for name, passed, info in checks)
    _announce(capsys, f"\nACCEPTANCE 5 (identity suite): {_status(ok)} {detail}")
    assert ok


def test_criterion_6_pure_state_reduction(capsys):
    worst_iv = worst_uv = worst_cc = worst_verdict = 0.0
    for index in range(PURE_SAMPLES):
        dim = DIMS[index % len(DIMS)]
        rho = random_density(EnsembleSpec(dim=dim, kind="pure", seed=SEED ^ 0xABCDEF), index)
        a = random_observable(dim, 1.0, SEED ^ ensembles.SALT_OBSERVABLE_A, index)
        b = random_observable(dim, 1.0, SEED ^ ensembles.SALT_OBSERVABLE_B, index)
        report = quantities.full_report(rho, a, b)
        worst_iv = max(worst_iv, abs(report.i_a - report.v_a), abs(report.i_b - report.v_b))
        worst_uv = max(worst_uv, abs(report.u_a - report.v_a), abs(report.u_b - report.v_b))
        worst_cc = max(worst_cc, abs(report.corr - report.cov))
        wy = relations.verdict_from_report(report, "schrodinger_wy")
        sc = relations.verdict_from_report(report, "schrodinger")
        worst_verdict = max(
            worst_verdict, abs(wy.lhs - sc.lhs), abs(wy.rhs - sc.rhs), abs(wy.gap - sc.gap)
        )
    ok = max(worst_iv, worst_uv, worst_cc, worst_verdict) <= 1e-9
    _announce(
        capsys,
        f"\nACCEPTANCE 6 (pure-state reduction, {PURE_SAMPLES} states): {_status(ok)} "
        f"max |I-V| {worst_iv:.2e}, |U-V| {worst_uv:.2e}, |Corr-Cov| {worst_cc:.2e}, "
        f"verdict dev {worst_verdict:.2e} (tol 1e-9)"
    )
    assert ok


def test_criterion_7_proof_chain(sweep, capsys):
    margins = {k: sweep[k] for k in ("chain_triangle", "chain_schwarz", "chain_ij", "chain_ji", "chain_uu")}
    ok = all(v >= -1e-9 for v in margins.values())
    detail = ", ".join(f"{k.removeprefix('chain_')} {v:.3e}" for k, v in margins.items())
    _announce(capsys, f"\nACCEPTANCE 7 (bound chain monotone on all samples): {_status(ok)} min margins: {detail}")
    assert ok


def test_criterion_8_search_feasibility(capsys):
    task = search.SearchTask(
        objective="min_gap_false_cov_variant", dim=2, samples=100_000, seed=SEED, top_k=10
    )
    started = time.perf_counter()
    witnesses = search.run_search(task)
    elapsed = time.perf_counter() - started
    best = witnesses[0].objective_value
    random_best = min(
        (w.objective_value for w in witnesses if w.sample_index >= 2), default=np.inf
    )
    sign_task = search.SearchTask(
        objective="sign_witnesses_lhs_difference", dim=2, samples=1_000, seed=SEED
    )
    neg, pos = search.run_search(sign_task)
    ok = best <= -0.75 and random_best <= -0.5 and neg.objective_value < 0 < pos.objective_value
    _announce(
        capsys,
        f"\nACCEPTANCE 8 (search feasibility): {_status(ok)} best gap {best:.4f} (<= -0.75 "
        f"with injected triples), best random-sample gap {random_best:.4f} (<= -0.5), "
        f"signs ({neg.objective_value:.4f}, {pos.objective_value:.4f}), "
        f"{task.samples} samples in {elapsed:.1f} s"
    )
    assert ok


def test_criterion_9_search_determinism(tmp_path, capsys):
    def run(name, threads):
        out = tmp_path / name
        code = main([
            "search", "--objective", "false_cov_variant", "--dim", "2",
            "--samples", "2000", "--seed", "31415", "--top", "5",
            "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        return out.read_bytes()

    runs = [run("a.json", 1), run("b.json", 1), run("c.json", 4), run("d.json", 8)]
    ok = all(r == runs[0] for r in runs)
    capsys.readouterr()
    _announce(
        capsys,
        f"\nACCEPTANCE 9 (byte-identical witness files, 1 vs 4 vs 8 workers): {_status(ok)} "
        f"{len(runs[0])} bytes each",
    )
    assert ok
