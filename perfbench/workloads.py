"""The three benchmark workloads.

Each workload turns the seed into a deterministic sequence of passes.  A
pass is a list of operations; an operation is one call the user waits
for (32 triples verified, one search task, one `cli.main` request),
timed alone, with its output checked right after, outside the timed
region.  Pass p has its own inputs: sample indices and task seeds are
offset by p, and cli-requests writes new problem and witness files for
every pass, so no result cache keyed on inputs can serve a later pass.
Every phase of a run starts again at pass 0, so counts taken over pass 0
repeat exactly between runs of one commit.

Only the public entry points the roadmap keeps are called:
`ensembles.random_density`/`random_observable`,
`quantities.full_report`/`spectral_sums`/`wyd_skew_information`,
`relations.verdict_from_report`/`proof_chain`, `search.run_search`
(plus `search.reevaluate` to check witnesses) and `cli.main`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
from time import perf_counter
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from skewrel import cli, ensembles, quantities, relations, search

THEOREM_IDS = relations.THEOREM_IDS
RELATION_IDS = relations.RELATION_IDS


@dataclass
class Op:
    kind: str                       # names the operation in failure reports
    run: Callable[[], Any]          # the timed call
    check: Callable[[Any], bool]    # True when the output is correct


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * max(1.0, abs(ref))


# --------------------------------------------------------------------------
# sweep-mixed
# --------------------------------------------------------------------------


class SweepMixed:
    """The acceptance sweep's per-triple work on the library API.

    One operation verifies two triples of every (dimension, state kind)
    pair: d = 2, 3, 4, 8 times ginibre_mixed, pure, rank_k and
    degenerate_spectrum, all at one observable scale, which alternates 1
    and 100.  Every operation then does the same amount of work, so the
    latency percentiles do not fall on the boundary between a cheap and a
    costly kind of triple, and an operation is long enough (about 40 ms)
    that a short stall of the machine moves its p99 little.

    Why: this is the verification use.  The draw and the Jacobi eigensolver
    dominate at d=8 and matter little at d=2, and this is the only workload
    that calls `spectral_sums`, `wyd_skew_information` and `proof_chain` in
    bulk.  Moves: ensembles.random_density_us.d*, linalg.hermitian_eig_us.d*,
    quantities.spectral_sums_us, quantities.wyd_skew_information_us,
    relations.verdict_from_report_us, relations.proof_chain_us.
    """

    name = "sweep-mixed"
    DIMS = (2, 3, 4, 8)
    KINDS = ("ginibre_mixed", "pure", "rank_k", "degenerate_spectrum")
    SCALES = (1.0, 100.0)
    ALPHAS = (0.5, 0.1, 0.9, 0.3, 0.7)
    PER_SPEC = 2   # triples of each (dim, kind) per operation
    PASS = 32      # operations per pass: 1024 triples, every (dim, kind, scale) 32 times

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.specs = [
            ensembles.EnsembleSpec(
                dim=dim, kind=kind, rank=dim - 1 if kind == "rank_k" else None, seed=seed
            )
            for kind in self.KINDS
            for dim in self.DIMS
        ]
        self.digest = _digest(
            {"seed": seed, "pass": self.PASS, "per_spec": self.PER_SPEC, "dims": self.DIMS,
             "kinds": self.KINDS, "scales": self.SCALES}
        )
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = {"theorem_false_fail": 0, "theorem_false_fail_base": 0}

    def pass_ops(self, p: int) -> list[Op]:
        return [self._op(p, j) for j in range(self.PASS)]

    def warmup_ops(self) -> list[Op]:
        return self.pass_ops(0)[:2]   # one operation at each scale

    def _op(self, p: int, j: int) -> Op:
        scale = self.SCALES[j % 2]
        first = (p * self.PASS + j) * self.PER_SPEC

        def run():
            return [
                self._triple(spec, scale, index)
                for index in range(first, first + self.PER_SPEC)
                for spec in self.specs
            ]

        def check(triples) -> bool:
            # Every identity and chain check runs at both scales, with its
            # tolerance scaled to the size of the quantity it compares.
            if not all(_sweep_identities_ok(*out, scale) for out in triples):
                return False
            if scale == 1.0:
                return all(_theorems_hold(out[1]) for out in triples)
            # Scale-100 theorem verdicts: near-tight theorem gaps are
            # roundoff noise around zero, and which ones cross -1e-9 depends
            # on the order of float operations.  They are counted, not
            # failed, so that unrelated changes are not rejected at random;
            # scale-aware tolerances should bring the count to 0.
            if p == 0:
                for out in triples:
                    self.counts["theorem_false_fail_base"] += 1
                    if not _theorems_hold(out[1]):
                        self.counts["theorem_false_fail"] += 1
            return True

        return Op(f"scale-{scale:g}", run, check)

    def _triple(self, spec, scale, index):
        seed, dim = self.seed, spec.dim
        rho = ensembles.random_density(spec, sample_index=index)
        a = ensembles.random_observable(dim, scale, seed ^ ensembles.SALT_OBSERVABLE_A, index)
        b = ensembles.random_observable(dim, scale, seed ^ ensembles.SALT_OBSERVABLE_B, index)
        report = quantities.full_report(rho, a, b)
        verdicts = [relations.verdict_from_report(report, rid) for rid in RELATION_IDS]
        sums = (quantities.spectral_sums(rho, a), quantities.spectral_sums(rho, b))
        wyd = {alpha: quantities.wyd_skew_information(rho, a, alpha) for alpha in self.ALPHAS}
        chain = relations.proof_chain(rho, a, b, report=report)
        return report, verdicts, sums, wyd, chain

    def derived(self, requests_per_s) -> dict:
        return {"triples_per_s": (self.PER_SPEC * len(self.specs) * requests_per_s, "1/s")}


def _theorems_hold(verdicts) -> bool:
    """The acceptance suite's theorem check: every gap >= -1e-9 and holding."""
    return all(
        v.gap >= -1e-9 and v.holds for v in verdicts if v.relation_id in THEOREM_IDS
    )


def _sweep_identities_ok(report, verdicts, sums, wyd, chain, scale) -> bool:
    """The acceptance suite's identity and chain checks (criteria 4, 5, 7).

    The tolerances are the suite's at scale 1.  V, I, J, U, the spectral
    sums and wyd grow as scale**2, and the squared terms and the chain as
    scale**4, so each tolerance grows with the quantity it bounds.
    """
    t2, t4 = scale**2, scale**4
    rhs = 0.25 * abs(report.commutator_avg) ** 2
    for v, i, j, u, s in (
        (report.v_a, report.i_a, report.j_a, report.u_a, sums[0]),
        (report.v_b, report.i_b, report.j_b, report.u_b, sums[1]),
    ):
        slack = j - s.j_lower_bound
        if (
            abs(j - (2 * v - i)) > 1e-10 * t2
            or abs(u * u - i * j) > 1e-9 * t4
            or abs(i - s.skew_information) > 1e-9 * t2
            or abs(slack - s.j_diagonal_term) > 1e-9 * t2
            or slack < -1e-9 * t2
            or i < -1e-9 * t2
            or u - i < -1e-9 * t2
            or v - u < -1e-9 * t2
        ):
            return False
    if abs(report.corr.imag**2 - rhs) > 1e-9 * t4:
        return False
    if abs(wyd[0.5] - report.i_a) > 1e-10 * t2:
        return False
    if abs(wyd[0.1] - wyd[0.9]) > 1e-10 * t2 or abs(wyd[0.3] - wyd[0.7]) > 1e-10 * t2:
        return False
    return (
        chain.t_triangle - chain.t_corr_sq >= -1e-9 * t4
        and chain.t_schwarz - chain.t_triangle >= -1e-9 * t4
        and chain.t_ij - chain.t_schwarz >= -1e-9 * t4
        and chain.t_ji - chain.t_corr_sq >= -1e-9 * t4
        and chain.t_uu - chain.t_corr_sq >= -1e-9 * t4
    )


# --------------------------------------------------------------------------
# search-d2
# --------------------------------------------------------------------------


class SearchD2:
    """Witness search for the false covariance variant at d=2.

    One operation is one search task run three ways: `run_search` at
    workers=1, at workers=2, then with refine=True, which refines the same
    returned witnesses.  Each call is timed inside the operation for the
    per-mode rates.  A task has 1000 samples and refines each of its 4
    witnesses for 200 steps, the size of the real bulk callers (`skewrel
    search` defaults to 10000 samples and 200 refine steps,
    scripts/search_sweep.py to 20000 samples).  At this size the draw and
    `full_report` take the same shares as at 10000 samples, and the pool
    start-up, validation and the two built-in counterexamples are a
    fraction of a percent of the work.

    Why: this is the bulk-throughput use.  At d=2 the eigensolver is a
    closed-form branch and the draw plus `full_report` dominate, so a
    batched evaluation core and removing the thread pool show here; the
    refine call shows the eigendecompositions per refine step.  Moves:
    search.evaluate_all_self_us, search.select_us, search.thread_speedup,
    search.refine_witness_us_per_step, search.refine_eig_calls_per_step,
    quantities.full_report_us.d2, quantities.state_us,
    ensembles.random_density_us.d2.
    """

    name = "search-d2"
    OBJECTIVE = "min_gap_false_cov_variant"
    SAMPLES = 1000      # samples per run_search call
    TOP_K = 4
    REFINE_STEPS = 200  # per witness, so 800 refine steps per task
    TASKS = 6           # operations per pass
    BEST_MAX = -0.75    # the injected counterexample reaches exactly -3/4

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.digest = _digest(
            {
                "seed": seed,
                "tasks": self.TASKS,
                "samples": self.SAMPLES,
                "top_k": self.TOP_K,
                "refine_steps": self.REFINE_STEPS,
            }
        )
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = {}
        self.call_seconds = {"w1": [], "w2": [], "refine": []}

    def _task(self, p: int, g: int, samples: int, refine_steps: int):
        return search.SearchTask(
            objective=self.OBJECTIVE,
            dim=2,
            samples=samples,
            seed=(self.seed * 1_000_003 + p * self.TASKS + g) & 0xFFFFFFFF,
            top_k=self.TOP_K,
            refine_steps=refine_steps,
        )

    def pass_ops(self, p: int) -> list[Op]:
        return [
            self._op(self._task(p, g, self.SAMPLES, self.REFINE_STEPS))
            for g in range(self.TASKS)
        ]

    def warmup_ops(self) -> list[Op]:
        # One small task touches every code path of an operation; a full
        # task would only make set-up as long as a second of measurement.
        return [self._op(self._task(0, g, 16, 8), record=False) for g in range(2)]

    def _op(self, task, record=True) -> Op:
        refine_task = replace(task, refine=True)
        objective = task.objective

        def run():
            t0 = perf_counter()
            w1 = search.run_search(task, workers=1)
            t1 = perf_counter()
            w2 = search.run_search(task, workers=2)
            t2 = perf_counter()
            refined = search.run_search(refine_task, workers=1)
            t3 = perf_counter()
            return w1, w2, refined, (t1 - t0, t2 - t1, t3 - t2)

        def rescored(ws) -> bool:
            return all(
                _close(search.reevaluate(objective, w), w.objective_value, 1e-9) for w in ws
            )

        def check(out) -> bool:
            w1, w2, refined, seconds = out
            if w1[0].objective_value > self.BEST_MAX + 1e-9 or not rescored(w1):
                return False
            # witness bytes must not depend on the worker count
            if [_witness_bytes(w) for w in w2] != [_witness_bytes(w) for w in w1]:
                return False
            if len(refined) != len(w1):
                return False
            for r, w in zip(refined, w1):
                if r.sample_index != w.sample_index or r.objective_value > w.objective_value:
                    return False
                if not r.refined and _witness_bytes(r) != _witness_bytes(w):
                    return False
            if not rescored(refined):
                return False
            if record:
                for mode, s in zip(("w1", "w2", "refine"), seconds):
                    self.call_seconds[mode].append(s)
            return True

        return Op("task", run, check)

    def derived(self, requests_per_s) -> dict:
        w1 = statistics.median(self.call_seconds["w1"])
        w2 = statistics.median(self.call_seconds["w2"])
        refine = statistics.median(self.call_seconds["refine"])
        steps = self.TOP_K * self.REFINE_STEPS
        return {
            "samples_per_s": (self.SAMPLES / w1, "1/s"),
            "samples_per_s_2t": (self.SAMPLES / w2, "1/s"),
            # the refine call evaluates the task again before refining
            "refine_steps_per_s": (steps / (refine - w1), "1/s"),
        }


def _witness_bytes(w):
    return (
        w.rho.tobytes(),
        w.a.tobytes(),
        w.b.tobytes(),
        repr(w.objective_value),
        w.sample_index,
        w.refined,
    )


# --------------------------------------------------------------------------
# cli-requests
# --------------------------------------------------------------------------


class CliRequests:
    """A closed loop with one client calling `cli.main` in process.

    Requests are `compute --chain --wyd 0.3` on problem files of dims 2, 4,
    8 and 16 (about 0.9 KB to 57 KB), interleaved with `check --relations
    <all six>` on a witness file that `search` wrote.  Every pass writes
    new files over the old ones: new problems, and a witness file from a
    search with its own seed.  Every response is compared with an
    in-process evaluation of the file it was asked about.  Why: this is the
    request/response use, the same functional layer at batch size 1, and
    the only workload where `serialize` and `cli` matter (JSON dump with
    indent, parse plus state validation, argparse rebuilt per call).
    Moves: serialize.*, cli.main_self_us, cli.build_parser_us,
    linalg.hermitian_eig_us.d8/d16, quantities.state_us.
    """

    name = "cli-requests"
    DIMS = (2, 4, 8, 16)
    FILES_PER_DIM = 4
    WITNESS_SAMPLES = 64
    WYD = "0.3"

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.files = {
            (dim, f): os.path.join(workdir, f"problem-d{dim}-{f}.json")
            for dim in self.DIMS
            for f in range(self.FILES_PER_DIM)
        }
        self.witness_path = os.path.join(workdir, "witnesses.json")
        self.written = None
        self.digest = _digest(self._write_inputs(0))
        self.reset_counts()

    def _write_inputs(self, p: int) -> dict:
        """Write pass p's problem and witness files; return their digests."""
        blobs = {}
        for (dim, f), path in self.files.items():
            text = _problem_text(dim, self.seed, p * self.FILES_PER_DIM + f)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            blobs[os.path.basename(path)] = _digest(text)
        code, _ = _call_cli(
            [
                "search", "--objective", "false_cov_variant", "--dim", "2",
                "--samples", str(self.WITNESS_SAMPLES),
                "--seed", str((self.seed * 1_000_003 + p) & 0xFFFFFFFF),
                "--top", "4", "--out", self.witness_path,
            ]
        )
        if code != 0:
            raise RuntimeError(f"search exited {code} while writing the witness file")
        with open(self.witness_path, encoding="utf-8") as fh:
            blobs["witnesses.json"] = _digest(fh.read())
        self.written = p
        return blobs

    def reset_counts(self) -> None:
        self.counts = {"bytes_out": 0, "requests": 0}

    def pass_ops(self, p: int) -> list[Op]:
        if self.written != p:
            self._write_inputs(p)
        ops = []
        check_argv = (
            "check", self.witness_path, "--relations", ",".join(RELATION_IDS),
        )
        for f in range(self.FILES_PER_DIM):
            for dim in self.DIMS:
                argv = ("compute", self.files[(dim, f)], "--chain", "--wyd", self.WYD)
                ops.append(self._op(f"compute-d{dim}", argv, p))
            ops.append(self._op("check", check_argv, p))
        return ops

    def warmup_ops(self) -> list[Op]:
        return self.pass_ops(0)

    def _op(self, kind: str, argv: tuple, p: int) -> Op:
        def check(out) -> bool:
            code, text = out
            if p == 0:
                self.counts["bytes_out"] += len(text.encode())
                self.counts["requests"] += 1
            verify = _verify_compute if argv[0] == "compute" else _verify_check
            expected_code = verify(argv, text)
            return expected_code is not None and code == expected_code

        return Op(kind, lambda: _call_cli(list(argv)), check)

    def derived(self, requests_per_s) -> dict:
        return {}


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _problem_text(dim: int, seed: int, index: int) -> str:
    rho = ensembles.random_density(ensembles.EnsembleSpec(dim=dim, seed=seed), sample_index=index)
    a = ensembles.random_observable(dim, 1.0, seed ^ ensembles.SALT_OBSERVABLE_A, index)
    b = ensembles.random_observable(dim, 1.0, seed ^ ensembles.SALT_OBSERVABLE_B, index)
    doc = {
        "label": f"d{dim}-{index}",
        "rho": _to_wire(rho.matrix),
        "A": _to_wire(a.matrix),
        "B": _to_wire(b.matrix),
    }
    return json.dumps(doc, indent=2) + "\n"


def _to_wire(m):
    return [[[v.real, v.imag] for v in row] for row in np.asarray(m).tolist()]


def _from_wire(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=np.complex128)


def _load_triple(entry):
    rho = quantities.DensityMatrix(_from_wire(entry["rho"]))
    return rho, _from_wire(entry["A"]), _from_wire(entry["B"])


def _verify_compute(argv, text):
    """Exit code the response must have, or None if it disagrees in-process."""
    with open(argv[1], encoding="utf-8") as fh:
        rho, a, b = _load_triple(json.load(fh))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    report = quantities.full_report(rho, a, b)
    chain = relations.proof_chain(rho, a, b, report=report)
    alpha = float(argv[4])
    expected = {
        ("report", "mean_A"): report.mean_a,
        ("report", "mean_B"): report.mean_b,
        ("report", "V_A"): report.v_a,
        ("report", "V_B"): report.v_b,
        ("report", "I_A"): report.i_a,
        ("report", "I_B"): report.i_b,
        ("report", "J_A"): report.j_a,
        ("report", "J_B"): report.j_b,
        ("report", "U_A"): report.u_a,
        ("report", "U_B"): report.u_b,
        ("wyd", "A"): quantities.wyd_skew_information(rho, a, alpha),
        ("wyd", "B"): quantities.wyd_skew_information(rho, b, alpha),
    }
    for name in ("t_corr_sq", "t_triangle", "t_schwarz", "t_ij", "t_ji", "t_uu"):
        expected[("chain", name)] = getattr(chain, name)
    try:
        got = {}
        for (section, key) in expected:
            block = doc["wyd"][repr(alpha)] if section == "wyd" else doc[section]
            got[(section, key)] = block[key]
        for key, z in (
            ("cov", report.cov), ("corr", report.corr), ("commutator_avg", report.commutator_avg)
        ):
            got[("report", key)] = complex(*doc["report"][key])
            expected[("report", key)] = z
        verdicts = {v["relation_id"]: v for v in doc["verdicts"]}
    except (KeyError, TypeError, ValueError):
        return None
    if any(abs(got[k] - expected[k]) > 1e-10 * max(1.0, abs(expected[k])) for k in expected):
        return None
    for rid in THEOREM_IDS:
        ref = relations.verdict_from_report(report, rid)
        v = verdicts.get(rid)
        if v is None or v["holds"] != ref.holds or not _close(v["gap"], ref.gap, 1e-10):
            return None
    return 0


def _verify_check(argv, text):
    """Compare every verdict row with an in-process evaluation of the file."""
    with open(argv[1], encoding="utf-8") as fh:
        doc = json.load(fh)
    ids = argv[3].split(",")
    lines = [line.split() for line in text.splitlines() if line.strip()]
    rows = [ln for ln in lines if ln[0] in ids]
    expected_rows = []
    all_hold = True
    for entry in doc["witnesses"]:
        report = quantities.full_report(*_load_triple(entry))
        for rid in ids:
            v = relations.verdict_from_report(report, rid)
            expected_rows.append((rid, v.gap, v.holds))
            all_hold = all_hold and v.holds
    if len(rows) != len(expected_rows):
        return None
    for row, (rid, gap, holds) in zip(rows, expected_rows):
        try:
            ok = row[0] == rid and _close(float(row[3]), gap, 1e-10) and (row[4] == "yes") == holds
        except (IndexError, ValueError):
            return None
        if not ok:
            return None
    # check exits 3 whenever a requested relation fails, which the two
    # falsifiable relations do on search witnesses
    return 0 if all_hold else 3


WORKLOADS = {w.name: w for w in (SweepMixed, SearchD2, CliRequests)}
