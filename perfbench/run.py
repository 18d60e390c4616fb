#!/usr/bin/env python3
"""skewrel benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from `src/`.
With `--trace 0` the run measures the end-to-end metrics untraced.  With
`--trace 1` it measures the same workload untraced for half the time,
then traced for the other half, and reports the per-layer metrics plus
the tracing overhead (traced minus untraced value of each end-to-end
metric).  Every output is checked; the last line of stdout is the JSON
result, earlier lines are the same numbers for a human, with the
environment.  A copy of everything goes to
`.perfbench_results/<workload>-seed<seed>-trace<t>.json`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("sweep-mixed", "search-d2", "cli-requests")
SETUP_REPS = 5
STRETCHES = 30
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _environment(seed, np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


class Phase:
    """Timings and outcomes of one measured phase."""

    def __init__(self):
        self.durations = []   # seconds per successful operation
        self.attempted = 0
        self.failed = 0
        self.failures = set()

    def end_to_end(self) -> dict:
        """Rate and median latency sustained in 9 of 10 stretches; p99 overall.

        The run is cut into STRETCHES stretches of equal operation count,
        each with the same mix of work.  On a shared machine the speed of
        the whole box drifts by tens of percent over seconds to minutes:
        some runs have fast stretches and some have none, while every run
        has slow ones.  A rate or median that 9 of 10 stretches reach is
        therefore far steadier from run to run than one over the whole run.
        """
        d = self.durations
        if not d:  # every operation failed; the result says so in `failed`
            return dict.fromkeys(("requests_per_s", "request_p50_ms", "request_p99_ms"), 0.0)
        size = max(1, len(d) // STRETCHES)
        stretches = [d[i:i + size] for i in range(0, len(d) - size + 1, size)]
        rates = sorted(len(s) / sum(s) for s in stretches)
        medians = sorted(_percentile(sorted(s), 0.50) for s in stretches)
        return {
            "requests_per_s": _percentile(rates, 0.10),
            "request_p50_ms": _percentile(medians, 0.90) * 1e3,
            "request_p99_ms": _percentile(sorted(d), 0.99) * 1e3,
        }


def _run_phase(workload, seconds, tracer=None) -> Phase:
    """Run whole passes from pass 0 until `seconds` of wall time have gone.

    Pass 0 always completes, so the counts taken over it are exact.
    """
    phase = Phase()
    workload.reset_counts()
    start = time.perf_counter()
    p = 0
    while True:
        for op in workload.pass_ops(p):
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(op.run, p == 0) if tracer else op.run()
            except Exception as exc:  # any exception fails the operation
                phase.failed += 1
                phase.failures.add(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            try:
                ok = op.check(out)
            except Exception as exc:
                ok = False
                phase.failures.add(f"{op.kind} check: {type(exc).__name__}: {exc}")
            if not ok:
                phase.failed += 1
                phase.failures.add(f"{op.kind}: wrong output")
                continue
            phase.durations.append(elapsed)
            if p > 0 and time.perf_counter() - start >= seconds:
                return phase
        p += 1
        if time.perf_counter() - start >= seconds:
            return phase


IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, skewrel.cli; print(time.perf_counter() - t)"
)


def _import_seconds(src) -> float:
    """Median time to import numpy and skewrel in SETUP_REPS fresh interpreters.

    One import in this process could be timed only once; the median of
    several is steadier.  Interpreter start-up is not counted.
    """
    runs = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        runs.append(float(out.stdout))
    return statistics.median(runs)


def _setup_once(workload, seed, workdir) -> float:
    """Input generation and warm-up, timed; returns seconds.

    A warm-up failure is not counted here: the measured phase runs the
    same code on its own inputs and counts its failures.
    """
    t0 = time.perf_counter()
    workload.setup(seed, tempfile.mkdtemp(dir=workdir))
    for op in workload.warmup_ops():
        try:
            op.check(op.run())
        except Exception:
            pass
    return time.perf_counter() - t0


def _layer_metrics(tracer, workload, overhead, ops_per_pass):
    from spans import LAYERS, ROOT

    totals = tracer.totals

    def agg(name, key=...):
        calls = incl = self_t = units = 0
        for (n, k), (c, i, s, u) in totals.items():
            if n == name and (key is ... or k == key):
                calls, incl, self_t, units = calls + c, incl + i, self_t + s, units + u
        return calls, incl, self_t, units

    def us_per_call(name, key=..., use_self=False):
        calls, incl, self_t, _ = agg(name, key)
        return (self_t if use_self else incl) / calls * 1e6 if calls else 0.0

    def us_per_unit(name, key=..., use_self=False):
        _, incl, self_t, units = agg(name, key)
        return (self_t if use_self else incl) / units * 1e6 if units else 0.0

    def per_counted_op(name):
        return tracer.counts[name] / tracer.counted_ops if tracer.counted_ops else 0.0

    m = {}
    for d in (2, 3, 4, 8):
        m[f"ensembles.random_density_us.d{d}"] = (us_per_call("ensembles.random_density", d), "us")
    m["ensembles.random_observable_us"] = (us_per_call("ensembles.random_observable"), "us")
    for d in (2, 3, 4, 8, 16):
        m[f"linalg.hermitian_eig_us.d{d}"] = (us_per_call("linalg.hermitian_eig", d), "us")
    m["linalg.hermitian_eig_calls_per_op"] = (per_counted_op("linalg.hermitian_eig"), "count")
    m["quantities.state_us"] = (us_per_call("quantities.state"), "us")
    for d in (2, 3, 4, 8, 16):
        m[f"quantities.full_report_us.d{d}"] = (us_per_call("quantities.full_report", d), "us")
    m["quantities.full_report_calls_per_op"] = (per_counted_op("quantities.full_report"), "count")
    m["quantities.spectral_sums_us"] = (us_per_call("quantities.spectral_sums"), "us")
    m["quantities.wyd_skew_information_us"] = (us_per_call("quantities.wyd_skew_information"), "us")
    m["relations.verdict_from_report_us"] = (us_per_call("relations.verdict_from_report"), "us")
    m["relations.proof_chain_us"] = (us_per_call("relations.proof_chain"), "us")
    counts = workload.counts
    m["relations.theorem_false_fail"] = (counts.get("theorem_false_fail", 0), "count")
    m["relations.theorem_false_fail_base"] = (counts.get("theorem_false_fail_base", 0), "count")
    m["search.evaluate_all_self_us"] = (us_per_unit("search.evaluate_all", use_self=True), "us")
    m["search.select_us"] = (us_per_call("search.run_search", use_self=True), "us")
    w1 = us_per_unit("search.evaluate_all", 1)
    w2 = us_per_unit("search.evaluate_all", 2)
    m["search.thread_speedup"] = (w1 / w2 if w2 else 0.0, "ratio")
    m["search.refine_witness_us_per_step"] = (us_per_unit("search.refine_witness"), "us")
    steps = tracer.counts["refine_steps"]
    m["search.refine_eig_calls_per_step"] = (
        tracer.counts["refine_eig"] / steps if steps else 0.0, "count")
    m["serialize.load_document_us"] = (us_per_call("serialize.load_document"), "us")
    m["serialize.wire_to_matrix_us"] = (us_per_call("serialize.wire_to_matrix"), "us")
    m["serialize.problem_from_wire_self_us"] = (
        us_per_call("serialize.problem_from_wire", use_self=True), "us")
    m["serialize.dump_document_us"] = (us_per_call("serialize.dump_document"), "us")
    requests = counts.get("requests", 0)
    m["serialize.bytes_out_per_request"] = (
        counts["bytes_out"] / requests if requests else 0.0, "count")
    m["cli.main_self_us"] = (us_per_call("cli.main", use_self=True), "us")
    m["cli.build_parser_us"] = (us_per_call("cli.build_parser"), "us")

    ops = agg(ROOT)[0]
    wall = agg(ROOT)[1]
    layer_self = 0.0
    for layer in LAYERS:
        s = sum(v[2] for (n, _), v in totals.items() if n.split(".", 1)[0] == layer)
        layer_self += s
        m[f"{layer}.self_us_per_op"] = (s / ops * 1e6 if ops else 0.0, "us")
    bench_self = agg(ROOT)[2]
    m["bench.self_us_per_op"] = (bench_self / ops * 1e6 if ops else 0.0, "us")
    m["trace.wall_us_per_op"] = (wall / ops * 1e6 if ops else 0.0, "us")
    m["trace.accounted_share"] = ((layer_self + bench_self) / wall if wall else 0.0, "ratio")
    for name, (value, unit) in overhead.items():
        m[f"trace.overhead.{name}"] = (value, unit)
    m["inputs.ops_per_pass"] = (ops_per_pass, "count")
    return m


E2E_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "skewrel", "__init__.py")):
        print(f"perfbench: no program to measure: {src}/skewrel is missing", file=sys.stderr)
        return 2
    import_s = _import_seconds(src)
    sys.path.insert(0, src)
    import numpy as np
    import skewrel.quantities
    import workloads
    from spans import LAYERS, Tracer, instrument

    workload = workloads.WORKLOADS[args.workload]()
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        setup_median = statistics.median(
            _setup_once(workload, args.seed, workdir) for _ in range(SETUP_REPS))
        setup_s = import_s + setup_median
        ops_per_pass = len(workload.pass_ops(0))
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = _run_phase(workload, seconds)
        rss_untraced = _peak_rss_mb()
        e2e = untraced.end_to_end()
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = rss_untraced
        derived = workload.derived(e2e["requests_per_s"])
        phases = [untraced]
        layer = None
        if args.trace:
            modules = [importlib.import_module(f"skewrel.{name}") for name in LAYERS]
            tracer = Tracer()
            with instrument(tracer, modules, skewrel.quantities.DensityMatrix):
                traced_setup = _setup_once(workload, args.seed, workdir)
                traced = _run_phase(workload, seconds, tracer)
            phases.append(traced)
            t_e2e = traced.end_to_end()
            overhead = {name: (t_e2e[name] - e2e[name], E2E_UNITS[name]) for name in t_e2e}
            overhead["setup_s"] = (traced_setup - setup_median, "s")
            overhead["peak_rss_mb"] = (_peak_rss_mb() - rss_untraced, "MB")
            layer = _layer_metrics(tracer, workload, overhead, ops_per_pass)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(work_root)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    failures = sorted(set().union(*(ph.failures for ph in phases)))
    e2e_metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
    metrics = layer if args.trace else e2e_metrics
    env = _environment(args.seed, np)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs digest {workload.digest} ops_per_pass {ops_per_pass}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"  failure: {failure}")
    print(f"setup_s parts: import {import_s:.6g} s, median set-up {setup_median:.6g} s")
    print(f"latency samples {len(untraced.durations)} (untraced)")
    for name, (value, unit) in {**e2e_metrics, **derived}.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    if layer:
        for name, (value, unit) in layer.items():
            print(f"{name:<40} {value:>16.6g} {unit}")

    os.makedirs(os.path.join(ROOT, ".perfbench_results"), exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs_digest": workload.digest,
        "ops_per_pass": ops_per_pass,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "latency_samples": len(untraced.durations),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e_metrics.items()},
        "derived": {k: {"value": v, "unit": u} for k, (v, u) in derived.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in (layer or {}).items()},
        "counts": workload.counts,
    }
    path = os.path.join(ROOT, ".perfbench_results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
