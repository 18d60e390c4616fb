"""Command-line front end.

Subcommands:
  compute    full report plus the four theorem verdicts for one problem file
  check      verdict table for selected relations; exit 3 if any requested
             relation fails
  reproduce  replay the built-in counterexample cases against their
             reference values
  search     randomized witness search; writes a witness file that check
             can consume directly

Exit codes: 0 ok, 1 I/O or JSON parse error, 2 validation or flag error,
3 a requested relation or reference row failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import counterexamples, ensembles, quantities, relations, search, serialize
from .errors import MalformedDocument, ValidationError
from .relations import THEOREM_IDS, RELATION_IDS

_OBJECTIVE_ALIASES = {
    "false_cov_variant": "min_gap_false_cov_variant",
    "min_gap_false_cov_variant": "min_gap_false_cov_variant",
    "re_ordering": "min_gap_re_ordering",
    "false_re_ordering": "min_gap_re_ordering",
    "min_gap_re_ordering": "min_gap_re_ordering",
    "sign_witnesses": "sign_witnesses_lhs_difference",
    "sign_witnesses_lhs_difference": "sign_witnesses_lhs_difference",
}


def _report_to_wire(report: quantities.UncertaintyReport) -> dict:
    return {
        "mean_A": report.mean_a,
        "mean_B": report.mean_b,
        "V_A": report.v_a,
        "V_B": report.v_b,
        "I_A": report.i_a,
        "I_B": report.i_b,
        "J_A": report.j_a,
        "J_B": report.j_b,
        "U_A": report.u_a,
        "U_B": report.u_b,
        "cov": serialize.complex_to_pair(report.cov),
        "corr": serialize.complex_to_pair(report.corr),
        "commutator_avg": serialize.complex_to_pair(report.commutator_avg),
    }


def _verdict_to_wire(v: relations.InequalityVerdict) -> dict:
    return {
        "relation_id": v.relation_id,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "gap": v.gap,
        "holds": v.holds,
    }


def _cmd_compute(args) -> int:
    doc = serialize.load_document(args.input)
    rho, a, b, label = serialize.problem_from_wire(doc)
    report = quantities.full_report(rho, a, b)
    out = serialize.problem_to_wire(rho.matrix, a.matrix, b.matrix, label)
    out["report"] = _report_to_wire(report)
    out["verdicts"] = [
        _verdict_to_wire(v) for v in relations.verdicts_from_report(report, THEOREM_IDS)
    ]
    if args.chain:
        trace = relations.proof_chain(rho, a, b, report=report)
        out["chain"] = {
            "t_corr_sq": trace.t_corr_sq,
            "t_triangle": trace.t_triangle,
            "t_schwarz": trace.t_schwarz,
            "t_ij": trace.t_ij,
            "t_ji": trace.t_ji,
            "t_uu": trace.t_uu,
        }
    if args.wyd:
        out["wyd"] = {
            repr(alpha): {
                "A": quantities.wyd_skew_information(rho, a, alpha),
                "B": quantities.wyd_skew_information(rho, b, alpha),
            }
            for alpha in args.wyd
        }
    serialize.dump_document(out, sys.stdout)
    return 0


def _verdict_table(verdicts, heading=None) -> str:
    lines = []
    if heading:
        lines.append(heading)
    lines.append(f"{'relation':<20} {'lhs':<25} {'rhs':<25} {'gap':<25} holds")
    for v in verdicts:
        lines.append(
            f"{v.relation_id:<20} {v.lhs!r:<25} {v.rhs!r:<25} {v.gap!r:<25} "
            f"{'yes' if v.holds else 'NO'}"
        )
    return "\n".join(lines)


def _check_one(rho, a, b, ids) -> tuple[list, bool]:
    report = quantities.full_report(rho, a, b)
    verdicts = relations.verdicts_from_report(report, ids)
    return verdicts, all(v.holds for v in verdicts)


def _cmd_check(args) -> int:
    ids = THEOREM_IDS
    if args.relations:
        ids = []
        for token in args.relations.split(","):
            token = token.strip()
            if token not in RELATION_IDS:
                raise ValidationError(
                    f"unknown relation {token!r}; choose from {', '.join(RELATION_IDS)}"
                )
            ids.append(token)
    doc = serialize.load_document(args.input)
    all_hold = True
    if isinstance(doc, dict) and "witnesses" in doc:
        if not isinstance(doc["witnesses"], list):
            raise MalformedDocument("witnesses must be an array of problem documents")
        for idx, entry in enumerate(doc["witnesses"]):
            rho, a, b, label = serialize.problem_from_wire(entry)
            verdicts, ok = _check_one(rho, a, b, ids)
            all_hold = all_hold and ok
            name = label or f"witness-{idx}"
            print(_verdict_table(verdicts, heading=f"[{name}]"))
    else:
        rho, a, b, _ = serialize.problem_from_wire(doc)
        verdicts, all_hold = _check_one(rho, a, b, ids)
        print(_verdict_table(verdicts))
    return 0 if all_hold else 3


def _cmd_reproduce(args) -> int:
    rows = counterexamples.rows_for_case(args.which)
    all_pass = True
    print(
        f"{'case':<9} {'description':<50} {'computed':<25} {'expected':<12} "
        f"{'tolerance':<12} status"
    )
    for row in rows:
        computed = counterexamples.compute_reference_value(row)
        ok = row.within_tolerance(computed)
        all_pass = all_pass and ok
        tol = f"{row.abs_tol:g} abs" if row.abs_tol is not None else f"{row.rel_tol:g} rel"
        print(
            f"{row.case:<9} {row.description:<50} {computed!r:<25} "
            f"{row.expected!r:<12} {tol:<12} {'pass' if ok else 'FAIL'}"
        )
    return 0 if all_pass else 3


def _cmd_search(args) -> int:
    objective = _OBJECTIVE_ALIASES.get(args.objective)
    if objective is None:
        raise ValidationError(
            f"unknown objective {args.objective!r}; choose from "
            f"{', '.join(sorted(set(_OBJECTIVE_ALIASES)))}"
        )
    task = search.SearchTask(
        objective=objective,
        dim=args.dim,
        samples=args.samples,
        seed=args.seed,
        state_kind=args.state_kind,
        rank=args.rank,
        purity_blend=args.purity_blend,
        observable_scale=args.scale,
        refine=args.refine,
        refine_steps=args.refine_steps,
        top_k=args.top,
    )
    started = time.perf_counter()
    witnesses = search.run_search(task, workers=args.threads)
    elapsed = time.perf_counter() - started

    doc = {
        "task": {
            "objective": task.objective,
            "dim": task.dim,
            "samples": task.samples,
            "seed": task.seed,
            "state_kind": task.state_kind,
            "purity_blend": task.purity_blend,
            "observable_scale": task.observable_scale,
            "refine": task.refine,
            "refine_steps": task.refine_steps,
            "top_k": task.top_k,
        },
        "witnesses": [],
    }
    if task.rank is not None:
        doc["task"]["rank"] = task.rank
    for idx, w in enumerate(witnesses):
        entry = serialize.problem_to_wire(w.rho, w.a, w.b, label=f"witness-{idx}")
        entry["objective_value"] = w.objective_value
        entry["sample_index"] = w.sample_index
        entry["refined"] = w.refined
        doc["witnesses"].append(entry)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            serialize.dump_document(doc, fh)
    else:
        serialize.dump_document(doc, sys.stdout)

    best = min(w.objective_value for w in witnesses)
    rate = task.samples / elapsed if elapsed > 0 else float("inf")
    print(
        f"search: best value {best!r} over {task.samples} samples "
        f"({rate:.0f} samples/s)",
        file=sys.stderr,
    )
    if objective == "sign_witnesses_lhs_difference":
        values = [w.objective_value for w in witnesses]
        if min(values) >= 0:
            print("search: no negative-sign witness found", file=sys.stderr)
        if max(values) <= 0:
            print("search: no positive-sign witness found", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewrel",
        description="Uncertainty functionals and relation checks for density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="full report and theorem verdicts for a problem file")
    p.add_argument("input", help="problem JSON file with rho, A, B")
    p.add_argument("--chain", action="store_true", help="include the bound-chain trace")
    p.add_argument(
        "--wyd",
        action="append",
        type=float,
        metavar="ALPHA",
        help="also evaluate order-ALPHA skew information (repeatable)",
    )
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("check", help="evaluate selected relations for a problem or witness file")
    p.add_argument("input", help="problem or witness JSON file")
    p.add_argument(
        "--relations",
        help=f"comma-separated subset of: {', '.join(RELATION_IDS)} (default: the four theorems)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reproduce", help="replay built-in counterexamples against reference values")
    p.add_argument(
        "which",
        nargs="?",
        default="all",
        help="remark2|remark3|remark4|all (aliases: cov-variant, re-ordering, both-signs)",
    )
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("search", help="randomized search for extremal witnesses")
    p.add_argument("--objective", required=True, help="false_cov_variant | re_ordering | sign_witnesses")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state-kind", default="ginibre_mixed", choices=list(ensembles.KINDS))
    p.add_argument("--rank", type=int, help="state rank, required by --state-kind rank_k")
    p.add_argument("--purity-blend", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--refine", action="store_true", help="locally refine the returned witnesses")
    p.add_argument("--refine-steps", type=int, default=200)
    p.add_argument("--top", type=int, default=10, help="how many witnesses to keep")
    p.add_argument("--out", help="write the witness file here instead of stdout")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; changes neither the output nor the speed",
    )
    p.set_defaults(func=_cmd_search)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call in the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the validation code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
