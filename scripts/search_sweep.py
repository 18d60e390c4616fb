#!/usr/bin/env python3
"""Sweep the witness search across objectives, dimensions, and seeds.

Prints one row per (objective, dim, seed) with the best objective value
found, the sample index that achieved it, and the refined value when
--refine is given.  Useful for mapping how far random search pushes past
the built-in counterexamples as dimension grows.  Sample i of seed s draws
from the stream s ^ i, so the default seeds differ in their high bits and
give independent sample sets.
"""

import argparse
import time

from skewrel.search import OBJECTIVES, SearchTask, run_search


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20000)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1 << 32, 2 << 32])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--refine", action="store_true")
    parser.add_argument("--refine-steps", type=int, default=300)
    args = parser.parse_args()

    print(
        f"{'objective':<32} {'dim':>3} {'seed':>11} {'best':>14} {'at-sample':>9} "
        f"{'refined':>14} {'sec':>6}"
    )
    for objective in OBJECTIVES:
        for dim in args.dims:
            for seed in args.seeds:
                task = SearchTask(
                    objective=objective,
                    dim=dim,
                    samples=args.samples,
                    seed=seed,
                    observable_scale=args.scale,
                    refine=args.refine,
                    refine_steps=args.refine_steps,
                    top_k=3,
                )
                started = time.perf_counter()
                witnesses = run_search(task)
                elapsed = time.perf_counter() - started
                best = witnesses[0]
                refined = f"{best.objective_value:14.6f}" if best.refined else f"{'-':>14}"
                print(
                    f"{objective:<32} {dim:>3} {seed:>11} {best.objective_value:14.6f} "
                    f"{best.sample_index:>9} {refined} {elapsed:6.1f}"
                )
                if objective == "sign_witnesses_lhs_difference":
                    low, high = witnesses[0], witnesses[-1]
                    signs = (
                        f"    signs: {low.objective_value:.6f} / {high.objective_value:.6f}"
                    )
                    print(signs)


if __name__ == "__main__":
    main()
