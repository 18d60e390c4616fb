#!/usr/bin/env python3
"""Throughput snapshot: eigensolver and full-report cost per dimension.

Times the one-matrix entry points (`hermitian_eig`, LAPACK eigh through
numpy, and `full_report`, the one-row case of the stacked report kernel)
per call.  The sampled theorem suite in tests/test_acceptance.py budgets
under a minute single-threaded; this prints where that time goes on the
current machine.  `perfbench/run.py` measures the end-to-end workloads.
"""

import time

import numpy as np

from skewrel.ensembles import EnsembleSpec, random_density, random_observable
from skewrel.linalg import hermitian_eig
from skewrel.quantities import full_report


def time_per_call(fn, reps):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"{'dim':>4} {'eig (us)':>10} {'report (us)':>12}")
    for dim in (2, 3, 4, 6, 8, 16):
        mats = []
        for _ in range(64):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mats.append((g + g.conj().T) / 2.0)
        it = iter(range(10**9))
        eig_us = time_per_call(lambda: hermitian_eig(mats[next(it) % 64]), 200) * 1e6

        spec = EnsembleSpec(dim=dim, kind="ginibre_mixed", seed=7)
        triples = [
            (
                random_density(spec, sample_index=i),
                random_observable(dim, 1.0, 11, i),
                random_observable(dim, 1.0, 13, i),
            )
            for i in range(64)
        ]
        jt = iter(range(10**9))
        rep_us = time_per_call(lambda: full_report(*triples[next(jt) % 64]), 200) * 1e6
        print(f"{dim:>4} {eig_us:>10.1f} {rep_us:>12.1f}")


if __name__ == "__main__":
    main()
