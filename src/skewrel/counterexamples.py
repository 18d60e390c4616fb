"""Built-in counterexample triples and their reference values.

Two concrete 2x2 triples (rho, A, B) are enough to falsify both
non-theorems and to show that neither the schrodinger nor the
schrodinger_wy bound dominates the other:

* ``cov_variant_triple`` breaks false_cov_variant with gap exactly -3/4
  and gives a negative schrodinger-minus-schrodinger_wy lhs difference.
* ``re_ordering_triple`` breaks false_re_ordering with gap exactly
  -0.1539 (= 0.81^2 - 0.9^2) and gives a large positive lhs difference.

The ``reproduce`` CLI command replays these against the reference values
below; the search module injects them as the first candidates of every
dim-2 search so its output is never worse than the known cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quantities, relations
from .errors import BadSpec
from .quantities import DensityMatrix, Observable


def cov_variant_triple() -> tuple[DensityMatrix, Observable, Observable]:
    """rho = diag(1, 3)/4, A = [[2,1],[1,2]], B = [[0,1],[1,0]]."""
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    a = Observable(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return rho, a, b


def re_ordering_triple() -> tuple[DensityMatrix, Observable, Observable]:
    """rho = [[5,4],[4,5]]/10, A = [[4,4],[4,1]], B = [[5,-1],[-1,2]]."""
    rho = DensityMatrix(np.array([[0.5, 0.4], [0.4, 0.5]]))
    a = Observable(np.array([[4.0, 4.0], [4.0, 1.0]]))
    b = Observable(np.array([[5.0, -1.0], [-1.0, 2.0]]))
    return rho, a, b


BUILTIN_TRIPLE_COUNT = 2


def builtin_triple(index: int) -> tuple[DensityMatrix, Observable, Observable]:
    if index == 0:
        return cov_variant_triple()
    if index == 1:
        return re_ordering_triple()
    raise IndexError(index)


@dataclass(frozen=True)
class ReferenceRow:
    """One reproducible number: how to compute it and what it must equal."""

    case: str
    description: str
    triple: str                  # "cov_variant" or "re_ordering"
    quantity: str                # "false_cov_variant_gap" | "re_ordering_gap" | "lhs_difference"
    expected: float
    abs_tol: float | None = None
    rel_tol: float | None = None

    def within_tolerance(self, computed: float) -> bool:
        if self.abs_tol is not None:
            return abs(computed - self.expected) <= self.abs_tol
        return abs(computed - self.expected) <= self.rel_tol * abs(self.expected)


# Exact rational rows carry an absolute tolerance; rows whose reference is
# printed to a few significant digits carry a relative one (1e-3 for
# 4-digit references, 1e-5 for 6-digit ones).
REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(
        case="remark2",
        description="false_cov_variant gap on the cov-variant triple",
        triple="cov_variant",
        quantity="false_cov_variant_gap",
        expected=-0.75,
        abs_tol=1e-10,
    ),
    ReferenceRow(
        case="remark3",
        description="(Re Cov)^2 - (Re Corr)^2 on the re-ordering triple",
        triple="re_ordering",
        quantity="re_ordering_gap",
        expected=-0.1539,
        rel_tol=1e-3,
    ),
    ReferenceRow(
        case="remark4",
        description="lhs difference on the cov-variant triple",
        triple="cov_variant",
        quantity="lhs_difference",
        expected=-0.232051,
        rel_tol=1e-5,
    ),
    ReferenceRow(
        case="remark4",
        description="lhs difference on the re-ordering triple",
        triple="re_ordering",
        quantity="lhs_difference",
        expected=13.7862,
        rel_tol=1e-5,
    ),
)

REPRODUCE_CASES = ("remark2", "remark3", "remark4", "all")
# Friendlier spellings for the same cases.
CASE_ALIASES = {
    "cov-variant": "remark2",
    "re-ordering": "remark3",
    "both-signs": "remark4",
}


def _triple_by_name(name: str):
    if name == "cov_variant":
        return cov_variant_triple()
    if name == "re_ordering":
        return re_ordering_triple()
    raise ValueError(f"unknown triple {name!r}")


def compute_reference_value(row: ReferenceRow) -> float:
    report = quantities.full_report(*_triple_by_name(row.triple))
    if row.quantity == "false_cov_variant_gap":
        return relations.verdict_from_report(report, "false_cov_variant").gap
    if row.quantity == "re_ordering_gap":
        return relations.verdict_from_report(report, "false_re_ordering").gap
    if row.quantity == "lhs_difference":
        return relations.lhs_difference_from_report(report)
    raise ValueError(f"unknown quantity {row.quantity!r}")


def rows_for_case(case: str) -> list[ReferenceRow]:
    case = CASE_ALIASES.get(case, case)
    if case == "all":
        return list(REFERENCE_ROWS)
    rows = [r for r in REFERENCE_ROWS if r.case == case]
    if not rows:
        raise BadSpec(
            f"unknown reproduce case {case!r}; choose from "
            f"{', '.join(REPRODUCE_CASES + tuple(CASE_ALIASES))}"
        )
    return rows


# Closed forms for the cov-variant triple, used by tests: with
# sqrt(rho) = diag(1/2, sqrt(3)/2) and A0 = B0 = [[0,1],[1,0]],
# I = 1 - sqrt(3)/2, J = 1 + sqrt(3)/2, U = 1/2, and the lhs difference
# is (1 - sqrt(3)/2)^2 - 1/4 = 3/2 - sqrt(3).
COV_VARIANT_SKEW = 1.0 - math.sqrt(3.0) / 2.0
COV_VARIANT_LHS_DIFFERENCE = 1.5 - math.sqrt(3.0)
# For the re-ordering triple (eigenvalues 0.9/0.1 with |a_12| = |b_12| = 1.5):
# I(A) = I(B) = 0.9, Cov = 0.81, Corr = 0.9, so the re-ordering gap is
# 0.81^2 - 0.9^2 = -0.1539 exactly, and the lhs difference is
# 21.06 - sqrt(52.907904).
RE_ORDERING_GAP = 0.81**2 - 0.9**2
RE_ORDERING_LHS_DIFFERENCE = 21.06 - math.sqrt(52.907904)
