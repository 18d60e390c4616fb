"""Uncertainty-relation verdicts and the step-by-step bound chain.

Four relations are theorems and must always hold (up to roundoff):

    heisenberg       V(A) V(B)                   >= (1/4) |Tr rho [A,B]|^2
    schrodinger      V(A) V(B) - (Re Cov)^2      >= (1/4) |Tr rho [A,B]|^2
    luo              U(A) U(B)                   >= (1/4) |Tr rho [A,B]|^2
    schrodinger_wy   U(A) U(B) - (Re Corr)^2     >= (1/4) |Tr rho [A,B]|^2

Two more are evaluated but never asserted, because counterexamples exist
(see the counterexamples module):

    false_cov_variant   U(A) U(B) - (Re Cov)^2   >= (1/4) |Tr rho [A,B]|^2
    false_re_ordering   (Re Cov)^2               >= (Re Corr)^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quantities
from .quantities import DensityMatrix, UncertaintyReport

# An inequality "holds" if its gap is no worse than HOLD_TOL times the
# larger of 1 and the summed magnitudes of the terms that enter the gap.
# The theorems are exact, so only floating point can produce small
# negatives, and the roundoff of a difference grows with its terms: they
# scale as |A|^2 |B|^2, so a fixed absolute tolerance fails true theorems
# once A and B are large.
HOLD_TOL = 1e-9

THEOREM_IDS = ("heisenberg", "schrodinger", "luo", "schrodinger_wy")
FALSIFIABLE_IDS = ("false_cov_variant", "false_re_ordering")
RELATION_IDS = THEOREM_IDS + FALSIFIABLE_IDS


@dataclass(frozen=True)
class InequalityVerdict:
    relation_id: str
    lhs: float
    rhs: float
    gap: float
    holds: bool


@dataclass(frozen=True)
class ProofChainTrace:
    """Successive bounds from |Corr|^2 up to U(A) U(B), all in one record.

    Each step of the derivation only ever loosens the bound, so
    t_corr_sq <= t_triangle <= t_schwarz <= t_ij, and independently
    t_corr_sq <= t_ji and t_corr_sq <= t_uu.
    """

    t_corr_sq: float
    t_triangle: float
    t_schwarz: float
    t_ij: float
    t_ji: float
    t_uu: float


def _verdict(relation_id: str, lhs, rhs, *terms) -> InequalityVerdict:
    """Verdict of lhs >= rhs, where ``terms`` are the terms that enter the gap."""
    gap = lhs - rhs
    # gap >= -HOLD_TOL * max(1, size), written so that it is a bool for
    # scalar reports and elementwise for stacked ones
    size = sum(map(abs, terms))
    holds = (gap >= -HOLD_TOL) | (gap >= -HOLD_TOL * size)
    return InequalityVerdict(relation_id, lhs, rhs, gap, holds)


def _square(x):
    """x ** 2, and inf where a Python float's ** raises OverflowError (numpy gives inf)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def verdict_from_report(report: UncertaintyReport, relation_id: str) -> InequalityVerdict:
    """One relation's verdict from an already-computed report.

    Works on a one-triple report and on a stacked one, whose verdict
    fields are then (N,) arrays.
    """
    rhs = 0.25 * _square(abs(report.commutator_avg))
    vv = report.v_a * report.v_b
    uu = report.u_a * report.u_b
    cov_sq = _square(report.cov.real)
    corr_sq = _square(report.corr.real)
    if relation_id == "heisenberg":
        return _verdict(relation_id, vv, rhs, vv, rhs)
    if relation_id == "schrodinger":
        return _verdict(relation_id, vv - cov_sq, rhs, vv, cov_sq, rhs)
    if relation_id == "luo":
        return _verdict(relation_id, uu, rhs, uu, rhs)
    if relation_id == "schrodinger_wy":
        return _verdict(relation_id, uu - corr_sq, rhs, uu, corr_sq, rhs)
    if relation_id == "false_cov_variant":
        return _verdict(relation_id, uu - cov_sq, rhs, uu, cov_sq, rhs)
    if relation_id == "false_re_ordering":
        return _verdict(relation_id, cov_sq, corr_sq, cov_sq, corr_sq)
    raise ValueError(f"unknown relation id {relation_id!r}")


def verdicts_from_report(report: UncertaintyReport, ids=THEOREM_IDS) -> list[InequalityVerdict]:
    return [verdict_from_report(report, rid) for rid in ids]


def lhs_difference_from_report(report: UncertaintyReport) -> float:
    """schrodinger lhs minus schrodinger_wy lhs; takes both signs."""
    lhs_s = report.v_a * report.v_b - _square(report.cov.real)
    lhs_wy = report.u_a * report.u_b - _square(report.corr.real)
    return lhs_s - lhs_wy


def proof_chain(
    rho: DensityMatrix, a, b, report: UncertaintyReport | None = None
) -> ProofChainTrace:
    """Evaluate every intermediate bound between |Corr|^2 and U(A) U(B).

    All sums run over the eigenbasis of rho with a_ij = <phi_i|A0|phi_j>
    and b_ji = <phi_j|B0|phi_i>:

      t_corr_sq  |sum_{i != j} (l_i - sqrt(l_i l_j)) a_ij b_ji|^2
      t_triangle square of the entrywise modulus bound on that sum
      t_schwarz  (sum (sqrt(l_i)-sqrt(l_j))^2 |a_ij|^2)
                 * (sum (sqrt(l_i)+sqrt(l_j))^2 |b_ij|^2), sums over i<j
      t_ij       I(A) J(B)
      t_ji       I(B) J(A)
      t_uu       U(A) U(B)

    A report already computed for the same triple may be passed to avoid
    recomputing the scalar functionals.
    """
    if report is None:
        report = quantities.full_report(rho, a, b)
    aelem = quantities.matrix_elements(rho, a)
    belem = quantities.matrix_elements(rho, b)
    lam = rho.eigenvalues
    roots, minus_sq, plus_sq, offdiag, upper = quantities._eigenbasis_weights(rho)

    geo = np.multiply.outer(roots, roots)       # sqrt(l_i l_j)
    coef = lam[:, None] - geo                   # l_i - sqrt(l_i l_j)
    cross = aelem * belem.T                     # a_ij b_ji
    corr_sum = complex((coef[offdiag] * cross[offdiag]).sum())
    t_corr_sq = _square(abs(corr_sum))

    moduli = np.abs(coef) * np.abs(cross)       # |l_i - sqrt(l_i l_j)| |a_ij| |b_ji|
    t_triangle = _square(float((moduli[upper] + moduli.T[upper]).sum()))

    abs_a_sq = np.abs(aelem) ** 2
    abs_b_sq = np.abs(belem) ** 2
    t_schwarz = float((minus_sq * abs_a_sq)[upper].sum()) * float(
        (plus_sq * abs_b_sq)[upper].sum()
    )

    return ProofChainTrace(
        t_corr_sq=t_corr_sq,
        t_triangle=t_triangle,
        t_schwarz=t_schwarz,
        t_ij=report.i_a * report.j_b,
        t_ji=report.i_b * report.j_a,
        t_uu=report.u_a * report.u_b,
    )
