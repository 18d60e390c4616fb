import numpy as np
import pytest

from skewrel import ensembles, quantities, relations
from skewrel.counterexamples import (
    COV_VARIANT_LHS_DIFFERENCE,
    RE_ORDERING_GAP,
    RE_ORDERING_LHS_DIFFERENCE,
    cov_variant_triple,
    re_ordering_triple,
)
from skewrel.ensembles import EnsembleSpec
from skewrel.quantities import DensityMatrix, Observable

import oracles

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def verdict(relation_id, rho, a, b):
    return relations.verdict_from_report(quantities.full_report(rho, a, b), relation_id)


def lhs_difference(rho, a, b):
    return relations.lhs_difference_from_report(quantities.full_report(rho, a, b))


def random_triples(count, dims, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = dims[k % len(dims)]
        yield (
            DensityMatrix(oracles.random_state(n, rng)),
            Observable(oracles.random_hermitian(n, rng, scale)),
            Observable(oracles.random_hermitian(n, rng, scale)),
        )


class TestTheoremChecks:
    def test_heisenberg_cov_variant(self):
        v = verdict("heisenberg", *cov_variant_triple())
        assert v.lhs == pytest.approx(1.0, abs=1e-12)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)
        assert v.holds

    def test_heisenberg_traceless_paulis(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        v = verdict("heisenberg", rho, SX, SY)
        assert v.lhs == pytest.approx(1.0, abs=1e-12)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)

    def test_heisenberg_tight_on_spin_up(self):
        # V = 1 each and Tr[rho 2i sigma_z] = 2i, so both sides are 1
        rho = pure_state([1.0, 0.0])
        v = verdict("heisenberg", rho, SX, SY)
        assert v.lhs == pytest.approx(1.0, abs=1e-12)
        assert v.rhs == pytest.approx(1.0, abs=1e-12)
        assert v.gap == pytest.approx(0.0, abs=1e-12)

    def test_schrodinger_cov_variant_is_tight(self):
        v = verdict("schrodinger", *cov_variant_triple())
        assert v.lhs == pytest.approx(0.0, abs=1e-12)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)

    def test_schrodinger_equal_observables(self):
        rho = pure_state([1.0, 2.0])
        h = Observable(oracles.random_hermitian(2, np.random.default_rng(2)))
        v = verdict("schrodinger", rho, h, h)
        assert v.lhs == pytest.approx(0.0, abs=1e-9)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)

    def test_luo_cov_variant(self):
        v = verdict("luo", *cov_variant_triple())
        assert v.lhs == pytest.approx(0.25, abs=1e-12)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)

    def test_luo_maximally_mixed(self):
        rho = DensityMatrix(np.eye(3) / 3.0)
        rng = np.random.default_rng(5)
        v = verdict("luo", 
            rho, oracles.random_hermitian(3, rng), oracles.random_hermitian(3, rng)
        )
        assert v.lhs == pytest.approx(0.0, abs=1e-12)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)

    def test_luo_equals_heisenberg_for_pure(self):
        rng = np.random.default_rng(7)
        rho = pure_state(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        a = Observable(oracles.random_hermitian(3, rng))
        b = Observable(oracles.random_hermitian(3, rng))
        hv = verdict("heisenberg", rho, a, b)
        lv = verdict("luo", rho, a, b)
        assert lv.lhs == pytest.approx(hv.lhs, abs=1e-9)
        assert lv.rhs == pytest.approx(hv.rhs, abs=1e-12)

    def test_schrodinger_wy_cov_variant(self):
        rho, a, b = cov_variant_triple()
        v = verdict("schrodinger_wy", rho, a, b)
        corr = quantities.full_report(rho, a, b).corr
        assert v.lhs == pytest.approx(0.25 - corr.real**2, abs=1e-12)
        assert v.rhs == pytest.approx(0.0, abs=1e-12)
        assert v.holds

    def test_schrodinger_wy_equals_schrodinger_for_pure(self):
        rng = np.random.default_rng(11)
        rho = pure_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        a = Observable(oracles.random_hermitian(4, rng))
        b = Observable(oracles.random_hermitian(4, rng))
        sv = verdict("schrodinger", rho, a, b)
        wv = verdict("schrodinger_wy", rho, a, b)
        assert wv.lhs == pytest.approx(sv.lhs, abs=1e-9)
        assert wv.rhs == pytest.approx(sv.rhs, abs=1e-12)
        assert wv.holds == sv.holds

    def test_all_theorems_hold_on_random_triples(self):
        for rho, a, b in random_triples(200, (2, 3, 4, 6, 8), seed=13):
            report = quantities.full_report(rho, a, b)
            for v in relations.verdicts_from_report(report):
                assert v.holds, (v, rho.dim)
                assert v.gap >= -relations.HOLD_TOL


class TestFalsifiableRelations:
    def test_cov_variant_gap_is_minus_three_quarters(self):
        v = verdict("false_cov_variant", *cov_variant_triple())
        assert v.gap == pytest.approx(-0.75, abs=1e-10)
        assert not v.holds

    def test_cov_variant_reduces_to_schrodinger_for_pure(self):
        rng = np.random.default_rng(17)
        rho = pure_state(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        a = Observable(oracles.random_hermitian(3, rng))
        b = Observable(oracles.random_hermitian(3, rng))
        v = verdict("false_cov_variant", rho, a, b)
        s = verdict("schrodinger", rho, a, b)
        assert v.lhs == pytest.approx(s.lhs, abs=1e-9)
        assert v.holds

    def test_cov_variant_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        rng = np.random.default_rng(19)
        v = verdict("false_cov_variant", 
            rho, oracles.random_hermitian(2, rng), oracles.random_hermitian(2, rng)
        )
        assert v.lhs <= 1e-12
        assert v.rhs == pytest.approx(0.0, abs=1e-12)

    def test_re_ordering_gap(self):
        v = verdict("false_re_ordering", *re_ordering_triple())
        assert v.gap == pytest.approx(RE_ORDERING_GAP, abs=1e-10)
        assert v.gap == pytest.approx(-0.1539, abs=1e-10)
        assert not v.holds

    def test_re_ordering_positive_on_cov_variant_triple(self):
        v = verdict("false_re_ordering", *cov_variant_triple())
        assert v.gap > 0.5  # Cov^2 = 1 vs Corr^2 = (1 - sqrt(3)/2)^2

    def test_re_ordering_pure_state(self):
        rng = np.random.default_rng(23)
        rho = pure_state(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        a = Observable(oracles.random_hermitian(2, rng))
        b = Observable(oracles.random_hermitian(2, rng))
        v = verdict("false_re_ordering", rho, a, b)
        assert v.gap == pytest.approx(0.0, abs=1e-9)


class TestLhsDifference:
    def test_cov_variant_value(self):
        d = lhs_difference(*cov_variant_triple())
        assert d == pytest.approx(COV_VARIANT_LHS_DIFFERENCE, abs=1e-12)
        assert d == pytest.approx(-0.232051, rel=1e-5)

    def test_re_ordering_value(self):
        d = lhs_difference(*re_ordering_triple())
        assert d == pytest.approx(RE_ORDERING_LHS_DIFFERENCE, abs=1e-10)
        assert d == pytest.approx(13.7862, rel=1e-5)

    def test_pure_state_value_is_zero(self):
        rng = np.random.default_rng(29)
        rho = pure_state(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        a = Observable(oracles.random_hermitian(3, rng))
        b = Observable(oracles.random_hermitian(3, rng))
        assert lhs_difference(rho, a, b) == pytest.approx(0.0, abs=1e-9)

    def test_both_signs_witnessed(self):
        assert lhs_difference(*cov_variant_triple()) < 0
        assert lhs_difference(*re_ordering_triple()) > 0


class TestBoundTightness:
    def test_subtracting_real_parts_only_shrinks(self):
        for rho, a, b in random_triples(100, (2, 3, 4, 8), seed=31):
            report = quantities.full_report(rho, a, b)
            eq1 = relations.verdict_from_report(report, "heisenberg")
            eq2 = relations.verdict_from_report(report, "schrodinger")
            eq4 = relations.verdict_from_report(report, "luo")
            eq7 = relations.verdict_from_report(report, "schrodinger_wy")
            assert eq7.lhs <= eq4.lhs + 1e-9
            assert eq2.lhs <= eq1.lhs + 1e-9


class TestProofChain:
    def test_monotone_on_random_triples(self):
        for rho, a, b in random_triples(150, (2, 3, 4, 6, 8), seed=37):
            t = relations.proof_chain(rho, a, b)
            assert t.t_corr_sq <= t.t_triangle + 1e-9
            assert t.t_triangle <= t.t_schwarz + 1e-9
            assert t.t_schwarz <= t.t_ij + 1e-9
            assert t.t_corr_sq <= t.t_ji + 1e-9
            assert t.t_corr_sq <= t.t_uu + 1e-9

    def test_cov_variant_uu(self):
        t = relations.proof_chain(*cov_variant_triple())
        assert t.t_uu == pytest.approx(0.25, abs=1e-12)

    def test_equal_observables(self):
        rng = np.random.default_rng(41)
        rho = DensityMatrix(oracles.random_state(3, rng))
        a = Observable(oracles.random_hermitian(3, rng))
        t = relations.proof_chain(rho, a, a)
        report = quantities.full_report(rho, a, a)
        i_val, j_val = report.i_a, report.j_a
        assert t.t_corr_sq == pytest.approx(i_val**2, abs=1e-9)
        assert t.t_ij == pytest.approx(i_val * j_val, abs=1e-9)
        assert t.t_corr_sq <= t.t_ij + 1e-9

    def test_corr_sum_matches_trace_form(self):
        # the eigenbasis sum inside the chain reproduces the report's Corr
        for rho, a, b in random_triples(40, (2, 4, 5), seed=43):
            t = relations.proof_chain(rho, a, b)
            corr = quantities.full_report(rho, a, b).corr
            assert t.t_corr_sq == pytest.approx(abs(corr) ** 2, abs=1e-9)

    @pytest.mark.parametrize("kind", ensembles.KINDS)
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_matches_oracle(self, kind, scale):
        for d in (2, 3, 4, 8):
            spec = EnsembleSpec(dim=d, seed=71, kind=kind, rank=d // 2 if kind == "rank_k" else None)
            for i in range(3):
                drawn = ensembles.random_density(spec, i)
                a = ensembles.random_observable(d, scale, 73, i)
                b = ensembles.random_observable(d, scale, 79, i)
                ref = oracles.proof_chain(drawn.matrix, a.matrix, b.matrix)
                # within a tied eigenvalue the eigenbasis is free, and t_triangle
                # and t_schwarz depend on that choice, so the library runs in the
                # oracle's Jacobi basis; t_corr_sq does not depend on it
                rho = DensityMatrix.from_spectral(*oracles.jacobi_eigh(drawn.matrix))
                got = relations.proof_chain(rho, a, b)
                # relative, with a floor for values that vanish (rho = I/2 commutes with A, B)
                floor = 1e-3 * scale**4
                for g, r in zip((got.t_corr_sq, got.t_triangle, got.t_schwarz), ref):
                    assert abs(g - r) <= 1e-12 * max(abs(r), floor)
                t = relations.proof_chain(drawn, a, b)
                assert abs(t.t_corr_sq - ref[0]) <= 1e-10 * max(ref[0], floor)
                # the Schwarz term and the spectral I are the shared weighted sums
                sa, sb = quantities.spectral_sums(drawn, a), quantities.spectral_sums(drawn, b)
                schwarz = sa.skew_information * sb.j_lower_bound
                assert abs(t.t_schwarz - schwarz) <= 1e-14 * schwarz
                wy = quantities.wyd_skew_information(drawn, a, 0.5)
                assert abs(sa.skew_information - wy) <= 1e-14 * wy

    def test_verdict_structure(self):
        report = quantities.full_report(*cov_variant_triple())
        v = relations.verdict_from_report(report, "heisenberg")
        assert v.gap == v.lhs - v.rhs
        # the hold tolerance is relative to the terms of the gap: V_A V_B and the rhs
        size = abs(report.v_a * report.v_b) + abs(v.rhs)
        assert v.holds == (v.gap >= -relations.HOLD_TOL * max(1.0, size))
        with pytest.raises(ValueError):
            relations.verdict_from_report(
                quantities.full_report(*cov_variant_triple()), "nonsense"
            )


class TestScaleAwareVerdicts:
    """True theorems hold at any scale of A and B; the counterexamples still fail."""

    SCALES = (1e2, 1e3, 1e4)

    @staticmethod
    def _stack(dim, kind, scale, count, equal_observables=False):
        indices = np.arange(count)
        states = ensembles.random_density_stack(EnsembleSpec(dim=dim, kind=kind, seed=5), indices)
        a = ensembles.random_observable_stack(dim, scale, 5 ^ ensembles.SALT_OBSERVABLE_A, indices)
        b = a if equal_observables else ensembles.random_observable_stack(
            dim, scale, 5 ^ ensembles.SALT_OBSERVABLE_B, indices
        )
        return states, a, b

    def _assert_theorems_hold(self, states, a, b):
        report = quantities.full_report_stack(states, a, b)
        for v in relations.verdicts_from_report(report):
            failed = np.flatnonzero(~v.holds)
            assert failed.size == 0, (v.relation_id, failed.size, v.gap[failed].min())
        # the one-triple path holds too, with Python bools
        for row in range(0, len(a), 50):
            rho = states.state(row)
            for v in relations.verdicts_from_report(quantities.full_report(rho, a[row], b[row])):
                assert v.holds is True, (v.relation_id, row, v.gap)

    @pytest.mark.parametrize("scale", SCALES)
    def test_pure_qubits(self, scale):
        # pure qubit states make both Schrodinger-type bounds equalities
        self._assert_theorems_hold(*self._stack(2, "pure", scale, 2000))

    @pytest.mark.parametrize("scale", SCALES)
    def test_dim_8(self, scale):
        for kind in ("ginibre_mixed", "pure"):
            self._assert_theorems_hold(*self._stack(8, kind, scale, 300))
        # B = A on pure states makes schrodinger_wy an equality
        self._assert_theorems_hold(*self._stack(8, "pure", scale, 300, equal_observables=True))

    def test_counterexamples_fail_when_scaled(self):
        for triple, relation_id in (
            (cov_variant_triple(), "false_cov_variant"),
            (re_ordering_triple(), "false_re_ordering"),
        ):
            rho, a, b = triple
            v = verdict(relation_id, rho, 1e3 * a.matrix, 1e3 * b.matrix)
            assert not v.holds, v
            assert v.gap < 0
