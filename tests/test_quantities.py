import math

import numpy as np
import pytest

from skewrel import ensembles
from skewrel import quantities as q
from skewrel.counterexamples import (
    COV_VARIANT_SKEW,
    cov_variant_triple,
    re_ordering_triple,
)
from skewrel.errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    InconsistentResult,
    NegativeSpectrum,
    NotHermitian,
    TraceNotOne,
)
from skewrel.quantities import DensityMatrix, Observable, StateStack

import oracles

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def cov_triple():
    return cov_variant_triple()


@pytest.fixture(scope="module")
def re_triple():
    return re_ordering_triple()


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def report(rho, h):
    """The full report of (rho, H, H): its A fields are the functionals of H."""
    return q.full_report(rho, h, h)


def centered(rho, h) -> np.ndarray:
    """H0 = H - <H> I, back from its eigenbasis matrix elements."""
    v = rho.eigenvectors
    return v @ q.matrix_elements(rho, h) @ v.conj().T


def random_triples(count, dims, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = dims[k % len(dims)]
        rho = DensityMatrix(oracles.random_state(n, rng))
        a = Observable(oracles.random_hermitian(n, rng, scale))
        b = Observable(oracles.random_hermitian(n, rng, scale))
        yield rho, a, b


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NegativeSpectrum):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(TraceNotOne):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_observable_must_be_hermitian(self):
        with pytest.raises(NotHermitian):
            Observable(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_dim_mismatch(self, cov_triple):
        rho, _, _ = cov_triple
        with pytest.raises(DimensionMismatch):
            q.full_report(rho, np.eye(3), np.eye(3))

    def test_from_spectral_matches_direct_construction(self):
        rng = np.random.default_rng(21)
        m = oracles.random_state(4, rng)
        direct = DensityMatrix(m)
        via_spec = DensityMatrix.from_spectral(
            direct.eigenvalues, direct.eigenvectors
        )
        assert np.linalg.norm(via_spec.matrix - direct.matrix) <= 1e-12
        assert np.linalg.norm(via_spec.sqrt - direct.sqrt) <= 1e-12

    def test_from_spectral_rejects_skew_basis(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix.from_spectral([0.5, 0.5], np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_sqrt_cache_squares_back(self):
        rng = np.random.default_rng(2)
        rho = DensityMatrix(oracles.random_state(5, rng))
        assert np.linalg.norm(rho.sqrt @ rho.sqrt - rho.matrix) <= 1e-9


class TestStateStackValidation:
    """Every public way to build a StateStack checks every row."""

    GOOD = np.diag([0.75, 0.25])

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[0.5, 0.3], [0.0, 0.5]]), NotHermitian),
            (np.diag([1.5, -0.5]), NegativeSpectrum),
            (np.diag([0.5, 0.6]), TraceNotOne),
        ],
    )
    def test_constructor_rejects_any_bad_row(self, bad, error):
        with pytest.raises(error):
            StateStack(np.stack([self.GOOD, bad]))

    def test_from_spectral_rejects_bad_rows(self):
        basis = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(NegativeSpectrum):
            StateStack.from_spectral([[0.5, 0.5], [1.5, -0.5]], basis)
        with pytest.raises(TraceNotOne):
            StateStack.from_spectral([[0.5, 0.5], [0.5, 0.6]], basis)
        with pytest.raises(DimensionMismatch):
            skew = np.array([[1.0, 1.0], [0.0, 1.0]])
            StateStack.from_spectral([[0.5, 0.5], [0.5, 0.5]], np.stack([np.eye(2), skew]))

    def test_no_unchecked_public_constructor(self):
        w = np.array([[1.5, -0.5]])
        v = np.eye(2)[None]
        with pytest.raises(TypeError):
            StateStack(np.diag([1.5, -0.5])[None], w, v, v)

    def test_rows_match_density_matrix(self):
        rng = np.random.default_rng(5)
        ms = np.stack([oracles.random_state(3, rng) for _ in range(4)])
        stack = StateStack(ms)
        for i, m in enumerate(ms):
            rho = DensityMatrix(m)
            np.testing.assert_array_equal(stack.state(i).sqrt, rho.sqrt)
            np.testing.assert_array_equal(stack.eigenvalues[i], rho.eigenvalues)

    FIELDS = ("matrix", "eigenvalues", "eigenvectors", "sqrt")

    def assert_is_row_0(self, rho, stack):
        for field in self.FIELDS:
            got, row = getattr(rho, field), getattr(stack, field)[0]
            assert got.dtype == row.dtype and got.shape == row.shape, field
            assert got.tobytes() == row.tobytes(), field

    def test_density_matrix_is_row_0_of_its_stack(self):
        rng = np.random.default_rng(29)
        for d in (2, 3, 4, 8, 16):
            m = oracles.random_state(d, rng)
            self.assert_is_row_0(DensityMatrix(m), StateStack(m[None]))
            for kind in ensembles.KINDS:
                spec = ensembles.EnsembleSpec(dim=d, seed=d, kind=kind, rank=1)
                rho = ensembles.random_density(spec, 3)
                self.assert_is_row_0(DensityMatrix(rho.matrix), StateStack(rho.matrix[None]))

    def test_from_spectral_is_row_0_of_its_stack(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 8):
            direct = DensityMatrix(oracles.random_state(d, rng))
            w, v = direct.eigenvalues[::-1], direct.eigenvectors[:, ::-1]
            self.assert_is_row_0(
                DensityMatrix.from_spectral(w, v), StateStack.from_spectral(w[None], v[None])
            )

    def test_dust_is_pinned(self):
        stack = StateStack(np.diag([1.0, 1e-16, 0.0])[None])
        assert (stack.eigenvalues >= 0.0).all()
        assert stack.eigenvalues[0, 1] == 0.0


class TestCenterAndMoments:
    def test_center_example(self, cov_triple):
        rho, a, _ = cov_triple
        c = centered(rho, a)
        # Tr[rho A] = 2*(1/4) + 2*(3/4) = 2
        assert report(rho, a).mean_a == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(c, SX, atol=1e-12)
        assert abs(report(rho, c).mean_a) <= 1e-10

    def test_center_identity_observable(self, cov_triple):
        rho, _, _ = cov_triple
        c = centered(rho, np.eye(2))
        assert report(rho, np.eye(2)).mean_a == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(c, np.zeros((2, 2)), atol=1e-12)

    def test_center_traceless(self, cov_triple):
        rho, _, b = cov_triple
        c = centered(rho, b)
        assert report(rho, b).mean_a == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(c, b.matrix, atol=1e-12)

    def test_variance_example(self, cov_triple):
        rho, a, _ = cov_triple
        # A0^2 = I so V = Tr[rho] = 1
        assert report(rho, a).v_a == pytest.approx(1.0, abs=1e-12)

    def test_variance_pure_state(self):
        rho = pure_state([1.0, 0.0])
        assert report(rho, SX).v_a == pytest.approx(1.0, abs=1e-12)

    def test_variance_constant_observable(self, cov_triple):
        rho, _, _ = cov_triple
        assert report(rho, 3.0 * np.eye(2)).v_a == pytest.approx(0.0, abs=1e-12)

    def test_covariance_example(self, cov_triple):
        rho, a, b = cov_triple
        # A0 B0 = I so Cov = Tr[rho] = 1
        assert q.full_report(rho, a, b).cov == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_covariance_self_is_variance(self, re_triple):
        rho, a, _ = re_triple
        rep = report(rho, a)
        assert rep.cov.real == pytest.approx(rep.v_a, abs=1e-10)

    def test_covariance_identity_vanishes(self, re_triple):
        rho, a, _ = re_triple
        assert abs(q.full_report(rho, a, np.eye(2)).cov) <= 1e-12

    def test_covariance_swap_conjugates(self):
        rng = np.random.default_rng(17)
        rho = DensityMatrix(oracles.random_state(3, rng))
        a = Observable(oracles.random_hermitian(3, rng))
        b = Observable(oracles.random_hermitian(3, rng))
        assert q.full_report(rho, b, a).cov == pytest.approx(
            np.conj(q.full_report(rho, a, b).cov), abs=1e-10
        )


class TestSkewInformation:
    def test_cov_variant_value(self, cov_triple):
        rho, a, _ = cov_triple
        # sqrt(rho) = diag(1/2, sqrt(3)/2); Tr[sqrt A0 sqrt A0] = sqrt(3)/2
        assert report(rho, a).i_a == pytest.approx(COV_VARIANT_SKEW, abs=1e-12)

    def test_maximally_mixed_vanishes(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        h = oracles.random_hermitian(4, np.random.default_rng(1))
        assert report(rho, h).i_a == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_equals_variance(self):
        rng = np.random.default_rng(23)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = pure_state(v)
        h = oracles.random_hermitian(3, rng)
        rep = report(rho, h)
        assert rep.i_a == pytest.approx(rep.v_a, abs=1e-10)

    def test_centered_and_uncentered_trace_forms_agree(self):
        for rho, a, _ in random_triples(20, (2, 3, 4), seed=31):
            sq = rho.sqrt
            m = a.matrix
            uncentered = (
                np.trace(rho.matrix @ m @ m) - np.trace(sq @ m @ sq @ m)
            ).real
            assert report(rho, a).i_a == pytest.approx(uncentered, abs=1e-10)

    def test_matches_independent_oracle(self):
        for rho, a, _ in random_triples(20, (2, 3, 5), seed=37):
            assert report(rho, a).i_a == pytest.approx(
                oracles.skew_information(rho.matrix, a.matrix), abs=1e-9
            )

    def test_bounded_by_variance(self):
        for rho, a, _ in random_triples(30, (2, 4, 6), seed=41):
            rep = report(rho, a)
            assert -1e-10 <= rep.i_a <= rep.v_a + 1e-10


class TestWydSkewInformation:
    def test_half_order_is_wy(self):
        for rho, a, _ in random_triples(10, (2, 3), seed=43):
            assert q.wyd_skew_information(rho, a, 0.5) == pytest.approx(
                report(rho, a).i_a, abs=1e-10
            )

    def test_commuting_pair_vanishes(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        h = np.diag([1.0, -2.0, 0.5])
        assert q.wyd_skew_information(rho, h, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_order_closed_form(self):
        # for diag(p, q) against sigma_x: 1 - (p^a q^(1-a) + p^(1-a) q^a)
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        expected = 1.0 - (0.25**0.25 * 0.75**0.75 + 0.25**0.75 * 0.75**0.25)
        assert q.wyd_skew_information(rho, SX, 0.25) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.3, 0.45])
    def test_symmetric_in_alpha(self, alpha):
        for rho, a, _ in random_triples(5, (2, 4), seed=47):
            assert q.wyd_skew_information(rho, a, alpha) == pytest.approx(
                q.wyd_skew_information(rho, a, 1.0 - alpha), abs=1e-10
            )

    def test_centering_is_irrelevant(self):
        for rho, a, _ in random_triples(5, (3,), seed=53):
            shifted = a.matrix + 2.5 * np.eye(3)
            assert q.wyd_skew_information(rho, a, 0.2) == pytest.approx(
                q.wyd_skew_information(rho, shifted, 0.2), abs=1e-10
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.7])
    def test_rejects_endpoint_orders(self, alpha, cov_triple):
        rho, a, _ = cov_triple
        with pytest.raises(AlphaOutOfRange):
            q.wyd_skew_information(rho, a, alpha)

    def test_nonnegative(self):
        for rho, a, _ in random_triples(20, (2, 3, 4), seed=59):
            assert q.wyd_skew_information(rho, a, 0.35) >= -1e-10

    @pytest.mark.parametrize("kind", ["ginibre_mixed", "pure", "diagonal", "degenerate_spectrum"])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_eigenbasis_form_matches_trace_form(self, kind, scale):
        for d in range(2, 9):
            for i in range(3):
                rho = ensembles.random_density(ensembles.EnsembleSpec(dim=d, seed=61, kind=kind), i)
                h = ensembles.random_observable(d, scale, 67, i).matrix
                # relative, with a floor for values that vanish (rho = I/2 commutes with h)
                floor = 1e-3 * np.linalg.norm(h) ** 2
                for alpha in (0.1, 0.3, 0.5, 0.75):
                    ref = oracles.wyd_skew_information(rho.matrix, h, alpha)
                    got = q.wyd_skew_information(rho, h, alpha)
                    assert abs(got - ref) <= 1e-11 * max(abs(ref), floor)


class TestJAndU:
    def test_j_cov_variant_value(self, cov_triple):
        rho, a, _ = cov_triple
        # 2V - I = 2 - (1 - sqrt(3)/2)
        assert report(rho, a).j_a == pytest.approx(1.0 + math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_j_pure_state_equals_variance(self):
        rho = pure_state([1.0, 1.0j])
        h = oracles.random_hermitian(2, np.random.default_rng(3))
        rep = report(rho, h)
        assert rep.j_a == pytest.approx(rep.v_a, abs=1e-10)

    def test_j_constant_observable(self, cov_triple):
        rho, _, _ = cov_triple
        assert report(rho, 2.0 * np.eye(2)).j_a == pytest.approx(0.0, abs=1e-12)

    def test_j_dominates_i(self):
        for rho, a, _ in random_triples(30, (2, 3, 5), seed=61):
            rep = report(rho, a)
            assert rep.j_a >= rep.i_a - 1e-10

    def test_u_cov_variant_value(self, cov_triple):
        rho, a, _ = cov_triple
        # sqrt((1 - sqrt(3)/2)(1 + sqrt(3)/2)) = sqrt(1/4)
        assert report(rho, a).u_a == pytest.approx(0.5, abs=1e-12)

    def test_u_pure_state_equals_variance(self):
        rho = pure_state([2.0, -1.0])
        h = oracles.random_hermitian(2, np.random.default_rng(5))
        rep = report(rho, h)
        assert rep.u_a == pytest.approx(rep.v_a, abs=1e-9)

    def test_u_maximally_mixed_vanishes(self):
        rho = DensityMatrix(np.eye(3) / 3.0)
        h = oracles.random_hermitian(3, np.random.default_rng(7))
        assert report(rho, h).u_a == pytest.approx(0.0, abs=1e-12)

    def test_u_both_forms_agree(self):
        for rho, a, _ in random_triples(30, (2, 4, 6), seed=67):
            rep = report(rho, a)
            v, i = rep.v_a, rep.i_a
            by_def = math.sqrt(max(v * v - (v - i) ** 2, 0.0))
            assert rep.u_a == pytest.approx(by_def, abs=1e-9)

    def test_ordering_chain(self):
        for rho, a, _ in random_triples(60, (2, 3, 4, 6, 8), seed=71):
            rep = report(rho, a)
            assert -1e-9 <= rep.i_a <= rep.u_a + 1e-9 <= rep.v_a + 2e-9


class TestCorrelation:
    def test_self_correlation_is_skew_information(self, re_triple):
        rho, a, _ = re_triple
        rep = report(rho, a)
        assert rep.corr.real == pytest.approx(rep.i_a, abs=1e-10)
        assert abs(rep.corr.imag) <= 1e-12

    def test_pure_state_reduces_to_covariance(self):
        rng = np.random.default_rng(73)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = pure_state(v)
        a = oracles.random_hermitian(4, rng)
        b = oracles.random_hermitian(4, rng)
        rep = q.full_report(rho, a, b)
        assert rep.corr == pytest.approx(rep.cov, abs=1e-9)

    def test_re_ordering_triple_difference(self, re_triple):
        rep = q.full_report(*re_triple)
        # |Re Corr|^2 exceeds |Re Cov|^2 by 0.9^2 - 0.81^2 = 0.1539 here
        assert rep.corr.real**2 - rep.cov.real**2 == pytest.approx(0.1539, abs=1e-10)

    def test_shift_invariance(self):
        for rho, a, b in random_triples(10, (2, 3, 4), seed=79):
            base = q.full_report(rho, a, b).corr
            n = rho.dim
            shifted = q.full_report(
                rho, a.matrix + 1.7 * np.eye(n), b.matrix - 0.9 * np.eye(n)
            ).corr
            assert shifted == pytest.approx(base, abs=1e-10)

    def test_imaginary_part_encodes_commutator(self):
        for rho, a, b in random_triples(20, (2, 3, 4, 5), seed=83):
            rep = q.full_report(rho, a, b)
            assert rep.corr.imag**2 == pytest.approx(0.25 * abs(rep.commutator_avg) ** 2, abs=1e-9)

    def test_matches_independent_oracle(self):
        for rho, a, b in random_triples(15, (2, 4), seed=89):
            assert q.full_report(rho, a, b).corr == pytest.approx(
                oracles.correlation(rho.matrix, a.matrix, b.matrix), abs=1e-9
            )


class TestSpectralForms:
    def test_cov_variant_spectral_value(self, cov_triple):
        rho, a, _ = cov_triple
        # lambda = (3/4, 1/4), |h_12| = 1: (sqrt(3)/2 - 1/2)^2 = 1 - sqrt(3)/2
        assert q.spectral_sums(rho, a).skew_information == pytest.approx(
            COV_VARIANT_SKEW, abs=1e-12
        )

    def test_diagonal_observable_gives_zero(self):
        rho = DensityMatrix(np.diag([0.7, 0.2, 0.1]))
        h = np.diag([3.0, 1.0, -2.0])
        assert q.spectral_sums(rho, h).skew_information == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_offdiagonal_row(self):
        rho = pure_state([1.0, 0.0, 0.0])
        h = oracles.random_hermitian(3, np.random.default_rng(11))
        helems = q.matrix_elements(rho, h)
        expected = sum(abs(helems[0, j]) ** 2 for j in (1, 2))
        assert q.spectral_sums(rho, h).skew_information == pytest.approx(expected, abs=1e-10)

    def test_agrees_with_trace_form(self):
        for rho, a, _ in random_triples(40, (2, 3, 4, 6), seed=97):
            assert q.spectral_sums(rho, a).skew_information == pytest.approx(
                report(rho, a).i_a, abs=1e-9
            )

    def test_agrees_on_degenerate_spectrum(self):
        # I/n mixed with a rank-1 projector has an (n-1)-fold eigenvalue tie
        n = 4
        proj = np.zeros((n, n))
        proj[0, 0] = 1.0
        rho = DensityMatrix(0.5 * np.eye(n) / n + 0.5 * proj)
        h = oracles.random_hermitian(n, np.random.default_rng(13))
        assert q.spectral_sums(rho, h).skew_information == pytest.approx(
            report(rho, h).i_a, abs=1e-9
        )

    def test_matrix_elements_hermitian(self):
        for rho, a, _ in random_triples(10, (3, 5), seed=101):
            helems = q.matrix_elements(rho, a)
            assert np.abs(helems - helems.conj().T).max() <= 1e-10

    def test_j_bound_cov_variant(self, cov_triple):
        rho, a, _ = cov_triple
        bound = q.spectral_sums(rho, a).j_lower_bound
        assert bound == pytest.approx(1.0 + math.sqrt(3.0) / 2.0, abs=1e-12)
        # h_11 = h_22 = 0 here, so the bound is exactly J
        assert report(rho, a).j_a - bound == pytest.approx(0.0, abs=1e-12)

    def test_j_bound_strict_slack_for_diagonal(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        h = np.diag([2.0, -1.0])  # diagonal in the eigenbasis, h_ii != 0
        assert q.spectral_sums(rho, h).j_lower_bound == pytest.approx(0.0, abs=1e-12)
        assert report(rho, h).j_a > 0.0

    def test_j_bound_constant_observable(self, cov_triple):
        rho, _, _ = cov_triple
        h = 4.0 * np.eye(2)
        assert q.spectral_sums(rho, h).j_lower_bound == pytest.approx(0.0, abs=1e-12)
        assert report(rho, h).j_a == pytest.approx(0.0, abs=1e-12)

    def test_j_slack_identity_against_oracle(self):
        for rho, a, _ in random_triples(40, (2, 3, 4, 6), seed=103):
            i_sum, j_sum, slack = oracles.spectral_sums(rho.matrix, a.matrix)
            sums = q.spectral_sums(rho, a)
            assert sums.j_lower_bound == pytest.approx(j_sum, abs=1e-9)
            assert sums.skew_information == pytest.approx(i_sum, abs=1e-9)
            gap = report(rho, a).j_a - sums.j_lower_bound
            assert gap == pytest.approx(sums.j_diagonal_term, abs=1e-9)
            assert gap == pytest.approx(slack, abs=1e-9)
            assert gap >= -1e-9


class TestFullReport:
    def test_cov_variant_report(self, cov_triple):
        rho, a, b = cov_triple
        rep = q.full_report(rho, a, b)
        assert rep.u_a == pytest.approx(0.5, abs=1e-12)
        assert rep.u_b == pytest.approx(0.5, abs=1e-12)
        assert rep.cov.real == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.commutator_avg) <= 1e-12
        assert rep.j_a == pytest.approx(2.0 * rep.v_a - rep.i_a, abs=1e-10)

    def test_re_ordering_report(self, re_triple):
        rho, a, b = re_triple
        rep = q.full_report(rho, a, b)
        assert rep.v_a == pytest.approx(8.01, abs=1e-10)
        assert rep.v_b == pytest.approx(2.61, abs=1e-10)
        assert rep.i_a == pytest.approx(0.9, abs=1e-10)
        assert rep.i_b == pytest.approx(0.9, abs=1e-10)
        assert rep.cov.real == pytest.approx(0.81, abs=1e-10)
        assert rep.corr.real == pytest.approx(0.9, abs=1e-10)

    def test_pure_state_report_degenerates(self):
        rng = np.random.default_rng(107)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = pure_state(v)
        a = oracles.random_hermitian(3, rng)
        b = oracles.random_hermitian(3, rng)
        rep = q.full_report(rho, a, b)
        assert rep.i_a == pytest.approx(rep.v_a, abs=1e-9)
        assert rep.u_a == pytest.approx(rep.v_a, abs=1e-9)
        assert rep.corr == pytest.approx(rep.cov, abs=1e-9)

    def test_disagreeing_j_forms_raise_a_validation_error(self):
        # an offset far above |K| makes the centered forms of J differ by
        # about eps * offset * |K|, beyond the cross-check tolerance
        rho = ensembles.random_density(ensembles.EnsembleSpec(dim=4, seed=1), 2)
        k = ensembles.random_observable(4, 1.0, 3, 0).matrix
        b = ensembles.random_observable(4, 1.0, 5, 0)
        q.full_report(rho, k + 1e6 * np.eye(4), b)
        with pytest.raises(InconsistentResult, match="J forms disagree"):
            q.full_report(rho, k + 1e7 * np.eye(4), b)

    def test_report_fields_match_oracle(self, re_triple):
        triples = [re_triple, *random_triples(20, (2, 3, 4, 6), seed=109)]
        for rho, a, b in triples:
            rep = q.full_report(rho, a, b)
            r, ma, mb = rho.matrix, a.matrix, b.matrix
            expected = {
                "mean_a": oracles.mean(r, ma),
                "mean_b": oracles.mean(r, mb),
                "v_a": oracles.variance(r, ma),
                "v_b": oracles.variance(r, mb),
                "i_a": oracles.skew_information(r, ma),
                "i_b": oracles.skew_information(r, mb),
                "j_a": oracles.j_value(r, ma),
                "j_b": oracles.j_value(r, mb),
                "u_a": oracles.u_value(r, ma),
                "u_b": oracles.u_value(r, mb),
                "cov": oracles.covariance(r, ma, mb),
                "corr": oracles.correlation(r, ma, mb),
                "commutator_avg": oracles.commutator_average(r, ma, mb),
            }
            for field, value in expected.items():
                assert getattr(rep, field) == pytest.approx(value, abs=1e-9), field
