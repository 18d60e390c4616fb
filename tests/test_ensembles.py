import numpy as np
import pytest

from skewrel import ensembles
from skewrel.ensembles import EnsembleSpec, random_density, random_observable
from skewrel.errors import BadSpec


class TestStreams:
    def test_splitmix64_known_answer(self):
        # reference first output of the zero-seeded stream
        assert int(ensembles.splitmix64(0, 1)[0]) == 0xE220A8397B1DCDAF

    def test_uniforms_in_half_open_interval(self):
        u = ensembles.uniforms(42, 10000)
        assert (u > 0.0).all() and (u <= 1.0).all()

    def test_normals_moments(self):
        x = ensembles.normals(7, 200000)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02

    def test_stream_seed_rule(self):
        assert ensembles.stream_seed(0b1100, 0b1010) == 0b0110
        assert ensembles.stream_seed(2**63, 1) == 2**63 + 1


class TestRandomDensity:
    def test_pure_eigenvalues(self):
        rho = random_density(EnsembleSpec(dim=2, kind="pure", seed=5))
        np.testing.assert_allclose(
            rho.eigenvalues, [1.0, 0.0], atol=1e-12
        )

    def test_pure_is_projector(self):
        rho = random_density(EnsembleSpec(dim=4, kind="pure", seed=9))
        assert np.linalg.norm(rho.matrix @ rho.matrix - rho.matrix) <= 1e-12

    def test_full_blend_is_exactly_maximally_mixed(self):
        rho = random_density(EnsembleSpec(dim=4, kind="ginibre_mixed", purity_blend=1.0, seed=3))
        np.testing.assert_array_equal(rho.matrix, np.eye(4) / 4.0)

    def test_partial_blend_shifts_spectrum(self):
        plain = random_density(EnsembleSpec(dim=3, kind="ginibre_mixed", seed=11))
        mixed = random_density(
            EnsembleSpec(dim=3, kind="ginibre_mixed", purity_blend=0.5, seed=11)
        )
        np.testing.assert_allclose(
            mixed.eigenvalues,
            0.5 * plain.eigenvalues + 0.5 / 3.0,
            atol=1e-12,
        )

    def test_rank_k_has_expected_kernel(self):
        for seed in range(20):
            rho = random_density(EnsembleSpec(dim=3, kind="rank_k", rank=2, seed=seed))
            small = np.sum(rho.eigenvalues <= 1e-12)
            assert small == 1

    def test_diagonal_kind_is_diagonal(self):
        rho = random_density(EnsembleSpec(dim=5, kind="diagonal", seed=13))
        off = rho.matrix - np.diag(np.diagonal(rho.matrix))
        assert np.abs(off).max() == 0.0

    def test_degenerate_spectrum(self):
        rho = random_density(EnsembleSpec(dim=5, kind="degenerate_spectrum", seed=17))
        np.testing.assert_allclose(
            rho.eigenvalues, [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-12
        )
        # genuinely rotated: not diagonal in the standard basis
        assert np.abs(rho.matrix - np.diag(np.diagonal(rho.matrix))).max() > 1e-3

    def test_identical_seed_bit_identical(self):
        spec = EnsembleSpec(dim=4, kind="ginibre_mixed", seed=23)
        a = random_density(spec, sample_index=7)
        b = random_density(spec, sample_index=7)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_distinct_samples_differ(self):
        spec = EnsembleSpec(dim=4, kind="ginibre_mixed", seed=23)
        a = random_density(spec, sample_index=0)
        b = random_density(spec, sample_index=1)
        assert np.abs(a.matrix - b.matrix).max() > 1e-3

    @pytest.mark.parametrize("kind", ensembles.KINDS)
    def test_all_kinds_satisfy_state_invariants(self, kind):
        rank = 2 if kind == "rank_k" else None
        for idx in range(50):
            spec = EnsembleSpec(dim=4, kind=kind, rank=rank, seed=29)
            rho = random_density(spec, sample_index=idx)
            assert np.abs(rho.matrix - rho.matrix.conj().T).max() <= 1e-14
            assert rho.eigenvalues.min() >= -1e-12
            assert abs(rho.eigenvalues.sum() - 1.0) <= 1e-12

    def test_bad_specs_rejected(self):
        with pytest.raises(BadSpec):
            random_density(EnsembleSpec(dim=1, kind="pure"))
        with pytest.raises(BadSpec):
            random_density(EnsembleSpec(dim=2, kind="thermal"))
        with pytest.raises(BadSpec):
            random_density(EnsembleSpec(dim=2, kind="rank_k", rank=3))
        with pytest.raises(BadSpec):
            random_density(EnsembleSpec(dim=2, kind="rank_k"))
        with pytest.raises(BadSpec):
            random_density(EnsembleSpec(dim=2, purity_blend=1.5))


class TestRandomObservable:
    def test_hermitian_by_construction(self):
        for idx in range(10):
            obs = random_observable(3, scale=1.0, seed=31, sample_index=idx)
            np.testing.assert_array_equal(obs.matrix, obs.matrix.conj().T)

    def test_seeded_determinism(self):
        a = random_observable(4, scale=2.0, seed=37, sample_index=5)
        b = random_observable(4, scale=2.0, seed=37, sample_index=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_entry_scale_statistics(self):
        # rms entry magnitude over many draws should track the scale
        scale = 1.7
        total = 0.0
        count = 0
        for idx in range(10000):
            m = random_observable(2, scale=scale, seed=41, sample_index=idx).matrix
            total += float(np.sum(np.abs(m) ** 2))
            count += m.size
        rms = np.sqrt(total / count)
        assert abs(rms - scale) <= 0.2 * scale

    def test_bad_parameters_rejected(self):
        with pytest.raises(BadSpec):
            random_observable(1, scale=1.0, seed=0)
        with pytest.raises(BadSpec):
            random_observable(2, scale=0.0, seed=0)
