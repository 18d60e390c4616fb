"""Seeded random states and observables with portable, schedule-free streams.

Randomness comes from SplitMix64: output k of a stream is a pure function
mix(seed + (k+1) * GAMMA), so a whole stream materializes as one vectorized
uint64 computation.  Streams split by XORing the sample index into the
seed, which makes every sample a pure function of (spec, seed, index) --
the same samples are produced no matter how they are grouped.  Every
stream function takes one seed or an array of N seeds (then returning one
row per seed), so a whole batch of samples is drawn as stacked arrays;
the one-sample functions are the one-row case of the stacked ones.
Gaussians come from Box-Muller on the 53-bit uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec
from .quantities import DensityMatrix, Observable, StateStack
from . import linalg

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

KINDS = ("ginibre_mixed", "pure", "rank_k", "diagonal", "degenerate_spectrum")

# Role salts keep the state stream and the two observable streams of one
# sample index disjoint.
SALT_OBSERVABLE_A = 0x9D2C5680AD6F4D5F
SALT_OBSERVABLE_B = 0x5851F42D4C957F2D


def stream_seed(seed: int, sample_index: int) -> int:
    """Documented stream-splitting rule: the sample index XORed into the seed."""
    return (int(seed) ^ int(sample_index)) & _MASK64


def _stream_seeds(seed: int, sample_indices) -> np.ndarray:
    """stream_seed for an array of sample indices, as uint64."""
    return np.uint64(int(seed) & _MASK64) ^ np.asarray(sample_indices).astype(np.uint64)


def splitmix64(seed, count: int) -> np.ndarray:
    """First ``count`` outputs of the SplitMix64 stream for ``seed``.

    ``seed`` is an int, or a uint64 array of N seeds for an (N, count)
    array with one stream per row.
    """
    if isinstance(seed, np.ndarray):
        seeds = seed.astype(np.uint64, copy=False)[:, None]
    else:
        seeds = np.uint64(int(seed) & _MASK64)
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = seeds + steps * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniforms(seed, count: int) -> np.ndarray:
    """Uniform doubles in (0, 1], from the top 53 bits of each output."""
    z = splitmix64(seed, count)
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def normals(seed, count: int) -> np.ndarray:
    """Standard normals via Box-Muller; u1 in (0, 1] keeps the log finite."""
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    r = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    theta = (2.0 * np.pi) * u[..., pairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :count]


def complex_normals(seed, count: int) -> np.ndarray:
    """Standard complex Gaussians: re and im each N(0, 1/2), E|z|^2 = 1."""
    x = normals(seed, 2 * count) * np.sqrt(0.5)
    return x[..., :count] + 1j * x[..., count:]


@dataclass(frozen=True)
class EnsembleSpec:
    """What to draw: dimension, family, and family parameters.

    kind:
      ginibre_mixed        G G^dagger / Tr, blended with purity_blend of
                           the maximally mixed state
      pure                 normalized Gaussian vector projector
      rank_k               Ginibre truncated to ``rank`` columns
      diagonal             uniform-simplex eigenvalues in the standard basis
      degenerate_spectrum  fixed spectrum (1/2, 1/2, 0, ...) conjugated by
                           a random unitary (QR of Ginibre, phases fixed)
    """

    dim: int
    kind: str = "ginibre_mixed"
    rank: int | None = None
    purity_blend: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 2:
            raise BadSpec(f"dim must be >= 2, got {self.dim}")
        if self.kind not in KINDS:
            raise BadSpec(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "rank_k":
            if self.rank is None or not 1 <= self.rank <= self.dim:
                raise BadSpec(f"rank_k requires 1 <= rank <= dim, got {self.rank}")
        if not 0.0 <= self.purity_blend <= 1.0:
            raise BadSpec(f"purity_blend must lie in [0, 1], got {self.purity_blend}")
        if not 0 <= int(self.seed) <= _MASK64:
            raise BadSpec("seed must fit in 64 unsigned bits")


def _ginibre(seeds: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return complex_normals(seeds, rows * cols).reshape(-1, rows, cols)


def _random_unitaries(seeds: np.ndarray, n: int) -> np.ndarray:
    # QR of Ginibre with R's diagonal phases absorbed into Q, which fixes
    # the otherwise arbitrary column phases.
    q, r = np.linalg.qr(_ginibre(seeds, n, n))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) == 0] = 1.0
    return q * (d / np.abs(d))[:, None, :]


def _householder_bases(v: np.ndarray) -> np.ndarray:
    """Unitaries whose first column is parallel to each unit vector row of v."""
    n = v.shape[-1]
    pivot = v[:, 0]
    mag = np.abs(pivot)
    phase = np.where(mag > 0, pivot / np.where(mag > 0, mag, 1.0), 1.0)
    w = v.copy()
    w[:, 0] += phase
    norms = np.einsum("ni,ni->n", w.conj(), w).real
    # P e1 = -conj(phase) v, so column 0 is v up to a phase that the
    # from_spectral canonicalization removes anyway.
    return np.eye(n) - 2.0 * (w[:, :, None] * w.conj()[:, None, :]) / norms[:, None, None]


def _identities(count: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n, dtype=np.complex128), (count, n, n))


def _spectra(spec: EnsembleSpec, sample_indices) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (N, d) and orthonormal eigenvectors (N, d, d) of N samples."""
    seeds = _stream_seeds(spec.seed, sample_indices)
    count, n = seeds.shape[0], spec.dim

    if spec.kind == "pure":
        v = complex_normals(seeds, n)
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        lam = np.zeros((count, n))
        lam[:, 0] = 1.0
        return lam, _householder_bases(v)

    if spec.kind == "diagonal":
        weights = np.abs(complex_normals(seeds, n)) ** 2
        return weights / weights.sum(axis=-1, keepdims=True), _identities(count, n)

    if spec.kind == "degenerate_spectrum":
        lam = np.zeros((count, n))
        lam[:, :2] = 0.5
        return lam, _random_unitaries(seeds, n)

    beta = spec.purity_blend
    if spec.kind == "ginibre_mixed" and beta == 1.0:
        return np.full((count, n), 1.0 / n), _identities(count, n)
    g = _ginibre(seeds, n, spec.rank if spec.kind == "rank_k" else n)
    m = g @ g.swapaxes(-1, -2).conj()
    w, v = linalg.hermitian_eig_stack(m / np.einsum("nii->n", m).real[:, None, None])
    lam = np.clip(w, 0.0, None)
    lam = lam / lam.sum(axis=-1, keepdims=True)
    if spec.kind == "ginibre_mixed":
        lam = (1.0 - beta) * lam + beta / n
    return lam, v


def random_density_stack(spec: EnsembleSpec, sample_indices) -> StateStack:
    """Draw the validated states of many sample indices at once.

    Row k is a pure function of (spec, sample_indices[k]); it equals
    random_density(spec, sample_indices[k]).
    """
    spec.validate()
    return StateStack.from_spectral(*_spectra(spec, sample_indices))


def random_density(spec: EnsembleSpec, sample_index: int = 0) -> DensityMatrix:
    """Draw one validated state; a pure function of (spec, sample_index)."""
    spec.validate()
    w, v = _spectra(spec, [sample_index])
    return DensityMatrix.from_spectral(w[0], v[0])


def _check_observable_args(dim: int, scale: float) -> None:
    if dim < 2:
        raise BadSpec(f"dim must be >= 2, got {dim}")
    if not scale > 0:
        raise BadSpec(f"scale must be positive, got {scale}")


def random_observable_stack(dim: int, scale: float, seed: int, sample_indices) -> np.ndarray:
    """(N, dim, dim) stack of the observables random_observable draws per index."""
    _check_observable_args(dim, scale)
    x = normals(_stream_seeds(seed, sample_indices), 2 * dim * dim) * scale
    m = x[:, : dim * dim].reshape(-1, dim, dim) + 1j * x[:, dim * dim :].reshape(-1, dim, dim)
    return np.ascontiguousarray((m + m.swapaxes(-1, -2).conj()) / 2.0)


def random_observable(dim: int, scale: float, seed: int, sample_index: int = 0) -> Observable:
    """Hermitian (M + M^dagger)/2 with Gaussian M; entries have rms ~ scale.

    M's real and imaginary parts are each N(0, scale^2), which makes every
    entry of the symmetrized result come out with root-mean-square
    magnitude ``scale`` (diagonal entries real, off-diagonal complex).
    """
    return Observable(random_observable_stack(dim, scale, seed, [sample_index])[0])
