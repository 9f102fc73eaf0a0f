"""Reproducible Rayleigh multipath channel generation with exponential PDPs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

#: Recorded in experiment metadata so runs can be reproduced elsewhere.
RNG_ALGORITHM = "philox4x64x10(key=seed<<64|stream):box-muller;scrambler=L*C(raw words)"


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer, used to derive child stream ids."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SeededRng:
    """Deterministic random stream backed by the Philox counter-based generator.

    Normal variates are produced by an explicit Box-Muller transform of the
    generator's uniforms rather than numpy's ziggurat, so the exact sample
    sequence is reproducible from (seed, stream, algorithm) alone.

    Independent streams for parallel work come from ``spawn``; children are
    keyed by a SplitMix64 mix of the parent stream and the spawn index, so
    nested spawning never collides in practice.
    """

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = (self.seed << 64) | self.stream
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, stream={self.stream})"

    def spawn(self, index: int) -> "SeededRng":
        """Derive an independent child stream (deterministic in ``index``)."""
        child = _splitmix64(self.stream ^ _splitmix64(int(index) + 1))
        return SeededRng(self.seed, child)

    def uniform(self, size=None):
        """Uniforms on [0, 1)."""
        return self._gen.random(size)

    def _uniform_pairs(self, size):
        # variate i consumes stream positions 2i and 2i+1, so chunked draws
        # reproduce the same sequence as one large draw
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        total = int(np.prod(shape)) if shape else 1
        u = self._gen.random(2 * total)
        return 1.0 - u[0::2], u[1::2], shape

    def complex_normals(self, size):
        """CN(0, 1) variates: modulus sqrt(Exp(1)), phase uniform."""
        u1, u2, shape = self._uniform_pairs(size)
        return (np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)).reshape(shape)

    def words(self, count: int) -> np.ndarray:
        """The stream's next ``count`` raw 64-bit words, as uint64; ``uniform``
        takes one word per variate."""
        return self._gen.bit_generator.random_raw(count)

    def bits(self, size):
        """Fair bits as uint8: bit i is ``uniform(size)`` element i < 0.5.

        ``Generator.random`` maps a raw 64-bit word w to (w >> 11) * 2**-53,
        which is below 0.5 exactly when bit 63 of w is clear. So the bits
        are read off raw words, one word per bit as ``uniform`` takes, and
        the stream ends where ``uniform(size)`` leaves it.
        """
        below = np.less(self.words(int(np.prod(size))), 1 << 63)
        return below.view(np.uint8).reshape(size)

    def permutation(self, n: int):
        return self._gen.permutation(n)


@dataclass(frozen=True)
class PdpProfile:
    """Power-delay profile: mean power per channel tap.

    ``tap_powers[i]`` is E{|g(i)|^2}; the total gain is their sum.
    """

    tap_powers: np.ndarray

    def __post_init__(self):
        powers = np.asarray(self.tap_powers, dtype=float)
        if powers.ndim != 1 or powers.size < 1:
            raise ValueError("tap_powers must be a non-empty 1-d array")
        if np.any(powers <= 0):
            raise ValueError("all tap powers must be positive")
        powers = powers.copy()
        powers.setflags(write=False)
        object.__setattr__(self, "tap_powers", powers)

    @property
    def length(self) -> int:
        return self.tap_powers.size


def exponential_pdp(n_taps: int, gamma_db: float, decay: float = 0.5) -> PdpProfile:
    """Exponentially decaying PDP normalized to a total gain of 10^(gamma_db/10).

    Tap i carries mean power c * exp(-decay * i), with c fixing the sum.
    ``decay`` is in nats per tap; decay = 0 degenerates to a uniform profile.
    """
    if n_taps < 1:
        raise ValueError("need at least one tap")
    if decay < 0:
        raise ValueError("decay must be nonnegative")
    total = 10.0 ** (gamma_db / 10.0)
    weights = np.exp(-decay * np.arange(n_taps))
    return PdpProfile(total * weights / weights.sum())


def sample_tap_matrix(pdp: PdpProfile, rng: SeededRng, count: int) -> np.ndarray:
    """Draw ``count`` channel realizations as a (count, length) array."""
    taps = rng.complex_normals((count, pdp.length))
    return taps * np.sqrt(pdp.tap_powers)
