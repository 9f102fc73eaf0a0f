"""Frame scrambling by a dense random invertible GF(2) matrix.

A residual error in any single position spreads to about half of the frame
after descrambling, which is the property the security argument needs.
"""

from __future__ import annotations

import numpy as np

from ..channels import SeededRng
from . import gf2

_MAX_DRAWS = 64
# bits of a candidate key drawn at a time; ``SeededRng.bits`` takes one raw
# 64-bit word per bit, so a block's words take 128 KiB
_DRAW_BITS = 1 << 14


class FrameScrambler:
    """Invertible random GF(2) map over fixed-length frames.

    The key and its inverse are held as :func:`gf2.pack_rows` rows, k * k / 8
    bytes each; ``matrix`` and ``inverse`` unpack them to bytes on access.
    """

    def __init__(self, length: int, seed: int):
        if length < 1:
            raise ValueError("frame length must be positive")
        self.length = length
        self.seed = seed
        rng = SeededRng(seed)
        rows = max(1, _DRAW_BITS // length)
        candidate = gf2.zeros(length, length)
        for _ in range(_MAX_DRAWS):
            # blocks drawn in sequence take the bits one (length, length) draw would
            for r in range(0, length, rows):
                block = rng.bits((min(rows, length - r), length))
                candidate[r:r + rows] = gf2.pack_rows(block)
            inverse = gf2.invert(candidate)
            if inverse is not None:
                break
        else:  # pragma: no cover - probability ~0.71^64
            raise RuntimeError("failed to draw an invertible scrambling matrix")
        self._matrix = candidate
        self._inverse = inverse

    @property
    def matrix(self) -> np.ndarray:
        """The key as a (length, length) 0/1 uint8 array."""
        return gf2.unpack_rows(self._matrix, self.length)

    @property
    def inverse(self) -> np.ndarray:
        """The key's inverse as a (length, length) 0/1 uint8 array."""
        return gf2.unpack_rows(self._inverse, self.length)

    def apply(self, bits) -> np.ndarray:
        """Scramble (batch, length) frames."""
        return self._mul(bits, self._matrix)

    def invert_bits(self, bits) -> np.ndarray:
        """Descramble (batch, length) frames."""
        return self._mul(bits, self._inverse)

    def _mul(self, bits, words) -> np.ndarray:
        """(bits @ mat.T) mod 2 for the packed rows ``words`` of ``mat``."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != self.length:
            raise ValueError(f"expected (batch, {self.length}) frames")
        return gf2.mul(arr, words, self.length)
