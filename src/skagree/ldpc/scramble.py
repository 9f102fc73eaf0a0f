"""Frame scrambling by a dense random invertible GF(2) matrix.

A residual error in any single position spreads to about half of the frame
after descrambling, which is the property the security argument needs.
"""

from __future__ import annotations

import numpy as np

from ..channels import SeededRng
from . import gf2

_MAX_DRAWS = 64
# rows of the key that one product step casts to float32
_ROW_BLOCK = 128


class FrameScrambler:
    """Invertible random GF(2) map over fixed-length frames."""

    def __init__(self, length: int, seed: int):
        if length < 1:
            raise ValueError("frame length must be positive")
        self.length = length
        self.seed = seed
        rng = SeededRng(seed)
        for _ in range(_MAX_DRAWS):
            candidate = rng.bits((length, length))
            inverse = gf2.invert(candidate)
            if inverse is not None:
                break
        else:  # pragma: no cover - probability ~0.71^64
            raise RuntimeError("failed to draw an invertible scrambling matrix")
        self.matrix = candidate
        self.inverse = inverse

    def apply(self, bits) -> np.ndarray:
        """Scramble (batch, length) frames."""
        return self._mul(bits, self.matrix)

    def invert_bits(self, bits) -> np.ndarray:
        """Descramble (batch, length) frames."""
        return self._mul(bits, self.inverse)

    def _mul(self, bits, mat) -> np.ndarray:
        """(bits @ mat.T) mod 2, a block of ``mat``'s rows at a time, so that
        only that block is ever cast to float."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != self.length:
            raise ValueError(f"expected (batch, {self.length}) frames")
        out = np.empty(arr.shape, dtype=np.uint8)
        frames = arr.astype(np.float32)
        for j in range(0, self.length, _ROW_BLOCK):
            out[:, j:j + _ROW_BLOCK] = gf2.matmul_mod2(frames, mat[j:j + _ROW_BLOCK].T)
        return out
