"""Frame scrambling by a dense random invertible GF(2) matrix.

A residual error in any single position spreads to about half of the frame
after descrambling, which is the property the security argument needs.

The key S is drawn through its inverse D = S^-1, the map the simulator
applies, as D = L C over GF(2) (Randall, "Efficient generation of random
nonsingular matrices", Random Structures & Algorithms 4(1), 1993). L is
unit lower triangular with uniform bits below the diagonal. Row i of C is
a uniform nonzero vector on the coordinates that rows 0..i-1 have not
taken as pivots, and its pivot is its lowest set bit. Row i of D is then
c_i, uniform on a complement of the span of rows 0..i-1, plus a uniform
element of that span, so D is uniform on GL(k, 2):
2^(k(k-1)/2) * prod_i (2^(k-i) - 1) pairs (L, C) give each element once.
No candidate is rejected and nothing is inverted to descramble.
"""

from __future__ import annotations

import functools

import numpy as np

from ..channels import SeededRng
from . import gf2


class FrameScrambler:
    """Invertible random GF(2) map over fixed-length frames.

    The draw is fixed by the seed alone: with w = ceil(k / 64) words a row,
    ``SeededRng(seed).words`` gives k * w words for L's rows, then k * w for
    C's candidate rows, then w more for each row of C, in order, whose
    candidate has no bit on the coordinates left to it. Raw words hold bits
    little-endian, the :mod:`gf2` packed layout, so L and C are held as
    packed rows, k * k / 8 bytes each. ``inverse`` multiplies them out;
    ``matrix`` and ``apply`` use the key S itself, inverted from D on first
    use.
    """

    def __init__(self, length: int, seed: int):
        if length < 1:
            raise ValueError("frame length must be positive")
        self.length = length
        rng = SeededRng(seed)
        width = (length + 63) // 64
        lower = rng.words(length * width).reshape(length, width)
        pivoted = rng.words(length * width).reshape(length, width)
        low, piv = memoryview(lower).cast("B"), memoryview(pivoted).cast("B")
        step = 8 * width
        free = (1 << length) - 1
        for i, s in enumerate(range(0, length * step, step)):
            # L keeps its bits below the diagonal and sets the diagonal
            row = int.from_bytes(low[s:s + step], "little") & ((1 << i) - 1) | 1 << i
            low[s:s + step] = row.to_bytes(step, "little")
            # C keeps the coordinates no earlier row took; its lowest bit is taken
            row = int.from_bytes(piv[s:s + step], "little") & free
            while not row:
                row = int.from_bytes(rng.words(width), "little") & free
            free ^= row & -row
            piv[s:s + step] = row.to_bytes(step, "little")
        self._lower = lower
        self._pivoted = pivoted

    @functools.cached_property
    def _forward(self) -> np.ndarray:
        """The key S as packed rows, inverted from D when first asked for."""
        return gf2.invert(gf2.pack_rows(self.inverse))

    @property
    def matrix(self) -> np.ndarray:
        """The key as a (length, length) 0/1 uint8 array."""
        return gf2.unpack_rows(self._forward, self.length)

    @property
    def inverse(self) -> np.ndarray:
        """The key's inverse D = L C as a (length, length) 0/1 uint8 array."""
        k = self.length
        return np.ascontiguousarray(
            gf2.mul(gf2.unpack_rows(self._pivoted, k).T, self._lower, k).T)

    def apply(self, bits) -> np.ndarray:
        """Scramble (batch, length) frames."""
        return gf2.mul(self._frames(bits), self._forward, self.length)

    def invert_bits(self, bits) -> np.ndarray:
        """Descramble (batch, length) frames: bits @ (L C).T."""
        c_t = gf2.mul(self._frames(bits), self._pivoted, self.length)
        return gf2.mul(c_t, self._lower, self.length)

    def _frames(self, bits) -> np.ndarray:
        """``bits`` as a (batch, length) uint8 array, or ValueError."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != self.length:
            raise ValueError(f"expected (batch, {self.length}) frames")
        return arr
