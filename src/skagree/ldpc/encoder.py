"""Encoder derivation by GF(2) elimination on the parity-check matrix."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .peg import ParityCheckMatrix


# reduced rows unpacked at a time while the parity map is read off them,
# n bytes each: 0.6 MiB at n=10000, beside 9 MiB of packed rows
_ROW_BLOCK = 64


@dataclass
class Gf2Encoder:
    """Maps k-bit messages onto an information set of the code.

    Message bits land on ``info_cols``; the remaining (pivot) positions are
    parity, filled so that every check is satisfied. If the parity-check
    matrix is rank deficient, k exceeds the design dimension and
    ``true_rate`` reports the actual k/n.

    ``_phi`` is the (rank, k) parity map as :func:`gf2.pack_rows` rows, an
    eighth of its unpacked size; row i gives the message bits that sum to
    parity bit ``pivot_cols[i]``. ``encode_batch`` multiplies by it with
    :func:`gf2.mul`, which unpacks a block of its rows at a time.
    """

    n: int
    k: int
    rank: int
    info_cols: np.ndarray
    pivot_cols: np.ndarray
    _phi: np.ndarray = field(repr=False)

    @property
    def true_rate(self) -> float:
        return self.k / self.n

    def encode_batch(self, messages) -> np.ndarray:
        msgs = np.asarray(messages, dtype=np.uint8)
        if msgs.ndim != 2 or msgs.shape[1] != self.k:
            raise ValueError(f"messages must have shape (batch, {self.k})")
        words = np.zeros((msgs.shape[0], self.n), dtype=np.uint8)
        words[:, self.info_cols] = msgs
        words[:, self.pivot_cols] = gf2.mul(msgs, self._phi, self.k)
        return words


def derive_encoder(h: ParityCheckMatrix) -> Gf2Encoder:
    """Find an information set via RREF and precompute the parity map.

    H's rows are packed straight from its Tanner edges and reduced in place
    (:func:`gf2.rref`); the pivots are the parity positions, and the parity
    map is read off the reduced rows a block at a time. No dense m x n
    array is made: the working set is the packed rows, which take m * n / 8
    bytes, and the packed parity map, plus blocks of rows.
    """
    m, n = h.shape
    words = gf2.zeros(m, n)
    gf2.set_ones(words, *h.tanner_edges())
    pivots = gf2.rref(words, n)
    rank = len(pivots)
    pivot_cols = np.asarray(pivots, dtype=np.int64)
    info_cols = np.delete(np.arange(n), pivot_cols)
    k = n - rank
    phi = gf2.zeros(rank, k)
    for r in range(0, rank, _ROW_BLOCK):
        # of a block's unpacked rows only the information columns are kept
        reduced = gf2.unpack_rows(words[r:min(r + _ROW_BLOCK, rank)], n)[:, info_cols]
        phi[r:r + _ROW_BLOCK] = gf2.pack_rows(reduced)
    return Gf2Encoder(
        n=n, k=k, rank=rank, info_cols=info_cols,
        pivot_cols=pivot_cols, _phi=phi,
    )
