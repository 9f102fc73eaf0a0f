"""Encoder derivation by GF(2) elimination on the parity-check matrix."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .peg import ParityCheckMatrix


@dataclass
class Gf2Encoder:
    """Maps k-bit messages onto an information set of the code.

    Message bits land on ``info_cols``; the remaining (pivot) positions are
    parity, filled so that every check is satisfied. If the parity-check
    matrix is rank deficient, k exceeds the design dimension and
    ``true_rate`` reports the actual k/n.
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
        words[:, self.pivot_cols] = gf2.matmul_mod2(msgs, self._phi.T)
        return words


def derive_encoder(h: ParityCheckMatrix) -> Gf2Encoder:
    """Find an information set via RREF and precompute the parity map."""
    dense = h.to_dense()
    m, n = dense.shape
    words = gf2.pack_rows(dense)
    pivots = gf2.rref(words, n)
    rank = len(pivots)
    pivot_cols = np.asarray(pivots, dtype=np.int64)
    info_cols = np.setdiff1d(np.arange(n, dtype=np.int64), pivot_cols)
    reduced = gf2.unpack_rows(words[:rank], n)
    phi = reduced[:, info_cols]
    return Gf2Encoder(
        n=n, k=n - rank, rank=rank, info_cols=info_cols,
        pivot_cols=pivot_cols, _phi=phi,
    )
