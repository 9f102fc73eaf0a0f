"""Bit-packed GF(2) linear algebra for encoder derivation and scrambling."""

from __future__ import annotations

import numpy as np

# rows a block clear updates at a time; their gathered sums are the clear's
# only temporary, 0.3 MiB at n=10000 where the packed rows take 9 MiB
_CLEAR_ROWS = 256


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, n) 0/1 matrix into little-endian uint64 words per row."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :n]


def rref(words: np.ndarray, n: int) -> list[int]:
    """In-place reduced row echelon form over GF(2); returns pivot columns.

    The result is that of plain Gauss-Jordan elimination: per column, the
    first row at or below the rank with a one is swapped up and cleared from
    every other row. Columns go eight at a time, one byte of each row. The
    pivots of a block are found and swapped on its eight columns alone, held
    as one Python int per column (bit r for row r); then one table lookup
    per row clears the block from all rows at once ("method of four
    Russians"). Rows are ``words`` rows as :func:`pack_rows` gives them.
    """
    rows = words.shape[0]
    octets = words.view(np.uint8)
    rank = 0
    pivots = []
    for j0 in range(0, n, 8):
        if rank == rows:
            break
        top = rank
        bits = np.unpackbits(octets[top:, j0 >> 3, None], axis=1, bitorder="little")
        planes = np.packbits(bits, axis=0, bitorder="little")
        cols = [int.from_bytes(planes[:, b].tobytes(), "little") for b in range(8)]
        pos = []
        for b in range(min(8, n - j0)):
            i = rank - top
            below = cols[b] >> i
            if not below:
                continue
            p = i + (below & -below).bit_length() - 1
            if p != i:
                row = words[rank].copy()
                words[rank] = words[top + p]
                words[top + p] = row
                swap = 1 << i | 1 << p
                for c in range(b, 8):
                    if (cols[c] >> i ^ cols[c] >> p) & 1:
                        cols[c] ^= swap
            # clear column b below the pivot in the block's later columns;
            # the bits of rows up to the pivot are not read again here, and
            # _clear_block does the rows themselves
            for c in range(b + 1, 8):
                if cols[c] >> i & 1:
                    cols[c] ^= cols[b]
            pos.append(b)
            pivots.append(j0 + b)
            rank += 1
            if rank == rows:
                break
        if pos:
            _clear_block(words, octets[:, j0 >> 3], top, pos)
    return pivots


def _clear_block(words: np.ndarray, octet: np.ndarray, top: int, pos: list[int]) -> None:
    """Clear a block's pivot columns from all rows, reducing its pivot rows.

    The block's pivot rows are ``words[top:top + len(pos)]``, with pivot ``e``
    at bit ``pos[e]`` of each row's byte ``octet``; no row has been changed
    since the block began except by swaps. Every reduced row is its row at
    the block's start plus those reduced pivot rows whose pivot bit it had
    then, and every reduced pivot row is a sum of the block's starting pivot
    rows. All rows are zero left of the block except those above ``top``,
    which the pivot rows, being zero there, leave alone.
    """
    nb = len(pos)
    # masks[e]: which starting pivot rows sum to reduced pivot row e, found
    # by eliminating on the pivot rows' bytes in the order of the pivots
    reduced, masks = [], []
    for e, byte in enumerate(octet[top:top + nb].tolist()):
        mask = 1 << e
        for f in range(e):
            if byte >> pos[f] & 1:
                byte ^= reduced[f]
                mask ^= masks[f]
        for f in range(e):
            if reduced[f] >> pos[e] & 1:
                reduced[f] ^= byte
                masks[f] ^= mask
        reduced.append(byte)
        masks.append(mask)
    # sums[m]: the sum of the starting pivot rows in mask m
    sums = np.zeros((1 << nb, words.shape[1]), dtype=words.dtype)
    for e in range(nb):
        np.bitwise_xor(sums[:1 << e], words[top + e], out=sums[1 << e:2 << e])
    # clearing[v]: the mask that clears the pivot bits of a row whose byte is v
    mask_at = dict(zip(pos, masks))
    clearing = np.zeros(256, dtype=np.intp)
    for b in range(8):
        np.bitwise_xor(clearing[:1 << b], mask_at.get(b, 0), out=clearing[1 << b:2 << b])
    clear = clearing[octet]
    hit = np.flatnonzero(clear)
    if 2 * hit.size < clear.size:  # a sparse block: gather only the rows it changes
        for lo in range(0, hit.size, _CLEAR_ROWS):
            rows = hit[lo:lo + _CLEAR_ROWS]
            words[rows] ^= sums[clear[rows]]
    else:
        for lo in range(0, clear.size, _CLEAR_ROWS):
            words[lo:lo + _CLEAR_ROWS] ^= sums[clear[lo:lo + _CLEAR_ROWS]]
    words[top:top + nb] = sums[masks]


def invert(words: np.ndarray) -> np.ndarray | None:
    """Inverse of a square GF(2) matrix, both as :func:`pack_rows` rows, or
    None if singular.

    The augmented matrix [A | I] is A's words followed by bit k + i set in
    row i, reduced in place; the inverse's words are shifted out of its
    right half into an array of their own, so the result keeps no k x 2k
    buffer alive.
    """
    k = words.shape[0]
    width = (k + 63) // 64
    if words.shape != (k, width):
        raise ValueError("matrix must be square")
    aug = np.zeros((k, (2 * k + 63) // 64), dtype=np.uint64)
    aug[:, :width] = words
    eye = k + np.arange(k, dtype=np.uint64)
    aug[np.arange(k), eye >> np.uint64(6)] |= np.uint64(1) << (eye & np.uint64(63))
    if rref(aug, k) != list(range(k)):
        return None
    # bits k .. 2k-1 start at bit k % 64 of word k // 64; each word of the
    # inverse takes its top bits from the next word, where there is one
    q, s = divmod(k, 64)
    inverse = aug[:, q:q + width] >> np.uint64(s)
    if s:
        top = aug[:, q + 1:q + width + 1]
        inverse[:, :top.shape[1]] |= top << np.uint64(64 - s)
    return inverse


def matmul_mod2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b) mod 2 via float32 BLAS; exact while inner dim < 2**24."""
    if a.shape[-1] >= (1 << 24):
        raise ValueError("inner dimension too large for exact float32 parity")
    prod = np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
    return (prod.astype(np.int64) & 1).astype(np.uint8)
