"""Bit-packed GF(2) linear algebra for encoder derivation and scrambling."""

from __future__ import annotations

import numpy as np

# rows a block clear updates at a time; their gathered sums are the clear's
# only temporary, 0.3 MiB at n=10000 where the packed rows take 9 MiB
_CLEAR_ROWS = 256
# rows of M that one step of :func:`mul` unpacks and casts to float32
_MUL_ROWS = 128


def zeros(rows: int, n: int) -> np.ndarray:
    """``rows`` packed rows of ``n`` zero bits, the layout of every packed row
    here: bit j at bit j % 64 of uint64 word j // 64, ceil(n / 64) words."""
    return np.zeros((rows, (n + 63) // 64), dtype=np.uint64)


def set_ones(words: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bit ``cols[e]`` of packed row ``rows[e]`` for every e, in place."""
    np.bitwise_or.at(words.view(np.uint8), (rows, cols >> 3),
                     (1 << (cols & 7)).astype(np.uint8))


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, n) 0/1 matrix into :func:`zeros` rows."""
    bits = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = zeros(*bits.shape)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


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

    The augmented matrix [A | I] is A's words followed by I's, which start
    on a word of their own, reduced in place; the inverse is the copied
    right half, so the result keeps no k x 2k buffer alive.
    """
    k = words.shape[0]
    width = (k + 63) // 64
    if words.shape != (k, width):
        raise ValueError("matrix must be square")
    aug = zeros(k, 64 * width + k)
    aug[:, :width] = words
    set_ones(aug, np.arange(k), np.arange(64 * width, 64 * width + k))
    if rref(aug, k) != list(range(k)):
        return None
    return aug[:, width:].copy()


def mul(bits: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """(bits @ M.T) mod 2 as uint8, for (batch, n) 0/1 ``bits`` and the
    packed rows ``words`` of M, of which ``_MUL_ROWS`` rows at a time are
    unpacked and cast to float32; float32 sums are exact while n < 2**24."""
    if n >= 1 << 24:
        raise ValueError("inner dimension too large for exact float32 parity")
    frames = np.asarray(bits, dtype=np.float32)
    out = np.empty((frames.shape[0], words.shape[0]), dtype=np.uint8)
    for j in range(0, words.shape[0], _MUL_ROWS):
        # no block outlives its step
        prod = frames @ unpack_rows(words[j:j + _MUL_ROWS], n).T.astype(np.float32)
        out[:, j:j + _MUL_ROWS] = prod.astype(np.int64) & 1
    return out
