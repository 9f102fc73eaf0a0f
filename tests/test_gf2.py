import numpy as np
import pytest

import skagree.ldpc.gf2 as gf2
from skagree.ldpc.gf2 import invert, pack_rows, rref, unpack_rows


def reference_rref(bits: np.ndarray, n: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Plain Gauss-Jordan elimination over GF(2), one row at a time.

    Pivots are sought in the first ``n`` columns (all by default); row
    operations act on whole rows.
    """
    a = np.array(bits, dtype=np.uint8) & 1
    rows = a.shape[0]
    n = a.shape[1] if n is None else n
    r = 0
    pivots = []
    for j in range(n):
        if r == rows:
            break
        below = np.flatnonzero(a[r:, j])
        if below.size == 0:
            continue
        p = r + int(below[0])
        a[[r, p]] = a[[p, r]]
        for i in range(rows):
            if i != r and a[i, j]:
                a[i] ^= a[r]
        pivots.append(j)
        r += 1
    return a, pivots


def _matrices():
    """(name, matrix) pairs: random, sparse, rectangular and rank-deficient."""
    rng = np.random.default_rng(5)
    cases = [
        ("random-40x40", rng.integers(0, 2, (40, 40))),
        ("random-70x200", rng.integers(0, 2, (70, 200))),
        ("tall-150x67", rng.integers(0, 2, (150, 67))),
        ("sparse-90x130", (rng.random((90, 130)) < 0.03).astype(np.uint8)),
        ("zero-5x70", np.zeros((5, 70), dtype=np.uint8)),
    ]
    # rank 30 in a 100 x 140 matrix: products of random factors
    low = rng.integers(0, 2, (100, 30)) @ rng.integers(0, 2, (30, 140)) % 2
    cases.append(("rank-deficient-100x140", low))
    # repeated rows and an all-zero column block past the first word
    rep = rng.integers(0, 2, (64, 129))
    rep[32:] = rep[:32]
    rep[:, 64:100] = 0
    cases.append(("repeated-rows-64x129", rep))
    # rows run out inside the first eight-column block
    cases.append(("random-3x20", rng.integers(0, 2, (3, 20))))
    # rank 6 over 61 columns: most blocks have one pivot or none
    thin = rng.integers(0, 2, (200, 6)) @ rng.integers(0, 2, (6, 61)) % 2
    cases.append(("rank-6-200x61", thin))
    # every pivot needs a swap from far below
    cases.append(("permuted-identity-90x90", np.eye(90, dtype=np.uint8)[rng.permutation(90)]))
    return [(name, np.asarray(m, dtype=np.uint8)) for name, m in cases]


MATRICES = _matrices()


@pytest.mark.parametrize("name,bits", MATRICES, ids=[name for name, _ in MATRICES])
def test_rref_matches_reference(name, bits):
    expected, expected_pivots = reference_rref(bits)
    words = pack_rows(bits)
    pivots = rref(words, bits.shape[1])
    assert pivots == expected_pivots
    assert np.array_equal(unpack_rows(words, bits.shape[1]), expected)


def test_rref_clears_in_row_chunks(monkeypatch):
    """Block clears three rows at a time, in the sparse and the dense form,
    give the reference result on every matrix."""
    monkeypatch.setattr(gf2, "_CLEAR_ROWS", 3)
    for _, bits in MATRICES:
        expected, expected_pivots = reference_rref(bits)
        words = pack_rows(bits)
        assert rref(words, bits.shape[1]) == expected_pivots
        assert np.array_equal(unpack_rows(words, bits.shape[1]), expected)


def _square(rng, k, singular):
    while True:
        a = rng.integers(0, 2, (k, k)).astype(np.uint8)
        if singular:
            a[-1] = a[0] ^ a[1]
        if (len(reference_rref(a)[1]) < k) == singular:
            return a


@pytest.mark.parametrize("k", [1, 7, 63, 64, 65, 127, 128, 129, 130])
def test_invert_matches_reference(k):
    rng = np.random.default_rng(k)
    a = _square(rng, k, singular=False)
    packed = invert(pack_rows(a))
    assert packed.shape == (k, (k + 63) // 64)
    inv = unpack_rows(packed, k)
    # the padding bits past column k are zero, as pack_rows leaves them
    assert np.array_equal(packed, pack_rows(inv))
    augmented = np.concatenate([a, np.eye(k, dtype=np.uint8)], axis=1)
    assert np.array_equal(inv, reference_rref(augmented, k)[0][:, k:])
    assert np.array_equal(a.astype(np.int64) @ inv % 2, np.eye(k, dtype=np.int64))


@pytest.mark.parametrize("k", [2, 65, 130])
def test_invert_singular(k):
    a = _square(np.random.default_rng(100 + k), k, singular=True)
    assert invert(pack_rows(a)) is None
    # the singular augmented matrix still reduces as the reference does
    augmented = np.concatenate([a, np.eye(k, dtype=np.uint8)], axis=1)
    expected, expected_pivots = reference_rref(augmented, k)
    words = pack_rows(augmented)
    assert rref(words, k) == expected_pivots
    assert np.array_equal(unpack_rows(words, 2 * k), expected)


@pytest.mark.parametrize("rows", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_mul_matches_dense_product(rows, n):
    """The product over packed rows, which unpacks 128 rows of M a step,
    is the dense (bits @ M.T) mod 2 for every batch size."""
    rng = np.random.default_rng(rows * 1000 + n)
    dense = rng.integers(0, 2, (rows, n), dtype=np.uint8)
    words = pack_rows(dense)
    for batch in (0, 1, 5):
        bits = rng.integers(0, 2, (batch, n), dtype=np.uint8)
        out = gf2.mul(bits, words, n)
        assert out.dtype == np.uint8 and out.shape == (batch, rows)
        assert np.array_equal(out, bits.astype(np.int64) @ dense.T % 2)


def test_mul_refuses_an_inexact_inner_dimension():
    n = 1 << 24
    with pytest.raises(ValueError, match="inner dimension"):
        gf2.mul(np.zeros((0, n), dtype=np.uint8), gf2.zeros(0, n), n)


def test_set_ones_matches_pack_rows():
    """Ones that share a byte, a word boundary or a position (set twice)
    all land, and no other bit does."""
    rows = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
    cols = np.array([0, 1, 2, 7, 63, 64, 65, 5, 5, 129])
    words = gf2.zeros(3, 130)
    gf2.set_ones(words, rows, cols)
    dense = np.zeros((3, 130), dtype=np.uint8)
    dense[rows, cols] = 1
    assert np.array_equal(words, pack_rows(dense))
