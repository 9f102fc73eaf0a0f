import collections
import itertools

import numpy as np
import pytest

from skagree.channels import SeededRng
from skagree.ldpc import FrameScrambler, scramble


def test_round_trip_identity():
    rng = SeededRng(1)
    scr = FrameScrambler(1000, seed=42)
    for trial in range(5):
        block = rng.bits((1, 1000))
        assert np.array_equal(scr.invert_bits(scr.apply(block)), block)


def test_zero_block_round_trip():
    zero = np.zeros((1, 64), dtype=np.uint8)
    scr = FrameScrambler(64, seed=3)
    assert not scr.invert_bits(scr.apply(zero)).any()


def test_scrambling_actually_permutes_content():
    block = SeededRng(2).bits((1, 256))
    assert not np.array_equal(FrameScrambler(256, seed=7).apply(block), block)


def test_single_error_avalanche():
    # one flipped bit in the scrambled domain lands near 50% errors after
    # descrambling, averaged over positions
    k = 600
    scr = FrameScrambler(k, seed=11)
    rng = SeededRng(12)
    fractions = []
    for _ in range(1000):
        msg = rng.bits((1, k))
        coded = scr.apply(msg)
        pos = int(rng.uniform() * k)
        coded[0, pos] ^= 1
        back = scr.invert_bits(coded)
        fractions.append(np.mean(back != msg))
    mean_fraction = float(np.mean(fractions))
    assert 0.45 < mean_fraction < 0.55


def test_matrix_invertibility():
    scr = FrameScrambler(128, seed=5)
    prod = (scr.matrix.astype(int) @ scr.inverse.astype(int)) % 2
    assert np.array_equal(prod, np.eye(128, dtype=int))


def test_frames_come_in_batches():
    scr = FrameScrambler(64, seed=3)
    for bad in (np.zeros(64, dtype=np.uint8), np.zeros((1, 63), dtype=np.uint8)):
        with pytest.raises(ValueError, match=r"expected \(batch, 64\) frames"):
            scr.apply(bad)


def test_different_seeds_different_maps():
    block = SeededRng(3).bits((1, 128))
    assert not np.array_equal(
        FrameScrambler(128, seed=1).apply(block), FrameScrambler(128, seed=2).apply(block)
    )


def _raw_bits(words, k: int) -> np.ndarray:
    """The first k bits of each row of raw words, ceil(k / 64) words a row,
    bit b of word j being column 64 j + b."""
    rows = np.asarray(words, dtype=np.uint64).reshape(-1, (k + 63) // 64)
    bits = (rows[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(rows.shape[0], -1)[:, :k].astype(np.uint8)


def _dense_key(k: int, seed: int) -> np.ndarray:
    """The key's inverse D = L C drawn through dense 0/1 arrays, as the
    reference: L's raw rows cut to their bits below the diagonal, with the
    diagonal set, and C's raw rows cut to the coordinates no earlier row
    has taken as its pivot (its first set bit), drawn again while empty."""
    rng = SeededRng(seed)
    w = (k + 63) // 64
    lower = np.tril(_raw_bits(rng.words(k * w), k), -1) | np.eye(k, dtype=np.uint8)
    candidates = _raw_bits(rng.words(k * w), k)
    free = np.ones(k, dtype=np.uint8)
    pivoted = np.zeros((k, k), dtype=np.uint8)
    for i in range(k):
        row = candidates[i] & free
        while not row.any():
            row = _raw_bits(rng.words(w), k)[0] & free
        free[np.argmax(row)] = 0
        pivoted[i] = row
    return lower.astype(np.int64) @ pivoted % 2


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 7, 63, 64, 65, 500])
def test_key_matches_dense_reference(k, seed):
    scr = FrameScrambler(k, seed)
    inverse = _dense_key(k, seed)
    assert scr.matrix.dtype == scr.inverse.dtype == np.uint8
    assert np.array_equal(scr.inverse, inverse)
    matrix = scr.matrix.astype(np.int64)
    assert np.array_equal(matrix @ inverse % 2, np.eye(k, dtype=np.int64))
    frames = SeededRng(seed + 10).bits((5, k))
    assert np.array_equal(scr.apply(frames), frames.astype(np.int64) @ matrix.T % 2)
    assert np.array_equal(scr.invert_bits(frames), frames.astype(np.int64) @ inverse.T % 2)


def test_seed_1_at_k_2_draws_a_row_of_c_again(monkeypatch):
    """Seed 1's candidate row 1 of C has no bit on the coordinate row 0
    leaves it, so the draw takes one more word for that row."""
    counts = []
    words = SeededRng.words
    monkeypatch.setattr(SeededRng, "words",
                        lambda self, count: counts.append(count) or words(self, count))
    scr = FrameScrambler(2, seed=1)
    assert counts == [2, 2, 1]
    assert np.array_equal(scr.inverse, _dense_key(2, 1))


class _FedWords:
    """A stand-in for the scrambler's ``SeededRng`` whose ``words`` serves a
    fixed list of raw words, and no more."""

    def __init__(self, words):
        self.left = list(words)

    def words(self, count):
        assert count <= len(self.left), "the draw asked for a word not fed"
        taken, self.left = self.left[:count], self.left[count:]
        return np.array(taken, dtype=np.uint64)


def _invertible(k: int) -> set[bytes]:
    """Every element of GL(k, 2), as the bytes of a 0/1 uint8 matrix: no
    nonzero vector in its kernel."""
    vectors = _raw_bits(np.arange(1, 1 << k), k).T.astype(np.int64)
    out = set()
    for entries in itertools.product((0, 1), repeat=k * k):
        m = np.array(entries, dtype=np.uint8).reshape(k, k)
        if (m @ vectors % 2).any(axis=0).all():
            out.add(m.tobytes())
    return out


_ONES = (1 << 64) - 1


def _retry_free_rows(k: int, free: int):
    """Every sequence of C's raw rows, padding bits set, in which each row
    has a bit on the coordinates ``free`` that earlier rows leave it."""
    if not free:
        yield []
        return
    for value in range(1 << k):
        if value & free:
            pivot = value & free & -(value & free)
            for rest in _retry_free_rows(k, free ^ pivot):
                yield [value | (_ONES ^ ((1 << k) - 1))] + rest


@pytest.mark.parametrize("k, size", [(1, 1), (2, 6), (3, 168)])
def test_every_invertible_key_is_drawn_equally_often(k, size, monkeypatch):
    """Fed every pattern of L's bits below the diagonal (its bits at and
    above it all set) and every sequence of C's raw rows that needs no
    second draw, the scrambler makes each element of GL(k, 2) equally
    often, and nothing else."""
    fed = {}
    monkeypatch.setattr(scramble, "SeededRng", lambda seed: fed["rng"])
    counts = collections.Counter()
    for below in itertools.product(range(2), repeat=k * (k - 1) // 2):
        bits = iter(below)
        lower = [sum(next(bits) << j for j in range(i)) | (_ONES ^ ((1 << i) - 1))
                 for i in range(k)]
        for rows in _retry_free_rows(k, (1 << k) - 1):
            fed["rng"] = _FedWords(lower + rows)
            counts[FrameScrambler(k, seed=0).inverse.tobytes()] += 1
            assert not fed["rng"].left
    assert set(counts) == _invertible(k)
    assert len(counts) == size
    assert len(set(counts.values())) == 1
