import numpy as np
import pytest

from skagree.channels import SeededRng
from skagree.ldpc import FrameScrambler
from skagree.ldpc.gf2 import pack_rows, rref, unpack_rows


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


def _dense_key(k: int, seed: int):
    """The key drawn through dense arrays, as the reference: float uniforms
    below 1/2 until one candidate's identity-augmented matrix reduces to
    [I | inverse]."""
    rng = SeededRng(seed)
    while True:
        matrix = (rng.uniform((k, k)) < 0.5).astype(np.uint8)
        words = pack_rows(np.concatenate([matrix, np.eye(k, dtype=np.uint8)], axis=1))
        if rref(words, k) == list(range(k)):
            return matrix, unpack_rows(words, 2 * k)[:, k:]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 7, 63, 64, 65, 500])
def test_key_matches_dense_reference(k, seed):
    scr = FrameScrambler(k, seed)
    matrix, inverse = _dense_key(k, seed)
    assert scr.matrix.dtype == scr.inverse.dtype == np.uint8
    assert np.array_equal(scr.matrix, matrix)
    assert np.array_equal(scr.inverse, inverse)
    frames = SeededRng(seed + 10).bits((5, k))
    assert np.array_equal(scr.apply(frames), frames.astype(np.int64) @ matrix.T % 2)
    assert np.array_equal(scr.invert_bits(frames), frames.astype(np.int64) @ inverse.T % 2)
