import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
import weakref
from itertools import starmap
from pathlib import Path

import numpy as np
import pytest

import skagree
from skagree.channels import SeededRng
from skagree.ldpc import fer_ber_sim, peg_construct, security_gap
from skagree.ldpc.scramble import FrameScrambler
import skagree.ldpc.sim as sim_module
from skagree.ldpc.decoder import SumProductDecoder
from skagree.ldpc.modem import llrs_from_rx, qpsk_symbols
from skagree.ldpc.sim import FrameSimulator, wilson_halfwidth


@pytest.fixture(scope="module")
def small_code():
    return peg_construct(1024, 0.25, 3, SeededRng(77))


# three points across the small code's waterfall
_WATERFALL_DB = (-2.4, -1.9, -1.4)


def _frame_noise(rng: SeededRng, frames: int, n_symbols: int) -> np.ndarray:
    """Frame i's noise, drawn from ``rng.spawn(i)`` as the simulator draws it."""
    return np.array([rng.spawn(i).complex_normals(n_symbols) for i in range(frames)])


@pytest.mark.parametrize("snr_db", _WATERFALL_DB)
def test_all_zero_frames_match_the_codeword_pipeline(small_code, monkeypatch, snr_db):
    """``run_frames`` sends the all-zero word; the reference sends codewords.

    The reference is the pipeline the all-zero word replaces: messages are
    scrambled and encoded into codewords c, sent over the same per-frame
    noise (flipped with the signs s = 1 - 2c, so that their LLRs are
    s * y0 with y0 the all-zero block), decoded, read at the message
    positions, descrambled and compared with the messages. The erroneous
    frames' decisions, descrambled, cost the same bit errors.
    """
    snr, frames, max_iter, rng = 10 ** (snr_db / 10), 64, 100, SeededRng(21)
    sim = FrameSimulator(small_code)
    encoder = small_code.encoder()
    scrambler = FrameScrambler(encoder.k, 5)
    decoded = []
    inner = sim.decoder.decode_batch

    def spy(llrs, *args):
        decoded.append(llrs[np.arange(len(llrs))])
        return inner(llrs, *args)

    monkeypatch.setattr(sim.decoder, "decode_batch", spy)
    frame_errors, wrong_info = sim.run_frames(np.arange(frames), snr, max_iter, rng)
    monkeypatch.undo()
    (y0,) = decoded
    assert 0 < frame_errors.sum() < frames

    messages = SeededRng(31).bits((frames, encoder.k))
    words = encoder.encode_batch(scrambler.apply(messages))
    signs = 1.0 - 2.0 * words
    noise = _frame_noise(rng, frames, sim.n_symbols)
    noise = signs[:, 0::2] * noise.real + 1j * signs[:, 1::2] * noise.imag
    y_c = llrs_from_rx(qpsk_symbols(words, snr) + noise, snr, small_code.n)
    assert np.array_equal(y_c, signs * y0)
    bits, _, _ = sim.decoder.decode_batch(y_c, max_iter)
    recovered = scrambler.invert_bits(bits[:, encoder.info_cols])
    ref_bit_errors = np.sum(recovered != messages, axis=1)
    assert np.array_equal(frame_errors, ref_bit_errors > 0)
    bit_errors = np.count_nonzero(scrambler.invert_bits(wrong_info), axis=1)
    assert np.array_equal(bit_errors, ref_bit_errors[frame_errors])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("snr_db", _WATERFALL_DB)
def test_decoder_is_sign_symmetric(small_code, dtype, snr_db):
    """decode(y) XOR c == decode(y * (1 - 2c)) on bits, flags and iterations:
    the symmetry that lets the simulator send only the all-zero word."""
    snr, frames, max_iter, rng = 10 ** (snr_db / 10), 64, 100, SeededRng(22)
    encoder = small_code.encoder()
    words = encoder.encode_batch(SeededRng(32).bits((frames, encoder.k)))
    noise = _frame_noise(rng, frames, (small_code.n + 1) // 2)
    y = llrs_from_rx(qpsk_symbols(words, snr) + noise, snr, small_code.n)
    decoder = SumProductDecoder(small_code, dtype=dtype)
    bits, converged, iterations = decoder.decode_batch(y, max_iter)
    zero_bits, zero_converged, zero_iterations = decoder.decode_batch(
        y * (1.0 - 2.0 * words), max_iter)
    assert 0 < zero_converged.sum() < frames
    assert np.array_equal(bits ^ words, zero_bits)
    assert np.array_equal(converged, zero_converged)
    assert np.array_equal(iterations, zero_iterations)


def _spy_invert_bits(monkeypatch):
    """Every block ``FrameScrambler.invert_bits`` returns, in call order."""
    descrambled = []
    inner = FrameScrambler.invert_bits

    def spy(self, bits):
        descrambled.append(inner(self, bits))
        return descrambled[-1]

    monkeypatch.setattr(FrameScrambler, "invert_bits", spy)
    return descrambled


def _spy_key_draws(monkeypatch):
    """The args of every key drawn."""
    draws = []
    inner = FrameScrambler.__init__

    def spy(self, *args):
        draws.append(args)
        inner(self, *args)

    monkeypatch.setattr(FrameScrambler, "__init__", spy)
    return draws


def test_run_frames_counts_errors_behind_the_descrambler(small_code, monkeypatch):
    """Decoded bits are the error pattern: parity errors are no frame error,
    and one wrong message bit j costs the weight of column j of S^-1."""
    sim = FrameSimulator(small_code)
    encoder = small_code.encoder()
    info, parity = encoder.info_cols, encoder.pivot_cols
    flipped = [0, 7, encoder.k - 1]
    patterns = np.zeros((2 + len(flipped), small_code.n), dtype=np.uint8)
    patterns[1, parity[::3]] = 1
    for row, j in enumerate(flipped, start=2):
        patterns[row, info[j]] = 1

    def stub(self, llrs, max_iter):
        assert llrs[np.arange(len(llrs))].shape == patterns.shape
        count = len(patterns)
        return patterns, np.zeros(count, dtype=bool), np.full(count, max_iter)

    monkeypatch.setattr(SumProductDecoder, "decode_batch", stub)
    frame_errors, wrong_info = sim.run_frames(
        np.arange(len(patterns)), 1.0, 10, SeededRng(23))
    assert frame_errors.tolist() == [False, False] + [True] * len(flipped)
    assert np.array_equal(wrong_info, np.eye(encoder.k, dtype=np.uint8)[flipped])

    descrambled = _spy_invert_bits(monkeypatch)
    est = fer_ber_sim(small_code, 1.0, len(patterns), len(patterns), 10, SeededRng(23))
    weights = FrameScrambler(encoder.k, 23).inverse[:, flipped].sum(axis=0)
    assert np.all(weights > 0)
    assert np.count_nonzero(np.concatenate(descrambled), axis=1).tolist() == weights.tolist()
    assert (est.frames, est.frame_errors) == (len(patterns), len(flipped))
    assert est.bit_errors == weights.sum()


def test_far_above_threshold_fer_is_small(small_code):
    # +3 dB over the ensemble threshold (~-2 dB)
    est = fer_ber_sim(
        small_code, 10 ** (0.1), max_frames=1000, target_frame_errors=1000,
        max_iter=60, rng=SeededRng(1),
    )
    assert est.fer < 1e-2
    assert est.frames == 1000


def test_fer_monotone_in_snr(small_code):
    grid_db = [-3.0, -2.0, -1.0, 0.0]
    fers = []
    for snr_db in grid_db:
        est = fer_ber_sim(
            small_code, 10 ** (snr_db / 10), max_frames=400,
            target_frame_errors=400, max_iter=40, rng=SeededRng(2),
        )
        fers.append((est.fer, est.confidence_halfwidth))
    for (f_lo, hw_lo), (f_hi, hw_hi) in zip(fers[:-1], fers[1:]):
        assert f_hi <= f_lo + hw_lo + hw_hi


def test_eavesdropper_ber_half_when_fer_saturates(small_code):
    est = fer_ber_sim(
        small_code, 10 ** (-0.5), max_frames=200, target_frame_errors=200,
        max_iter=30, rng=SeededRng(3),
    )
    assert est.fer > 0.99
    assert 0.45 < est.ber < 0.55


def test_early_stop_at_target_errors(small_code):
    est = fer_ber_sim(
        small_code, 10 ** (-0.45), max_frames=5000, target_frame_errors=10,
        max_iter=30, rng=SeededRng(4),
    )
    assert est.frame_errors >= 10
    assert est.frames < 5000
    # stop frame is the first prefix reaching the target
    assert est.frame_errors == 10 or est.frames % 128 == 0


def _spy_run_frames(monkeypatch):
    decoded = []
    inner = FrameSimulator.run_frames

    def spy(self, frame_ids, *args):
        decoded.extend(int(i) for i in frame_ids)
        return inner(self, frame_ids, *args)

    monkeypatch.setattr(FrameSimulator, "run_frames", spy)
    return decoded


def test_early_stop_decodes_no_frame_past_the_stop(small_code, monkeypatch):
    # at -10 dB every frame fails, so the stop is at frame 40
    decoded = _spy_run_frames(monkeypatch)
    kwargs = dict(max_frames=300, target_frame_errors=40, max_iter=5)
    est = fer_ber_sim(small_code, 10 ** (-1.0), rng=SeededRng(12), **kwargs)
    assert est.frames == est.frame_errors == 40
    assert sorted(decoded) == list(range(40))
    monkeypatch.undo()
    monkeypatch.setattr(sim_module, "_BATCH", 1)
    assert est == fer_ber_sim(small_code, 10 ** (-1.0), rng=SeededRng(12), **kwargs)


def test_early_stop_result_is_the_stopping_prefix(small_code, monkeypatch):
    decoded = _spy_run_frames(monkeypatch)
    kwargs = dict(max_frames=300, target_frame_errors=40, max_iter=30)
    est = fer_ber_sim(small_code, 10 ** (-0.15), rng=SeededRng(12), **kwargs)
    assert est.frame_errors == 40 and est.frames < 300
    assert sorted(decoded) == list(range(len(decoded)))
    assert len(decoded) >= est.frames
    monkeypatch.undo()
    monkeypatch.setattr(sim_module, "_BATCH", 1)
    assert est == fer_ber_sim(small_code, 10 ** (-0.15), rng=SeededRng(12), **kwargs)


class _InlineExecutor:
    """Stands in for the process pool: runs the initializer and the tasks
    inline, recording each round's chunk sizes and each task's pickled
    bytes."""

    rounds: list = []
    task_bytes: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks, *rest):
        self.rounds.append([len(ids) for ids in chunks])
        tasks = list(zip(chunks, *rest))
        self.task_bytes.extend(len(pickle.dumps((fn, *task))) for task in tasks)
        return starmap(fn, tasks)


def _inline_pool(monkeypatch):
    monkeypatch.setattr(_InlineExecutor, "rounds", [])
    monkeypatch.setattr(_InlineExecutor, "task_bytes", [])
    monkeypatch.setattr(sim_module._futures, "ProcessPoolExecutor", _InlineExecutor)
    # the inline initializer installs the simulator in this process
    monkeypatch.setattr(sim_module, "_worker_sim", None)


@pytest.mark.parametrize("target", [40, 1000])
def test_rounds_split_evenly_over_workers(small_code, monkeypatch, target):
    _inline_pool(monkeypatch)
    monkeypatch.setattr(sim_module, "_BATCH", 16)
    kwargs = dict(max_frames=300, target_frame_errors=target, max_iter=30)
    est = fer_ber_sim(
        small_code, 10 ** (-0.15), rng=SeededRng(13), workers=3, **kwargs
    )
    rounds = _InlineExecutor.rounds
    assert len(rounds) > 1
    for sizes in rounds:
        assert len(sizes) == min(3, sum(sizes))
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= 16
    monkeypatch.undo()
    monkeypatch.setattr(sim_module, "_BATCH", 16)
    assert est == fer_ber_sim(small_code, 10 ** (-0.15), rng=SeededRng(13), **kwargs)


def test_pooled_task_carries_no_simulator(small_code, monkeypatch):
    """A pooled task pickles its frame indices, SNR, max_iter and rng only;
    the simulator reaches each worker once, through the initializer."""
    _inline_pool(monkeypatch)
    kwargs = dict(max_frames=64, target_frame_errors=64, max_iter=25)
    est = fer_ber_sim(small_code, 10 ** (-0.2), rng=SeededRng(7), workers=2, **kwargs)
    assert len(_InlineExecutor.task_bytes) == 2
    assert max(_InlineExecutor.task_bytes) < 4096
    assert isinstance(sim_module._worker_sim, FrameSimulator)
    monkeypatch.undo()
    assert est == fer_ber_sim(small_code, 10 ** (-0.2), rng=SeededRng(7), **kwargs)


def test_pool_workers_draw_no_key(small_code, monkeypatch):
    """The key is drawn in the calling process, outside every task, and the
    simulator the initializer installs holds none."""
    _inline_pool(monkeypatch)
    draws = _spy_key_draws(monkeypatch)
    inner = FrameSimulator.run_frames

    def task(self, *args):
        before = len(draws)
        result = inner(self, *args)
        assert len(draws) == before
        return result

    monkeypatch.setattr(FrameSimulator, "run_frames", task)
    est = fer_ber_sim(small_code, 10 ** (-0.2), 64, 64, 25, SeededRng(7), workers=2)
    assert est.frame_errors > 0
    assert draws == [(small_code.encoder().k, 7)]
    installed = vars(sim_module._worker_sim).values()
    assert not any(isinstance(value, FrameScrambler) for value in installed)


def test_pickled_simulator_is_smaller_than_the_unpacked_parity_map():
    """The pool initializer pickles the simulator to each worker; it holds
    the decoder and the message positions, not H or the encoder, so it
    pickles to less than the rank x k bytes of the unpacked parity map."""
    code = peg_construct(2000, 0.25, 3, SeededRng(99).spawn(0))
    payload = pickle.dumps(FrameSimulator(code))
    assert b"ParityCheckMatrix" not in payload and b"Gf2Encoder" not in payload
    assert len(payload) < code.encoder().rank * code.encoder().k


def test_pooled_path_under_spawn_matches_serial(small_code):
    """Under ``spawn`` (the default on macOS and Windows) the initializer's
    simulator is pickled to each worker; the estimate is the serial one."""
    src = str(Path(skagree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import multiprocessing\n"
        "from skagree.channels import SeededRng\n"
        "from skagree.ldpc import fer_ber_sim, peg_construct\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    h = peg_construct(1024, 0.25, 3, SeededRng(77))\n"
        "    print(repr(fer_ber_sim(h, 10 ** (-0.2), 64, 64, 25, SeededRng(7), workers=2)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    serial = fer_ber_sim(small_code, 10 ** (-0.2), 64, 64, 25, SeededRng(7))
    assert out.stdout.strip() == repr(serial)


def test_point_without_frame_errors_draws_no_key(small_code, monkeypatch):
    draws = _spy_key_draws(monkeypatch)
    est = fer_ber_sim(small_code, 10 ** 0.1, 64, 64, 60, SeededRng(33))
    assert est.frames == 64
    assert est.frame_errors == est.bit_errors == 0
    assert draws == []


def test_descrambles_only_the_stopping_prefix_errors(small_code, monkeypatch):
    """Frames decoded past the stop are not descrambled."""
    flags = []
    inner = FrameSimulator.run_frames

    def spy(self, *args):
        wrong, info = inner(self, *args)
        flags.extend(wrong)
        return wrong, info

    monkeypatch.setattr(FrameSimulator, "run_frames", spy)
    descrambled = _spy_invert_bits(monkeypatch)
    kwargs = dict(max_frames=300, target_frame_errors=40, max_iter=30)
    est = fer_ber_sim(small_code, 10 ** (-0.15), rng=SeededRng(12), **kwargs)
    assert est.frame_errors == 40 and sum(flags) > est.frame_errors
    assert sum(len(rows) for rows in descrambled) == est.frame_errors


def test_no_key_outlives_its_call(small_code, monkeypatch):
    """A call draws its key once, however many rounds descramble, and no
    reference to it is left when the call returns."""
    keys = []
    inner = FrameScrambler.__init__

    def spy(self, *args):
        keys.append(weakref.ref(self))
        inner(self, *args)

    monkeypatch.setattr(FrameScrambler, "__init__", spy)
    descrambled = _spy_invert_bits(monkeypatch)
    kwargs = dict(max_frames=300, target_frame_errors=40, max_iter=30)
    est = fer_ber_sim(small_code, 10 ** (-0.15), rng=SeededRng(12), **kwargs)
    assert est.frame_errors == 40 and len(descrambled) > 1 and len(keys) == 1
    gc.collect()
    assert keys[0]() is None


def test_deterministic_given_seed(small_code):
    kwargs = dict(
        max_frames=100, target_frame_errors=100, max_iter=25,
    )
    a = fer_ber_sim(small_code, 10 ** (-0.2), rng=SeededRng(5), **kwargs)
    b = fer_ber_sim(small_code, 10 ** (-0.2), rng=SeededRng(5), **kwargs)
    assert a == b


def test_batch_size_does_not_change_result(small_code, monkeypatch):
    monkeypatch.setattr(sim_module, "_BATCH", 32)
    a = fer_ber_sim(small_code, 10 ** (-0.2), 96, 96, 25, SeededRng(6))
    monkeypatch.setattr(sim_module, "_BATCH", 96)
    b = fer_ber_sim(small_code, 10 ** (-0.2), 96, 96, 25, SeededRng(6))
    assert a == b


def test_worker_count_does_not_change_result(small_code):
    a = fer_ber_sim(small_code, 10 ** (-0.2), 64, 64, 25, SeededRng(7), workers=1)
    b = fer_ber_sim(small_code, 10 ** (-0.2), 64, 64, 25, SeededRng(7), workers=2)
    assert a == b
    # the call's pool and its workers end with it
    assert multiprocessing.active_children() == []


def test_streams_of_one_seed_draw_different_frames(small_code, monkeypatch):
    """Frame i comes from ``rng.spawn(i)`` of the rng given, stream and all:
    two streams of one seed decode different frames under one scrambler
    key, and the same stream decodes the same frames again."""
    received = []
    inner = SumProductDecoder.decode_batch

    def spy(self, llrs, *args):
        received.append(llrs[np.arange(len(llrs))])
        return inner(self, llrs, *args)

    monkeypatch.setattr(SumProductDecoder, "decode_batch", spy)
    draws = _spy_key_draws(monkeypatch)
    kwargs = dict(max_frames=8, target_frame_errors=8, max_iter=5)
    for rng in (SeededRng(7).spawn(1), SeededRng(7).spawn(2), SeededRng(7).spawn(1)):
        assert fer_ber_sim(small_code, 10 ** (-0.15), rng=rng, **kwargs).frame_errors > 0
    assert draws == [(small_code.encoder().k, 7)] * 3
    first, second, again = received
    assert first.shape == second.shape == (8, small_code.n)
    assert not np.any(np.all(first == second, axis=1))
    assert np.array_equal(first, again)


def test_worker_processes_draw_from_the_given_stream(small_code):
    kwargs = dict(max_frames=64, target_frame_errors=64, max_iter=25)
    rng = SeededRng(7).spawn(1)
    pooled = fer_ber_sim(small_code, 10 ** (-0.2), rng=rng, workers=2, **kwargs)
    assert pooled == fer_ber_sim(small_code, 10 ** (-0.2), rng=rng, **kwargs)
    other = fer_ber_sim(small_code, 10 ** (-0.2), rng=SeededRng(7).spawn(2), **kwargs)
    assert 0 < pooled.frame_errors < 64
    assert other.bit_errors != pooled.bit_errors


def test_wilson_halfwidth_known_value():
    # 5 errors in 100 trials, z = 1.96: standard Wilson interval
    hw = wilson_halfwidth(5, 100)
    assert abs(hw - 0.0436) < 5e-3
    assert wilson_halfwidth(0, 0) == 1.0


def test_security_gap_relaxed_targets(small_code):
    result = security_gap(
        small_code, fer_reliable=0.05, fer_secure=0.8, rng=SeededRng(8),
        step_db=0.25, max_frames=400, target_frame_errors=60, max_iter=40,
    )
    assert result.gap_db > 0
    assert result.reliable_snr_db > result.secure_snr_db
    assert result.gap_db < 3.0
    assert len(result.points) >= 2


def test_security_gap_computes_de_centre_once_per_profile(small_code, monkeypatch):
    calls = []
    inner = sim_module.decoding_threshold

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sim_module, "decoding_threshold", counting)
    sim_module._de_center_db.cache_clear()
    kwargs = dict(fer_reliable=0.1, fer_secure=0.9, step_db=1.0, max_frames=64,
                  target_frame_errors=32, max_iter=30)
    try:
        cold = security_gap(small_code, rng=SeededRng(8), **kwargs)
        warm = security_gap(small_code, rng=SeededRng(8), **kwargs)
    finally:
        sim_module._de_center_db.cache_clear()
    assert len(calls) == 1
    # the same points, gap and crossings
    assert cold == warm


def test_security_gap_rejects_degenerate_targets(small_code):
    with pytest.raises(ValueError):
        security_gap(small_code, 0.5, 0.5, SeededRng(9))


@pytest.mark.parametrize("step_db", [1e-300, 1e-320, 0.0, -0.2, float("nan")])
def test_security_gap_rejects_a_step_that_cannot_move_the_snr(small_code, monkeypatch, step_db):
    """A step that is not positive, spans the walk in no finite number of
    steps or rounds away at the DE center is refused before any frame is
    decoded."""
    def decoded(*args, **kwargs):
        raise AssertionError("a frame was decoded")

    monkeypatch.setattr(sim_module, "fer_ber_sim", decoded)
    with pytest.raises(ValueError, match="step_db"):
        security_gap(small_code, 0.05, 0.8, SeededRng(9), step_db=step_db)


def test_invalid_frame_counts(small_code):
    with pytest.raises(ValueError):
        fer_ber_sim(small_code, 1.0, 0, 1, 10, SeededRng(0))
