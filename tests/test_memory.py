"""Working sets of the LDPC path's GF(2) and frame-batch steps.

``tracemalloc`` sees numpy's array buffers, so a step's traced peak is the
most memory its arrays held at once. Each bound sits below what the step's
dense form needs.
"""

import tracemalloc

import numpy as np
import pytest

from skagree.channels import SeededRng
from skagree.ldpc import FrameScrambler, derive_encoder, peg_construct
from skagree.ldpc.modem import qpsk_symbols
from skagree.ldpc.sim import FrameSimulator


def _traced_peak(fn):
    """fn's result and the peak bytes allocated above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_derive_encoder_stays_below_one_dense_copy_of_h():
    """Dense derivation held several m x n byte arrays (6.9 MiB at n=2000);
    packed rows need about m * n / 8 bytes."""
    h = peg_construct(2000, 0.25, 3, SeededRng(99).spawn(0))
    m, n = h.shape
    _, peak = _traced_peak(lambda: derive_encoder(h))
    assert peak < m * n


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scrambler_draw_stays_below_six_bytes_per_entry(seed):
    """A float64 draw alone takes 8 bytes per entry; the key is two k x k
    byte matrices, each owning its buffer."""
    k = 500
    scr, peak = _traced_peak(lambda: FrameScrambler(k, seed))
    assert peak < 6 * k * k
    assert scr.matrix.flags.owndata and scr.inverse.flags.owndata


def _dense_run_frames(sim, frame_ids, snr_lambda, max_iter, rng):
    """``run_frames`` with separate noise, received-symbol and LLR arrays,
    the reference for the one-buffer batch."""
    noise = np.empty((len(frame_ids), sim.n_symbols), dtype=complex)
    for row, frame in enumerate(frame_ids):
        noise[row] = rng.spawn(int(frame)).complex_normals(sim.n_symbols)
    rx = qpsk_symbols(np.zeros((1, sim.h.n), dtype=np.uint8), snr_lambda) + noise
    gain = 4.0 * np.sqrt(snr_lambda / 2.0)
    llrs = np.empty((rx.shape[0], 2 * rx.shape[1]))
    llrs[:, 0::2] = gain * rx.real
    llrs[:, 1::2] = gain * rx.imag
    bits, _, _ = sim.decoder.decode_batch(llrs[:, :sim.h.n], max_iter)
    info = bits[:, sim.encoder.info_cols]
    wrong = info.any(axis=1)
    return wrong, info[wrong]


def test_run_frames_builds_the_batch_in_one_buffer():
    """The batch's peak is at least one frames x n float64 array below the
    separate-array pipeline's, with the same outputs."""
    sim = FrameSimulator(peg_construct(1024, 0.25, 3, SeededRng(77)))
    frames, snr, max_iter = 128, 10 ** (-0.2), 20
    args = (np.arange(frames), snr, max_iter, SeededRng(5))
    (wrong, info), peak = _traced_peak(lambda: sim.run_frames(*args))
    (ref_wrong, ref_info), ref_peak = _traced_peak(lambda: _dense_run_frames(sim, *args))
    assert 0 < wrong.sum() < frames
    assert np.array_equal(wrong, ref_wrong) and np.array_equal(info, ref_info)
    assert peak + frames * sim.h.n * 8 <= ref_peak
