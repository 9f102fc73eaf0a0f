"""Working sets of the LDPC path's GF(2) and frame-batch steps, and of the
rate-outage path.

``tracemalloc`` sees numpy's array buffers, so a step's traced peak is the
most memory its arrays held at once. Each bound sits below what the step's
dense form needs.
"""

import tracemalloc

import numpy as np
import pytest

import skagree.outage as outage
from skagree.channels import SeededRng, exponential_pdp
from skagree.ldpc import FrameScrambler, derive_encoder, gf2, peg_construct
from skagree.ldpc.modem import qpsk_symbols
from skagree.ldpc.sim import FrameSimulator
from skagree.ofdm import OfdmConfig


def _traced(fn):
    """fn's result, and the peak and the held bytes allocated above what
    was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - base, held - base
    finally:
        tracemalloc.stop()


def _traced_peak(fn):
    """fn's result and the peak bytes allocated above what was live before."""
    result, peak, _ = _traced(fn)
    return result, peak


def test_rref_clear_stays_below_half_the_packed_rows():
    """A block clear gathered one pivot-row sum per row at once, a second
    copy of the packed rows; cleared in row chunks it needs a fraction."""
    bits = np.random.default_rng(6).integers(0, 2, (2048, 2048), dtype=np.uint8)
    words = gf2.pack_rows(bits)
    _, peak = _traced_peak(lambda: gf2.rref(words, 2048))
    assert peak < words.nbytes // 2


def test_derive_encoder_stays_below_one_dense_copy_of_h():
    """Dense derivation held several m x n byte arrays (6.9 MiB at n=2000),
    and a block clear in one gather a second copy of the packed rows. The
    packed rows (m * n / 8 bytes) and the packed parity map are what the
    derivation must hold; row-chunked clears and readout keep the rest
    below their size."""
    h = peg_construct(2000, 0.25, 3, SeededRng(99).spawn(0))
    m, n = h.shape
    enc, peak = _traced_peak(lambda: derive_encoder(h))
    packed_rows = m * ((n + 63) // 64) * 8
    assert peak < 2 * (packed_rows + enc._phi.nbytes)


def test_encode_batch_stays_below_one_unpacked_parity_map():
    """Unpacking the whole parity map and casting it to float32 took 5
    bytes per entry (22.8 MiB at n=5000); the product unpacks 128 of its
    rows at a time."""
    h = peg_construct(2000, 0.25, 3, SeededRng(99).spawn(0))
    enc = derive_encoder(h)
    msgs = np.random.default_rng(1).integers(0, 2, (16, enc.k), dtype=np.uint8)
    words, peak = _traced_peak(lambda: enc.encode_batch(msgs))
    assert not h.syndrome(words).any()
    assert peak < enc.rank * enc.k


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scrambler_draw_stays_below_one_byte_per_entry(seed):
    """A float64 draw alone takes 8 bytes per entry, and a byte per entry
    is one unpacked copy of the key; the key's inverse is drawn as raw
    words straight into its two packed k x k factors, an eighth of a byte
    per entry each, and they are what it holds."""
    k = 500
    scr, peak, held = _traced(lambda: FrameScrambler(k, seed))
    assert peak < k * k
    assert held < k * k / 2
    factors = (scr._lower, scr._pivoted)
    assert all(f.dtype == np.uint64 and f.shape == (k, (k + 63) // 64) for f in factors)
    assert held >= sum(f.nbytes for f in factors)


def _dense_run_frames(sim, frame_ids, snr_lambda, max_iter, rng):
    """``run_frames`` with separate noise, received-symbol and LLR arrays,
    the reference for the one-buffer batch."""
    noise = np.empty((len(frame_ids), sim.n_symbols), dtype=complex)
    for row, frame in enumerate(frame_ids):
        noise[row] = rng.spawn(int(frame)).complex_normals(sim.n_symbols)
    rx = qpsk_symbols(np.zeros((1, sim.n), dtype=np.uint8), snr_lambda) + noise
    gain = 4.0 * np.sqrt(snr_lambda / 2.0)
    llrs = np.empty((rx.shape[0], 2 * rx.shape[1]))
    llrs[:, 0::2] = gain * rx.real
    llrs[:, 1::2] = gain * rx.imag
    bits, _, _ = sim.decoder.decode_batch(llrs[:, :sim.n], max_iter)
    info = bits[:, sim.info_cols]
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
    assert peak + frames * sim.n * 8 <= ref_peak


def test_run_frames_peak_does_not_grow_with_the_batch():
    """Frames are drawn as the decoder's columns free, so 256 frames peak
    less than one window's buffers above 16 frames; a batch of LLRs made
    up front took 8 bytes per frame and bit, twice over."""
    sim = FrameSimulator(peg_construct(1024, 0.25, 3, SeededRng(77)))
    dec = sim.decoder
    # the window's message arrays (c with its zero row, t, g, half_llr and
    # post) and its sign planes
    per_frame = (dec.dtype.itemsize * (2 * dec.n_edges + 1 + dec._var_gather.size + 2 * dec.n)
                 + dec.n_edges)
    window = dec._window_frames * per_frame
    peaks = {}
    for frames in (16, 256):
        args = (np.arange(frames), 10 ** (-0.2), 20, SeededRng(5))
        (wrong, _), peaks[frames] = _traced_peak(lambda: sim.run_frames(*args))
        assert 0 < wrong.sum() < frames
    assert peaks[256] - peaks[16] < window


# a spectrum of 1024 legitimate draws at M=256, complex128
_SPECTRUM_BLOCK = 1024 * 256 * 16


def test_conditional_outage_holds_its_survivals_and_two_spectrum_blocks():
    """Drawing 8192 channels a chunk held a 32 MiB spectrum and a 16 MiB
    gain array (66 MiB traced at 200 000 peaks); the estimator needs every
    peak's survival per positive rate, and a cache-sized block of draws."""
    cfg = OfdmConfig(subcarriers=256, cp_len=16)
    pdp = exponential_pdp(16, -10.0, 0.5)
    rates, peaks = [0.05, 0.1], 200_000
    probs, peak = _traced_peak(lambda: outage.sk_rate_outage_probability(
        cfg, pdp, pdp, -1.0, rates, peaks, SeededRng(4)))
    assert 0.0 < probs[0] < probs[1] < 1.0
    assert peak < len(rates) * peaks * 8 + 2 * _SPECTRUM_BLOCK


def test_rate_outage_cdf_holds_its_rates_and_two_spectrum_blocks():
    """The Monte Carlo CDF keeps both rates per draw, sorted, and a
    cache-sized block of draws (69 MiB traced at 50 000 draws with 8192
    channels a chunk)."""
    cfg = OfdmConfig(subcarriers=256, cp_len=16)
    pdp = exponential_pdp(16, -10.0, 0.5)
    draws = 50_000
    cdf, peak = _traced_peak(lambda: outage.sk_rate_outage_cdf(
        cfg, pdp, pdp, -1.0, draws, SeededRng(3)))
    assert cdf.secret_key_rates.size == draws
    assert peak < 4 * draws * 8 + 2 * _SPECTRUM_BLOCK
