import hashlib
import itertools

import numpy as np
import pytest

from skagree.channels import SeededRng
from skagree.ldpc import (
    ParityCheckMatrix,
    SumProductDecoder,
    decoding_threshold,
    peg_construct,
)
from skagree.ldpc.decoder import _CLAMP
from skagree.ldpc.modem import llrs_from_rx, qpsk_symbols
from skagree.ldpc.sim import MESSAGE_DTYPE, FrameSimulator, wilson_halfwidth

# (7,4) Hamming code parity checks
HAMMING_H = np.array(
    [
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.uint8,
)


class LogDomainDecoder:
    """Reference oracle: the flooding sum-product decoder in log domain.

    Messages live in check-major edge order. The check update sums
    log|tanh(v/2)| per check with ``reduceat`` and takes each edge's
    leave-one-out product as ``exp(sum - own)``, with the sign from the
    parity of negative factors; an exactly-zero factor is floored at
    ``_LOG_FLOOR``. Same clamp, convergence rule and early retirement as
    :class:`SumProductDecoder`.
    """

    _LOG_FLOOR = 1e-300
    _TANH_CEIL = 1.0 - 1e-15

    def __init__(self, h: ParityCheckMatrix):
        self.h = h
        self.chk_of_edge, self.var_of_edge = h.tanner_edges()
        self.chk_starts = np.concatenate([[0], np.cumsum(h.row_weights())[:-1]])
        self.var_perm = np.argsort(self.var_of_edge, kind="stable")
        self.var_starts = np.concatenate([[0], np.cumsum(h.col_weights())[:-1]])

    def decode_batch(self, llrs, max_iter: int = 100):
        llrs = np.clip(np.asarray(llrs, dtype=float), -_CLAMP, _CLAMP)
        batch = llrs.shape[0]
        bits = (llrs < 0).astype(np.uint8)
        converged = ~np.any(self.h.syndrome(bits), axis=1) & np.all(
            llrs != 0.0, axis=1
        )
        iterations = np.zeros(batch, dtype=np.int64)
        iterations[~converged] = max_iter
        active = np.flatnonzero(~converged)
        if active.size == 0 or max_iter == 0:
            return bits, converged, iterations
        llr_act = llrs[active]
        v2c = llr_act[:, self.var_of_edge]
        c2v = np.zeros_like(v2c)
        for it in range(1, max_iter + 1):
            c2v = self.check_update(v2c)
            totals = self.variable_totals(llr_act, c2v)
            v2c = np.clip(totals[:, self.var_of_edge] - c2v, -_CLAMP, _CLAMP)
            hard = (totals < 0).astype(np.uint8)
            ok = ~np.any(self.h.syndrome(hard), axis=1) & np.all(
                totals != 0.0, axis=1
            )
            if np.any(ok):
                done = active[ok]
                bits[done] = hard[ok]
                converged[done] = True
                iterations[done] = it
                keep = ~ok
                if not np.any(keep):
                    return bits, converged, iterations
                active = active[keep]
                llr_act = llr_act[keep]
                v2c = v2c[keep]
                c2v = c2v[keep]
        totals = self.variable_totals(llr_act, c2v)
        bits[active] = (totals < 0).astype(np.uint8)
        return bits, converged, iterations

    def leave_one_out(self, v2c: np.ndarray) -> np.ndarray:
        t = np.tanh(0.5 * v2c)
        mag = np.abs(t)
        log_mag = np.log(np.maximum(mag, self._LOG_FLOOR))
        neg = t < 0
        log_sum = np.add.reduceat(log_mag, self.chk_starts, axis=1)
        parity = np.add.reduceat(neg.astype(np.int8), self.chk_starts, axis=1) & 1
        loo_log = log_sum[:, self.chk_of_edge] - log_mag
        sign = np.where(neg ^ parity[:, self.chk_of_edge].astype(bool), -1.0, 1.0)
        return sign * np.exp(np.minimum(loo_log, 0.0))

    def check_update(self, v2c: np.ndarray) -> np.ndarray:
        prod = self.leave_one_out(v2c)
        return 2.0 * np.arctanh(np.clip(prod, -self._TANH_CEIL, self._TANH_CEIL))

    def variable_totals(self, llr_act: np.ndarray, c2v: np.ndarray) -> np.ndarray:
        per_var = np.add.reduceat(c2v[:, self.var_perm], self.var_starts, axis=1)
        return llr_act + per_var


def channel_llrs(word: np.ndarray, snr_db: float, rng: SeededRng) -> np.ndarray:
    """One codeword's QPSK/AWGN channel LLRs, as the frame simulator draws them."""
    snr = 10 ** (snr_db / 10)
    rx = qpsk_symbols(word[None], snr) + rng.complex_normals((1, (word.size + 1) // 2))
    return llrs_from_rx(rx, snr, word.size)[0]


def noisy_llrs(h: ParityCheckMatrix, snr_db: float, frames: int, rng: SeededRng):
    """Codewords of random messages and their QPSK/AWGN channel LLRs."""
    enc = h.encoder()
    words = enc.encode_batch(rng.bits((frames, enc.k)))
    snr = 10 ** (snr_db / 10)
    rx = qpsk_symbols(words, snr) + rng.complex_normals((frames, (h.n + 1) // 2))
    return words, llrs_from_rx(rx, snr, h.n)


def hamming_codewords():
    words = []
    for word in itertools.product((0, 1), repeat=7):
        arr = np.array(word, dtype=np.uint8)
        if not (HAMMING_H @ arr % 2).any():
            words.append(arr)
    return np.array(words)


def test_noiseless_codeword_converges_immediately():
    h = peg_construct(60, 0.5, 3, SeededRng(2))
    word = h.encoder().encode_batch(SeededRng(3).bits((1, h.encoder().k)))[0]
    llrs = 20.0 * (1.0 - 2.0 * word.astype(float))
    bits, conv, iters = SumProductDecoder(h).decode_batch(llrs[None], max_iter=50)
    assert conv[0]
    assert iters[0] <= 1
    assert np.array_equal(bits[0], word)


def test_hamming_single_flip_corrected_matches_ml():
    words = hamming_codewords()
    assert len(words) == 16
    h = ParityCheckMatrix(HAMMING_H)
    decoder = SumProductDecoder(h)
    for codeword in words:
        for flip in range(7):
            sent = 1.0 - 2.0 * codeword.astype(float)
            received = sent.copy()
            received[flip] *= -1.0
            # scale 2: confident enough to converge, not so confident that
            # the first flooding iteration jumps to a neighboring codeword
            # (this toy graph is loopy, so BP = ML only holds in a window)
            llrs = 2.0 * received
            bits, conv, _ = decoder.decode_batch(llrs[None], max_iter=50)
            # maximum-likelihood oracle over all 16 codewords
            metrics = ((1.0 - 2.0 * words) * llrs).sum(axis=1)
            ml_word = words[int(np.argmax(metrics))]
            assert np.array_equal(ml_word, codeword)
            assert conv[0]
            assert np.array_equal(bits[0], ml_word)


def test_all_zero_llrs_do_not_converge():
    h = peg_construct(60, 0.5, 3, SeededRng(4))
    _, conv, iters = SumProductDecoder(h).decode_batch(np.zeros((1, 60)), max_iter=20)
    assert not conv[0]
    assert iters[0] == 20


def test_convergence_implies_zero_syndrome():
    h = peg_construct(240, 0.25, 3, SeededRng(5))
    decoder = SumProductDecoder(h)
    enc = h.encoder()
    rng = SeededRng(6)
    for snr_db in (-4.0, -2.0, 0.0):
        for trial in range(30):
            stream = rng.spawn(hash((snr_db, trial)) % (2**32))
            word = enc.encode_batch(stream.bits((1, enc.k)))[0]
            llrs = channel_llrs(word, snr_db, stream)
            bits, conv, _ = decoder.decode_batch(llrs[None], max_iter=30)
            if conv[0]:
                assert not h.syndrome(bits).any()


def test_batch_matches_single_frame():
    h = peg_construct(120, 0.25, 3, SeededRng(7))
    decoder = SumProductDecoder(h)
    decoder._window_frames = 4
    frames = 2 * decoder._window_frames + 3  # two whole windows and a remainder
    rng = SeededRng(8)
    enc = h.encoder()
    llr_rows = []
    for i in range(frames):
        stream = rng.spawn(i)
        word = enc.encode_batch(stream.bits((1, enc.k)))[0]
        llr_rows.append(channel_llrs(word, -1.0, stream))
    llrs = np.array(llr_rows)
    bits_b, conv_b, iters_b = decoder.decode_batch(llrs, max_iter=40)
    assert 0 < conv_b.sum() < frames
    for i in range(frames):
        bits, conv, iters = decoder.decode_batch(llrs[i:i + 1], max_iter=40)
        assert np.array_equal(bits[0], bits_b[i])
        assert conv[0] == conv_b[i]
        assert iters[0] == iters_b[i]


def test_degree_zero_graph_rejected():
    dense = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)  # variable 2 isolated
    with pytest.raises(ValueError):
        SumProductDecoder(ParityCheckMatrix(dense))


def test_llr_length_checked():
    h = peg_construct(12, 0.25, 3, SeededRng(1))
    decoder = SumProductDecoder(h)
    for bad in (np.zeros((2, 11)), np.zeros(12)):
        with pytest.raises(ValueError, match=r"expected \(batch, n\) LLRs with n = 12"):
            decoder.decode_batch(bad)


@pytest.fixture(scope="module")
def code512():
    return peg_construct(512, 0.25, 3, SeededRng(3))


@pytest.fixture(scope="module")
def oracle_corpus(code512):
    """The oracle test's 2 001 frames: (snr_db, words, llrs, oracle decode)."""
    oracle = LogDomainDecoder(code512)
    rng = SeededRng(11)
    corpus = []
    for point, snr_db in enumerate((-2.5, -1.5, -0.5)):
        words, llrs = noisy_llrs(code512, snr_db, 667, rng.spawn(point))
        corpus.append((snr_db, words, llrs, oracle.decode_batch(llrs, max_iter=40)))
    return corpus


def test_decoder_matches_log_domain_oracle(code512, oracle_corpus):
    """A fixed corpus of 2 001 frames at three SNRs against the oracle.

    Every frame the oracle converges must get the same bits, flag and
    iteration count; at the two SNRs with intermediate FER the decoder's
    FER must lie in the oracle's 95% Wilson interval; no converged frame
    may violate the dense parity checks.
    """
    decoder = SumProductDecoder(code512)
    dense = code512.to_dense().astype(np.int64)
    for snr_db, words, llrs, (ref_bits, ref_conv, ref_iters) in oracle_corpus:
        bits, conv, iters = decoder.decode_batch(llrs, max_iter=40)
        assert np.array_equal(bits[ref_conv], ref_bits[ref_conv])
        assert np.array_equal(conv[ref_conv], ref_conv[ref_conv])
        assert np.array_equal(iters[ref_conv], ref_iters[ref_conv])
        assert not np.any(dense @ bits[conv].T % 2)
        errors = int(np.any(bits != words, axis=1).sum())
        ref_errors = int(np.any(ref_bits != words, axis=1).sum())
        if snr_db < -1.0:
            assert 0 < ref_errors < len(words)
            halfwidth = wilson_halfwidth(ref_errors, len(words))
            assert abs(errors - ref_errors) / len(words) <= halfwidth


def test_first_iterations_match_log_domain_oracle(code512):
    """Every frame equals the oracle at ``max_iter`` 0 to 3.

    At these SNRs frames converge after 0, 1, 2 and 3 iterations, so each
    iteration count, and the last iteration's convergence test, is hit.
    """
    decoder = SumProductDecoder(code512)
    oracle = LogDomainDecoder(code512)
    rng = SeededRng(13)
    seen = set()
    for point, snr_db in enumerate((2.0, 4.0, 9.0)):
        _, llrs = noisy_llrs(code512, snr_db, 200, rng.spawn(point))
        for max_iter in range(4):
            bits, conv, iters = decoder.decode_batch(llrs, max_iter=max_iter)
            ref_bits, ref_conv, ref_iters = oracle.decode_batch(llrs, max_iter=max_iter)
            assert np.array_equal(bits, ref_bits)
            assert np.array_equal(conv, ref_conv)
            assert np.array_equal(iters, ref_iters)
            seen.update(iters[conv].tolist())
    assert seen == {0, 1, 2, 3}


def test_decode_batch_calls_no_syndrome(code512, monkeypatch):
    """The channel decisions and every iteration's are checked on the
    decoder's own slot planes; ``ParityCheckMatrix.syndrome`` is not called."""
    _, llrs = noisy_llrs(code512, -1.5, 11, SeededRng(14))
    decoder = SumProductDecoder(code512)
    decoder._window_frames = 4
    calls = []
    syndrome = ParityCheckMatrix.syndrome

    def spy(self, bits):
        calls.append(len(bits))
        return syndrome(self, bits)

    monkeypatch.setattr(ParityCheckMatrix, "syndrome", spy)
    _, conv, iters = decoder.decode_batch(llrs, max_iter=40)
    assert calls == []
    assert conv.any() and np.all(iters[conv] > 1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("window_frames", [1, 3, None])
def test_channel_check_matches_syndrome(window_frames, dtype, code512):
    """The channel decisions' check on the slot planes, a window of frames
    at a time, against ``h.syndrome``: codewords, codewords with one or two
    flipped bits, a codeword with a zero LLR and noisy frames, over more
    frames than the default window holds."""
    decoder = SumProductDecoder(code512, dtype=dtype)
    frames = 2 * decoder._window_frames + 5
    if window_frames is not None:
        decoder._window_frames = window_frames
    words, llrs = noisy_llrs(code512, -1.5, frames, SeededRng(24))
    clean = np.arange(0, frames, 3)
    llrs[clean] = 4.0 * (1.0 - 2.0 * words[clean])
    llrs[clean[1::4], 10] *= -1.0
    llrs[clean[2::4, None], [20, 300]] *= -1.0
    llrs[clean[3::4], 7] = 0.0
    bits, conv, iters = decoder.decode_batch(llrs, max_iter=0)
    expected = ~code512.syndrome(llrs < 0).any(axis=1) & np.all(llrs != 0.0, axis=1)
    assert np.array_equal(conv, expected)
    assert np.array_equal(conv[clean], np.arange(clean.size) % 4 == 0)
    assert not conv[np.setdiff1d(np.arange(frames), clean)].any()
    assert np.array_equal(bits, llrs < 0)
    assert not iters.any()


def _decode_digest(bits, conv, iters) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(bits, dtype=np.uint8).tobytes())
    digest.update(conv.astype(np.uint8).tobytes())
    digest.update(iters.astype(np.int64).tobytes())
    return digest.hexdigest()


def test_desk_code_golden_decode():
    """The desk code's decodes keep their sha256 over (bits, converged, iterations)."""
    h = peg_construct(5000, 0.25, 3, SeededRng(1234).spawn(0))
    decoder = SumProductDecoder(h)
    rng = SeededRng(31)
    golden = {
        -2.2: "1de6a9450263aba73ab1c9f6146aa770cbb418961299f69d696b8ef85e8cbed4",
        -1.2: "d02075f5df15e43e2e7bdff08968aca8f05d7ce81d59b74a5fb74c18610f2a09",
    }
    for point, (snr_db, frames) in enumerate(((-2.2, 24), (-1.2, 40))):
        _, llrs = noisy_llrs(h, snr_db, frames, rng.spawn(point))
        result = decoder.decode_batch(llrs, max_iter=100)
        assert _decode_digest(*result) == golden[snr_db]


def test_gap_code_golden_decode():
    """The gap-walk code's decodes at the DE threshold and 1 dB either side,
    with early retirement, keep their sha256 over (bits, converged, iterations)."""
    h = peg_construct(2000, 0.25, 3, SeededRng(99).spawn(0))
    decoder = SumProductDecoder(h)
    center = 10.0 * np.log10(decoding_threshold(3, 4.0))
    rng = SeededRng(32)
    golden = {
        -1.0: "7408742ec60c9c32efdb1f494dffe7ef6204a6efc88499293578b762d6d5082d",
        0.0: "f131615587192a61b1243bae8b7b6368a464b2251a42410c1dc4ade5cdc0b25a",
        1.0: "91a877c1ac29a21ba0ac68ea9755d709383bef75bd2da970a2ef4dd83ca002ca",
    }
    for point, offset in enumerate((-1.0, 0.0, 1.0)):
        _, llrs = noisy_llrs(h, center + offset, 32, rng.spawn(point))
        result = decoder.decode_batch(llrs, max_iter=100)
        assert _decode_digest(*result) == golden[offset]


@pytest.mark.parametrize("max_iter", [0, -1])
def test_no_iterations_returns_channel_decisions(max_iter, code512):
    """``max_iter`` of 0 or below runs no iteration: every frame keeps its
    channel decisions, and those not converged report ``max_iter``."""
    _, llrs = noisy_llrs(code512, -1.5, 6, SeededRng(16))
    llrs[0] = 20.0  # the all-zero codeword, converged at the channel
    bits, conv, iters = SumProductDecoder(code512).decode_batch(llrs, max_iter)
    assert np.array_equal(bits, llrs < 0)
    assert conv[0] and not conv[1:].any()
    assert np.array_equal(iters, np.where(conv, 0, max_iter))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_decode_leaves_its_input_unchanged(dtype, code512):
    """The decoder overwrites the rows it reads, never an array it is given:
    values beyond the clamp, exact zeros and a frame that converges at the
    channel come back as they went in, and are decoded as a copy is."""
    words, llrs = noisy_llrs(code512, -1.5, 12, SeededRng(18))
    llrs[0] = 45.0 * (1.0 - 2.0 * words[0])  # converged at the channel
    llrs[1, ::7] = -1e300
    llrs[2, :40] = 0.0
    llrs[3] = 0.0
    llrs[4, 1::5] = np.inf
    kept = llrs.copy()
    llrs.flags.writeable = False
    decoder = SumProductDecoder(code512, dtype=dtype)
    bits, conv, iters = decoder.decode_batch(llrs, max_iter=20)
    assert np.array_equal(llrs, kept)
    assert conv[0] and iters[0] == 0 and not conv[3]
    for got, want in zip((bits, conv, iters), decoder.decode_batch(kept.copy(), max_iter=20)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("window_frames", [1, 3, 4, None, "all"])
def test_results_do_not_depend_on_slice_size(window_frames, code512):
    """Windows of 1, 3, 4 and the default number of columns, and one column
    per frame, against a window of every frame.

    Frames that converge at the channel, after several iterations and not
    within ``max_iter`` are interleaved, so retired columns are refilled
    mid-batch and the window drains at the end.
    """
    decoder = SumProductDecoder(code512)
    frames = 2 * decoder._window_frames + 3
    words, llrs = noisy_llrs(code512, -1.5, frames, SeededRng(15))
    llrs[::5] = 20.0 * (1.0 - 2.0 * words[::5])  # noiseless
    if window_frames == "all":
        window_frames = frames
    if window_frames is not None:
        decoder._window_frames = window_frames
    whole = SumProductDecoder(code512)
    whole._window_frames = frames
    bits, conv, iters = decoder.decode_batch(llrs, max_iter=20)
    ref_bits, ref_conv, ref_iters = whole.decode_batch(llrs, max_iter=20)
    assert np.all(iters[::5] == 0)
    assert np.any(conv & (iters > 1)) and np.any(~conv)
    assert np.all(iters[~conv] == 20)
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(conv, ref_conv)
    assert np.array_equal(iters, ref_iters)


class _CountingSource:
    """A frame source over LLR rows that records every read: its frames,
    and how many check updates ``updates`` held when it was made."""

    def __init__(self, llrs, updates):
        self.llrs = llrs
        self.updates = updates
        self.reads = []
        self.read_at = []

    def __len__(self):
        return len(self.llrs)

    def __getitem__(self, ids):
        self.reads.append(np.array(ids))
        self.read_at.append(len(self.updates))
        return self.llrs[ids]


@pytest.mark.parametrize("max_iter", [20, 0, -1])
@pytest.mark.parametrize("window_frames", [1, 3, None])
def test_frame_source_matches_its_array(window_frames, max_iter, code512, monkeypatch):
    """A frame source decodes as its materialized array does, and is read
    once per frame, in order, never for more rows than there are free
    columns.

    Frames that converge at the channel, frames with zero LLRs and frames
    that do not converge within ``max_iter`` are interleaved. A frame read
    after s check updates and run for i iterations holds a column until
    the update s + i, so the rows read at update S are at most the window
    less the frames read before with s + i > S.
    """
    decoder = SumProductDecoder(code512)
    frames = 2 * decoder._window_frames + 3
    if window_frames is not None:
        decoder._window_frames = window_frames
    words, llrs = noisy_llrs(code512, -1.5, frames, SeededRng(17))
    llrs[::5] = 20.0 * (1.0 - 2.0 * words[::5])  # noiseless
    llrs[1::10] = 0.0
    llrs[2::10, :40] = 0.0
    updates = []
    check_update = decoder._check_update

    def counting_update(t, c):
        updates.append(t.shape[1])
        check_update(t, c)

    monkeypatch.setattr(decoder, "_check_update", counting_update)
    source = _CountingSource(llrs, updates)
    bits, conv, iters = decoder.decode_batch(source, max_iter)
    ref_bits, ref_conv, ref_iters = SumProductDecoder(code512).decode_batch(llrs, max_iter)
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(conv, ref_conv)
    assert np.array_equal(iters, ref_iters)
    assert np.all(conv[::5] & (iters[::5] == 0)) and not conv[1::10].any()
    if max_iter > 0:
        assert np.any(conv & (iters > 1)) and np.any(~conv)
    else:
        assert updates == []

    reads = source.reads
    assert np.array_equal(np.concatenate(reads), np.arange(frames))
    width = min(decoder._window_frames, frames)
    placed = ~(conv & (iters == 0)) & (max_iter > 0)
    read_at = np.repeat(source.read_at, [ids.size for ids in reads])
    for at, ids in zip(source.read_at, reads):
        held = placed[:ids[0]] & (read_at[:ids[0]] + iters[:ids[0]] > at)
        assert 0 < ids.size <= width - held.sum()


@pytest.mark.parametrize("which", ["degree-1-checks"])
def test_arctanh_ceiling_clip_where_it_can_bind(which, code512):
    """The ceiling clip keeps arctanh finite where a product reaches 1.0.

    A check of degree 1 has the empty product 1.0; without the clip it
    would raise on ``arctanh(1.0)``. Frames the oracle converges match it.
    """
    units = np.zeros((3, code512.n), dtype=np.uint8)
    units[np.arange(3), [0, 100, 511]] = 1
    h = ParityCheckMatrix(np.vstack([code512.to_dense(), units]))
    snr = 10 ** (-1.5 / 10)
    words = np.zeros((60, h.n), dtype=np.uint8)
    noise = SeededRng(23).complex_normals((60, (h.n + 1) // 2))
    llrs = llrs_from_rx(qpsk_symbols(words, snr) + noise, snr, h.n)
    decoder = SumProductDecoder(h)
    with np.errstate(all="raise"):
        bits, conv, iters = decoder.decode_batch(llrs, max_iter=30)
    ref_bits, ref_conv, ref_iters = LogDomainDecoder(h).decode_batch(llrs, max_iter=30)
    assert 0 < ref_conv.sum() < len(llrs)
    assert np.array_equal(conv[ref_conv], ref_conv[ref_conv])
    assert np.array_equal(bits[ref_conv], ref_bits[ref_conv])
    assert np.array_equal(iters[ref_conv], ref_iters[ref_conv])


def test_leave_one_out_products_match_log_domain(code512):
    """Tanh-rule products against the oracle's exp(sum of logs), 1e-13 relative.

    The oracle floors |tanh| at 1e-300. Where this kernel gives an exact
    zero (a zero among the other factors) the oracle gives a product below
    1e-280; that is the only absolute slack. For an edge whose own factor is
    zero the oracle subtracts two logs near log(1e-300) = -690.8, so its
    product is good only to about 690.8 * 2**-52 = 1.5e-13 relative; there
    the kernel is held to the same 1e-13 against the plain product of the
    other factors instead.
    """
    decoder = SumProductDecoder(code512)
    oracle = LogDomainDecoder(code512)
    rng = np.random.default_rng(5)
    v2c = rng.normal(0.0, 8.0, (40, decoder.n_edges))
    pick = rng.random(v2c.shape)
    v2c[pick < 0.05] = 0.0
    v2c[(pick >= 0.05) & (pick < 0.10)] = _CLAMP
    v2c[(pick >= 0.10) & (pick < 0.15)] = -_CLAMP
    ref = oracle.leave_one_out(v2c)
    tanh = np.tanh(0.5 * v2c)
    t = np.empty_like(v2c.T)  # edge-major, as the decoder holds it
    t[decoder._plane_of_edge] = tanh.T
    out = np.empty_like(t)
    decoder._leave_one_out(t, out)
    got = out[decoder._plane_of_edge].T
    own_zero = v2c == 0.0
    np.testing.assert_allclose(got[~own_zero], ref[~own_zero], rtol=1e-13, atol=1e-280)
    assert np.any(got == 0.0) and np.all(got[np.abs(ref) < 1e-280] == 0.0)
    chk = oracle.chk_of_edge
    plain = np.stack([
        np.prod(tanh[:, (chk == chk[e]) & (np.arange(chk.size) != e)], axis=1)
        for e in range(chk.size)
    ], axis=1)
    np.testing.assert_allclose(got[own_zero], plain[own_zero], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("which", ["hamming", "peg"])
def test_posteriors_bit_identical_given_same_check_messages(which, code512):
    h = ParityCheckMatrix(HAMMING_H) if which == "hamming" else code512
    decoder = SumProductDecoder(h)
    oracle = LogDomainDecoder(h)
    rng = np.random.default_rng(6)
    c2v = rng.normal(0.0, 5.0, (8, decoder.n_edges))
    llr = rng.normal(0.0, 3.0, (8, h.n))
    # edge-major, as the decoder holds them
    c = np.zeros((decoder.n_edges + 1, 8))
    c[decoder._plane_of_edge] = 0.5 * c2v.T
    post = np.empty((h.n, 8))
    g = np.empty((decoder._var_gather.size, 8))
    decoder._posteriors(np.ascontiguousarray(0.5 * llr.T), c, g, out=post)
    assert np.array_equal(2.0 * post.T, oracle.variable_totals(llr, c2v))


def _edge_case(which, code512):
    """(code, LLR rows) for one floating-point edge case."""
    rng = SeededRng(21)
    if which == "all-zero":
        h = peg_construct(60, 0.5, 3, SeededRng(4))
        return h, np.zeros((3, h.n))
    if which == "hamming":
        words = hamming_codewords()
        llrs = 2.0 * (1.0 - 2.0 * words.astype(float))
        llrs[np.arange(16), np.arange(16) % 7] *= -1.0
        llrs[::3, 6] = 0.0
        llrs[1::3, 5] = 30.0
        return ParityCheckMatrix(HAMMING_H), llrs
    words, llrs = noisy_llrs(code512, -1.5, 60, rng)
    pick = SeededRng(22).uniform(llrs.shape)
    if which == "clamp":
        # reliable bits of either sign at and beyond the clamp
        strong = np.array([30.0, 30.0 + 1e-9, 45.0, 1e300, np.inf])
        mask = pick < 0.2
        sign = 1.0 - 2.0 * words[mask]
        llrs[mask] = sign * strong[np.arange(mask.sum()) % 5]
    elif which == "zeros":
        llrs[pick < 0.01] = 0.0
    return code512, llrs


@pytest.mark.parametrize("which", ["all-zero", "clamp", "zeros", "hamming", "peg-3-4-5"])
def test_floating_point_edge_cases(which, code512):
    """No floating-point error is raised, and decisions match the oracle."""
    h, llrs = _edge_case(which, code512)
    decoder = SumProductDecoder(h)
    with np.errstate(all="raise"):
        bits, conv, iters = decoder.decode_batch(llrs, max_iter=30)
    ref_bits, ref_conv, ref_iters = LogDomainDecoder(h).decode_batch(llrs, max_iter=30)
    assert np.array_equal(conv[ref_conv], ref_conv[ref_conv])
    assert np.array_equal(bits[ref_conv], ref_bits[ref_conv])
    assert np.array_equal(iters[ref_conv], ref_iters[ref_conv])
    assert not h.syndrome(bits[conv]).any()
    if which == "all-zero":
        assert not conv.any() and np.all(iters == 30)
    else:
        assert conv.any()


# float32 kernel, as the frame simulator runs it. It rounds differently
# from the float64 reference, so it is held to the oracle statistically,
# not bit for bit; numpy's float32 tanh may differ between CPUs, so no
# float32 decode is pinned by a digest.


def test_float32_kernel_against_log_domain_oracle(code512, oracle_corpus):
    """The float32 kernel on the oracle test's corpus.

    Frames that both converge get the same bits; at the two SNRs with
    intermediate FER the float32 FER lies in the oracle's 95% Wilson
    interval; no converged frame violates the dense parity checks.
    """
    decoder = SumProductDecoder(code512, dtype=np.float32)
    dense = code512.to_dense().astype(np.int64)
    for snr_db, words, llrs, (ref_bits, ref_conv, _) in oracle_corpus:
        bits, conv, iters = decoder.decode_batch(llrs, max_iter=40)
        assert bits.dtype == np.uint8 and conv.dtype == bool
        assert iters.dtype == np.int64
        both = conv & ref_conv
        assert both.any()
        assert np.array_equal(bits[both], ref_bits[both])
        assert not np.any(dense @ bits[conv].T % 2)
        errors = int(np.any(bits != words, axis=1).sum())
        ref_errors = int(np.any(ref_bits != words, axis=1).sum())
        if snr_db < -1.0:
            assert 0 < ref_errors < len(words)
            halfwidth = wilson_halfwidth(ref_errors, len(words))
            assert abs(errors - ref_errors) / len(words) <= halfwidth


def test_float32_ceiling_and_window(code512):
    """In float32, arctanh's ceiling is 1 - 2**-24 and binds wherever every
    factor is +-1.0 (tanh(15) rounds to 1.0), half check messages stay
    within its arctanh (about 8.66), and the window holds twice the float64
    window's frames."""
    decoder = SumProductDecoder(code512, dtype=np.float32)
    reference = SumProductDecoder(code512)
    assert decoder.dtype == np.float32 and reference.dtype == np.float64
    assert decoder._tanh_ceil == np.float32(1.0 - 2.0**-24)
    assert reference._tanh_ceil == 1.0 - 1e-15
    edges = decoder.n_edges + 1
    assert decoder._window_frames == (1 << 19) // (4 * edges)
    assert reference._window_frames == (1 << 19) // (8 * edges)
    # half posteriors at +-_CLAMP/2: every factor rounds to +-1.0
    signs = np.where(SeededRng(17).uniform((edges - 1, 8)) < 0.5, -1.0, 1.0)
    t = (0.5 * _CLAMP * signs).astype(np.float32)
    c = np.zeros((edges, 8), dtype=np.float32)
    with np.errstate(all="raise"):
        decoder._check_update(t, c)
    cap = np.arctanh(decoder._tanh_ceil)
    assert 8.66 < cap < 8.67 < 0.5 * _CLAMP
    assert c.dtype == np.float32 and np.all(np.abs(c[:-1]) == cap)


@pytest.mark.parametrize("which", ["all-zero", "clamp", "zeros", "hamming", "peg-3-4-5"])
def test_float32_floating_point_edge_cases(which, code512):
    """The float32 kernel raises no floating-point error on the edge cases,
    and frames that both it and the oracle converge get the same bits."""
    h, llrs = _edge_case(which, code512)
    decoder = SumProductDecoder(h, dtype=np.float32)
    with np.errstate(all="raise"):
        bits, conv, iters = decoder.decode_batch(llrs, max_iter=30)
    ref_bits, ref_conv, _ = LogDomainDecoder(h).decode_batch(llrs, max_iter=30)
    both = conv & ref_conv
    assert np.array_equal(bits[both], ref_bits[both])
    assert not h.syndrome(bits[conv]).any()
    if which == "all-zero":
        assert not conv.any() and np.all(iters == 30)
    else:
        assert both.any()


def test_simulator_decoder_never_converges_to_noncodeword():
    """Criterion 7b for the decoder the frame simulator runs: 10 000 noisy
    frames at three SNRs, and no converged frame violates the dense H."""
    code = peg_construct(512, 0.25, 3, SeededRng(7))
    decoder = FrameSimulator(code).decoder
    assert decoder.dtype == MESSAGE_DTYPE == np.float32
    dense = code.to_dense().astype(np.int64)
    rng = SeededRng(778)
    converged = violations = 0
    for block in range(20):
        snr_db = (-4.0, -2.0, 0.0)[block % 3]
        _, llrs = noisy_llrs(code, snr_db, 500, rng.spawn(block))
        bits, conv, _ = decoder.decode_batch(llrs, max_iter=40)
        converged += int(conv.sum())
        violations += int(np.any(dense @ bits[conv].T % 2, axis=0).sum())
    assert 0 < converged < 10_000
    assert violations == 0
