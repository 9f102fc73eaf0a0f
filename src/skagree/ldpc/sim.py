"""Monte Carlo frame/bit error simulation and security-gap measurement.

Every frame carries the all-zero codeword. The code is linear, Gray QPSK
over AWGN is output-symmetric, and the sum-product kernel is odd in its
messages (odd ``tanh`` and ``arctanh``, clips symmetric about 0), so
decoding the LLRs of a codeword c gives the decisions for the all-zero
word XOR c, with the same convergence and iterations (Richardson &
Urbanke, *Modern Coding Theory*, 2008). The decisions are then the error
pattern itself, and no message needs to be drawn, scrambled or encoded.

Frame i draws its noise from the stream ``rng.spawn(i)`` of the rng given,
so estimates are bit-identical regardless of batch size or worker count,
early stopping depends only on the per-frame outcome sequence, and two
streams of one seed (the points of one experiment) decode independent
frames. The scrambler key is a function of (k, seed) alone, so the points
of one experiment see one key, as a deployment holds one.

The key is invertible, so a frame errs exactly when its decoded message
bits are nonzero, and only its bit errors need the key's inverse, which
``FrameScrambler`` draws directly, uniform on GL(k, 2), with nothing to
invert. ``fer_ber_sim`` descrambles the erroneous frames of the stopping
prefix once per round, in the calling process. It draws the key at most
once, when there is first a frame to descramble, and drops it when it
returns; a point whose frames all decode draws none.
"""

from __future__ import annotations

import concurrent.futures as _futures
import functools
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from ..channels import SeededRng
from .de import decoding_threshold
from .decoder import SumProductDecoder
from .modem import llrs_from_rx, qpsk_symbols
from .peg import ParityCheckMatrix
from .scramble import FrameScrambler

_Z95 = 1.959963984540054
# Most frames a worker decodes per round; frame i's draws and the stopping
# frame do not depend on it.
_BATCH = 128
# dB the security-gap walk may go either side of the DE threshold
_GAP_SPAN_DB = 6.0
# Message precision of the simulator's decoder. float32 halves the cost of
# the tanh and arctanh that dominate decoding; float64 stays the reference
# kernel of ``SumProductDecoder``.
MESSAGE_DTYPE = np.dtype(np.float32)


@dataclass
class FerBerEstimate:
    fer: float
    ber: float
    frames: int
    frame_errors: int
    bit_errors: int
    confidence_halfwidth: float


def wilson_halfwidth(errors: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 1.0
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    return float(_Z95 * np.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom)


class FrameSimulator:
    """Coded QPSK/AWGN pipeline bound to one parity-check matrix.

    Per frame: all-zero word -> QPSK -> AWGN -> sum-product decode ->
    extract message positions. The decoded bits are the error pattern (see
    the module docstring), so a frame error is any decoded bit set at a
    message position. It holds the decoder and the message positions
    ``info_cols``, not H or a scrambler key: the caller descrambles the
    erroneous frames' message bits, which is where an eavesdropper would
    read the key material, and one residual error spreads over about half of
    the key.
    """

    def __init__(self, h: ParityCheckMatrix):
        self.n = h.n
        self.info_cols = h.encoder().info_cols
        self.decoder = SumProductDecoder(h, dtype=MESSAGE_DTYPE)
        self.n_symbols = (h.n + 1) // 2

    def run_frames(self, frame_ids, snr_lambda: float, max_iter: int,
                   rng: SeededRng):
        """Per-frame error flags for the given frame indices, and the decoded
        message bits of the erroneous frames, in frame order.

        The decoder draws the frames as its columns free (see
        :class:`_FrameLlrs`), so no array of the whole batch's LLRs exists.
        """
        llrs = _FrameLlrs(frame_ids, snr_lambda, self.n, rng)
        bits, _, _ = self.decoder.decode_batch(llrs, max_iter)
        info = bits[:, self.info_cols]
        wrong = info.any(axis=1)
        return wrong, info[wrong]


class _FrameLlrs:
    """The channel LLRs of the all-zero word's frames ``frame_ids``, drawn
    on demand: ``[ids]`` (an index array) gives those frames' LLR rows,
    frame i's noise drawn from ``rng.spawn(i)``.

    A group's noise, received symbols and LLRs share one buffer: each
    frame's noise is drawn into its row, the all-zero word's symbols are
    added in place, and ``llrs_from_rx`` scales it in place.
    """

    def __init__(self, frame_ids, snr_lambda: float, n: int, rng: SeededRng):
        self.frame_ids = np.asarray(frame_ids)
        self.snr_lambda = snr_lambda
        self.n = n
        self.rng = rng
        # one all-zero row broadcasts over a group
        self.symbols = qpsk_symbols(np.zeros((1, n), dtype=np.uint8), snr_lambda)

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, ids) -> np.ndarray:
        rx = np.empty((len(ids), self.symbols.shape[1]), dtype=complex)
        for row, frame in enumerate(self.frame_ids[ids]):
            rx[row] = self.rng.spawn(int(frame)).complex_normals(rx.shape[1])
        rx += self.symbols
        return llrs_from_rx(rx, self.snr_lambda, self.n)


# The simulator of a pooled fer_ber_sim call, set once per worker process by
# the pool's initializer, so a task carries only its frames, SNR, max_iter
# and rng.
_worker_sim: FrameSimulator | None = None


def _install_simulator(sim: FrameSimulator) -> None:
    global _worker_sim
    _worker_sim = sim


def _run_installed(frame_ids, snr_lambda: float, max_iter: int, rng: SeededRng):
    return _worker_sim.run_frames(frame_ids, snr_lambda, max_iter, rng)


def fer_ber_sim(
    h: ParityCheckMatrix,
    snr_lambda: float,
    max_frames: int,
    target_frame_errors: int,
    max_iter: int,
    rng: SeededRng,
    workers: int = 1,
) -> FerBerEstimate:
    """Estimate FER/BER at one SNR, stopping at ``target_frame_errors``.

    The estimate covers the smallest prefix of the frame sequence that
    reaches the target, so results do not depend on scheduling. Each round
    decodes about as many frames as the FER seen so far needs to yield the
    errors still needed, split evenly over the workers; frames past the
    stopping frame are dropped. A round after only failed frames (the first
    one, too) takes exactly the errors still needed, so while every frame
    fails no frame past the stopping frame is decoded. Bit errors are
    counted behind the seed's scrambler key on the prefix's frame errors
    alone, here and not in the workers.
    """
    if max_frames < 1 or target_frame_errors < 1:
        raise ValueError("frame counts must be positive")
    sim = FrameSimulator(h)
    k = sim.info_cols.size
    if k == 0:
        raise ValueError(f"the code has no message bits: H has full rank {h.shape[1]}")
    lanes = max(1, workers)
    frames = fe_total = be_total = 0
    key = None
    # each worker receives the simulator once, through the initializer; the
    # rng pickles with its seed and stream, so frame i draws from
    # rng.spawn(i) in any worker
    with (_futures.ProcessPoolExecutor(workers, initializer=_install_simulator,
                                       initargs=(sim,))
          if workers > 1 else nullcontext()) as pool:
        run, task = (pool.map, _run_installed) if pool else (map, sim.run_frames)
        while frames < max_frames and fe_total < target_frame_errors:
            need = target_frame_errors - fe_total
            # frames that yield `need` errors at the FER seen so far, with
            # one extra failed frame counted so that it is never zero
            expected = -(-need * (frames + 1) // (fe_total + 1))
            size = min(expected, lanes * _BATCH, max_frames - frames)
            chunks = np.array_split(np.arange(frames, frames + size), min(lanes, size))
            results = list(run(task, chunks, repeat(snr_lambda), repeat(max_iter),
                               repeat(rng)))
            cum = fe_total + np.cumsum(np.concatenate([wrong for wrong, _ in results]))
            if cum[-1] >= target_frame_errors:
                size = int(np.searchsorted(cum, target_frame_errors)) + 1
            # the frame errors of the stopping prefix are its first `new` rows
            new = int(cum[size - 1]) - fe_total
            if new:
                rows = np.concatenate([info for _, info in results])[:new]
                if key is None:
                    key = FrameScrambler(k, rng.seed)
                be_total += int(np.count_nonzero(key.invert_bits(rows)))
            frames += size
            fe_total += new
    return FerBerEstimate(
        fer=fe_total / frames,
        ber=be_total / (frames * k),
        frames=frames,
        frame_errors=fe_total,
        bit_errors=be_total,
        confidence_halfwidth=wilson_halfwidth(fe_total, frames),
    )


@functools.cache
def _de_center_db(w_c: int, w_r: float) -> float:
    """DE threshold (dB) of a degree profile, computed once per process.

    Only a process that runs several walks on one profile saves anything:
    ``run_anchor_experiments.py --full`` runs three on (3, 4.0), while one
    ``skagree security-gap`` run computes it once.
    """
    return 10.0 * np.log10(decoding_threshold(w_c, w_r))


@dataclass
class SecurityGapResult:
    gap_db: float
    reliable_snr_db: float
    secure_snr_db: float
    points: list = field(default_factory=list)


def security_gap(
    h: ParityCheckMatrix,
    fer_reliable: float,
    fer_secure: float,
    rng: SeededRng,
    step_db: float = 0.2,
    max_frames: int = 20_000,
    target_frame_errors: int = 50,
    max_iter: int = 100,
    workers: int = 1,
) -> SecurityGapResult:
    """SNR ratio (dB) between reliable decoding and near-certain failure.

    Walks a dB grid centered on the density-evolution threshold of the
    code's degree profile (computed once per process for each profile),
    simulating FER at each point, then interpolates
    the two crossings: FER <= fer_reliable (log-FER interpolation) and
    FER >= fer_secure (linear interpolation near saturation). A
    ``step_db`` that cannot move the SNR off the center is a ValueError.
    """
    if not fer_secure > fer_reliable:
        raise ValueError("fer_secure must exceed fer_reliable")
    if not (step_db > 0 and np.isfinite(_GAP_SPAN_DB / step_db)):
        raise ValueError(f"step_db must be positive and span {_GAP_SPAN_DB} dB "
                         f"in finitely many steps, got {step_db}")
    w_c = int(np.bincount(h.col_weights()).argmax())
    w_r = h.n * w_c / h.num_checks
    center = _de_center_db(w_c, w_r)
    if center + step_db == center:
        raise ValueError(f"step_db {step_db} does not move the SNR from {center} dB")
    floor = 0.5 / max_frames
    cache: dict[int, FerBerEstimate] = {}

    def fer_at(stepno: int) -> float:
        if stepno not in cache:
            cache[stepno] = fer_ber_sim(
                h, 10 ** ((center + stepno * step_db) / 10.0), max_frames,
                target_frame_errors, max_iter, rng.spawn(1000 + stepno),
                workers=workers,
            )
        return max(cache[stepno].fer, floor)

    max_steps = int(np.ceil(_GAP_SPAN_DB / step_db))

    def crossing(target: float, log_interp: bool) -> float:
        # find adjacent grid steps with fer >= target (low side) and < target
        lo = 0
        while fer_at(lo) < target:
            lo -= 1
            if lo < -max_steps:
                raise RuntimeError("security-gap grid exhausted (low side)")
        hi = lo + 1
        while fer_at(hi) >= target:
            lo, hi = hi, hi + 1
            if hi > max_steps:
                raise RuntimeError("security-gap grid exhausted (high side)")
        f_lo, f_hi = fer_at(lo), fer_at(hi)
        if log_interp:
            frac = (np.log10(f_lo) - np.log10(target)) / (
                np.log10(f_lo) - np.log10(f_hi)
            )
        else:
            frac = (f_lo - target) / (f_lo - f_hi)
        return center + (lo + frac) * step_db

    secure_db = crossing(fer_secure, log_interp=False)
    reliable_db = crossing(fer_reliable, log_interp=True)
    points = [
        (center + s * step_db, est) for s, est in sorted(cache.items())
    ]
    return SecurityGapResult(
        gap_db=reliable_db - secure_db,
        reliable_snr_db=reliable_db,
        secure_snr_db=secure_db,
        points=points,
    )
