#!/usr/bin/env python3
"""Per-step cost of the sum-product decoder, in us per frame-iteration.

Builds a rate-1/4, column-weight-3 PEG code, draws noisy all-zero codewords
(the decoder is symmetric in the codeword) and times, in the message dtype
the frame simulator decodes in (``sim.MESSAGE_DTYPE``), the decoder's own
steps of one iteration on a single window of frames: the gather of the
posteriors onto the check slot planes, the check parity read off that
gather, the check update (subtract, clip, tanh, leave-one-out products,
arctanh) and the posteriors (the variable-side gather and the sums). No
frame retires, so every iteration covers the whole window. It then times
``decode_batch`` end to end over a batch of frames at the same SNR, where
frames retire and refill their columns, per frame-iteration of the batch.
Example:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/profile_decoder.py \\
        --n 5000 --snr-db -1.6 --frames 4
"""

import argparse
import time
from collections import Counter

import numpy as np

from skagree.channels import SeededRng
from skagree.ldpc import SumProductDecoder, peg_construct
from skagree.ldpc.decoder import _CLAMP
from skagree.ldpc.modem import llrs_from_rx, qpsk_symbols
from skagree.ldpc.sim import MESSAGE_DTYPE

RATE, W_C, SEED = 0.25, 3, 1234  # the code of the benchmark's decoder workloads
ITERS, REPEAT = 20, 5  # iterations per run; each step reports its best run
MAX_ITER = 100  # the end-to-end decode's iteration limit, as in the benchmark
WINDOWS = 8  # the end-to-end decode's batch, in windows of frames
STEPS = ("gather to checks", "parity", "check update", "posteriors")


def profile(decoder: SumProductDecoder, llrs: np.ndarray) -> Counter:
    """Seconds spent in each step over ``ITERS`` iterations of one window."""
    frames, dtype = llrs.shape[0], decoder.dtype
    # edge-major state, one column per frame, as the decoder holds it
    half_llr = np.ascontiguousarray(0.5 * np.clip(llrs, -_CLAMP, _CLAMP).T, dtype=dtype)
    post = half_llr.copy()
    c = np.zeros((decoder.n_edges + 1, frames), dtype=dtype)
    t = np.empty((decoder.n_edges, frames), dtype=dtype)
    g = np.empty((decoder._var_gather.size, frames), dtype=dtype)
    neg = np.empty(t.shape, dtype=bool)
    spent = Counter()
    clock = time.perf_counter
    for _ in range(ITERS):
        marks = [clock()]
        np.take(post, decoder._var_of_pos, axis=0, out=t, mode="clip")
        marks.append(clock())
        np.less(t, 0.0, out=neg)
        decoder._checks_satisfied(neg)
        marks.append(clock())
        decoder._check_update(t, c)
        marks.append(clock())
        decoder._posteriors(half_llr, c, g, out=post)
        marks.append(clock())
        for step, a, b in zip(STEPS, marks, marks[1:]):
            spent[step] += b - a
    return spent


def decode_seconds(decoder: SumProductDecoder, llrs: np.ndarray) -> tuple[float, int]:
    """Seconds of one ``decode_batch`` call and the frame-iterations it ran."""
    start = time.perf_counter()
    _, _, iterations = decoder.decode_batch(llrs, max_iter=MAX_ITER)
    return time.perf_counter() - start, int(iterations.sum())


def noisy_zero_words(h, snr_db: float, frames: int, rng: SeededRng) -> np.ndarray:
    """Channel LLRs of ``frames`` all-zero codewords."""
    snr = 10.0 ** (snr_db / 10.0)
    words = np.zeros((frames, h.n), dtype=np.uint8)
    noise = rng.complex_normals((frames, (h.n + 1) // 2))
    return llrs_from_rx(qpsk_symbols(words, snr) + noise, snr, h.n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=5000, help="code length")
    parser.add_argument("--snr-db", type=float, default=-1.6, help="symbol SNR")
    parser.add_argument("--frames", type=int, default=0,
                        help="window size (default: the decoder's own window)")
    args = parser.parse_args(argv)

    rng = SeededRng(SEED)
    h = peg_construct(args.n, RATE, W_C, rng.spawn(0))
    decoder = SumProductDecoder(h, dtype=MESSAGE_DTYPE)
    if args.frames:
        decoder._window_frames = args.frames
    frames = decoder._window_frames
    llrs = noisy_zero_words(h, args.snr_db, frames, rng.spawn(1))

    runs = [profile(decoder, llrs) for _ in range(REPEAT)]
    scale = 1e6 / (ITERS * frames)
    print(f"n={h.n} m={h.num_checks} edges={decoder.n_edges} frames={frames} "
          f"dtype={decoder.dtype} snr_db={args.snr_db} iters={ITERS} best of {REPEAT}")
    total = 0.0
    for step in STEPS:
        best = scale * min(run[step] for run in runs)
        total += best
        print(f"  {step:<18} {best:8.1f} us per frame-iteration")
    print(f"  {'sum of steps':<18} {total:8.1f} us per frame-iteration")

    batch = WINDOWS * frames
    llrs = noisy_zero_words(h, args.snr_db, batch, rng.spawn(2))
    seconds, frame_iters = min(decode_seconds(decoder, llrs) for _ in range(REPEAT))
    if frame_iters:
        print(f"  {'decode_batch':<18} {1e6 * seconds / frame_iters:8.1f} us per "
              f"frame-iteration ({batch} frames, {frame_iters / batch:.1f} iterations "
              "each, retirement and refill included)")
    else:
        print(f"  {'decode_batch':<18} every one of {batch} frames decoded at the channel")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
