#!/usr/bin/env python3
"""Per-step cost of the sum-product decoder, in us per frame-iteration.

Builds a rate-1/4, column-weight-3 PEG code, draws noisy all-zero codewords
(the decoder is symmetric in the codeword) and times the decoder's own
steps of one iteration on a single slice of frames: the gather of the
posteriors onto the check slot planes, the check parity read off that
gather, the check update (subtract, clip, tanh, leave-one-out products,
arctanh) and the posteriors (the variable-side gather and the sums). No
frame retires, so every iteration covers the whole slice. Example:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/profile_decoder.py \\
        --n 5000 --snr-db -1.6 --frames 4
"""

import argparse
import time
from collections import Counter

import numpy as np

from skagree.channels import SeededRng
from skagree.ldpc import SumProductDecoder, peg_construct
from skagree.ldpc.modem import llrs_from_rx, qpsk_symbols

RATE, W_C, SEED = 0.25, 3, 1234  # the code of the benchmark's decoder workloads
ITERS, REPEAT = 20, 5  # iterations per run; each step reports its best run
STEPS = ("gather to checks", "parity", "check update", "posteriors")


def profile(decoder: SumProductDecoder, llrs: np.ndarray) -> Counter:
    """Seconds spent in each step over ``ITERS`` iterations of one slice."""
    frames = llrs.shape[0]
    # edge-major state, one column per frame, as the decoder holds it
    half_llr = np.ascontiguousarray(0.5 * np.clip(llrs, -decoder.clamp, decoder.clamp).T)
    post = half_llr.copy()
    c = np.zeros((decoder.n_edges + 1, frames))
    t = np.empty((decoder.n_edges, frames))
    g = np.empty((decoder._var_gather.size, frames))
    neg = np.empty(t.shape, dtype=bool)
    spent = Counter()
    clock = time.perf_counter
    for _ in range(ITERS):
        marks = [clock()]
        np.take(post, decoder._var_of_pos, axis=0, out=t, mode="clip")
        marks.append(clock())
        decoder._checks_satisfied(t, neg)
        marks.append(clock())
        decoder._check_update(t, c)
        marks.append(clock())
        decoder._posteriors(half_llr, c, g, out=post)
        marks.append(clock())
        for step, a, b in zip(STEPS, marks, marks[1:]):
            spent[step] += b - a
    return spent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=5000, help="code length")
    parser.add_argument("--snr-db", type=float, default=-1.6, help="symbol SNR")
    parser.add_argument("--frames", type=int, default=0,
                        help="slice size (default: the decoder's own slice)")
    args = parser.parse_args()

    rng = SeededRng(SEED)
    h = peg_construct(args.n, RATE, W_C, rng.spawn(0))
    decoder = SumProductDecoder(h)
    frames = args.frames or decoder._slice_frames
    snr = 10.0 ** (args.snr_db / 10.0)
    words = np.zeros((frames, h.n), dtype=np.uint8)
    noise = rng.spawn(1).complex_normals((frames, (h.n + 1) // 2))
    llrs = llrs_from_rx(qpsk_symbols(words, snr) + noise, snr, h.n)

    runs = [profile(decoder, llrs) for _ in range(REPEAT)]
    scale = 1e6 / (ITERS * frames)
    print(f"n={h.n} m={h.num_checks} edges={decoder.n_edges} frames={frames} "
          f"snr_db={args.snr_db} iters={ITERS} best of {REPEAT}")
    total = 0.0
    for step in STEPS:
        best = scale * min(run[step] for run in runs)
        total += best
        print(f"  {step:<18} {best:8.1f} us per frame-iteration")
    print(f"  {'sum of steps':<18} {total:8.1f} us per frame-iteration")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
