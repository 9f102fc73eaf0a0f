"""Gray-mapped QPSK over the complex AWGN channel, emitting bit LLRs.

Conventions: the complex noise has unit variance (1/2 per quadrature), the
symbol energy equals the linear symbol SNR ``snr_lambda``, and each QPSK
symbol carries two coded bits, one per quadrature, each with energy
snr_lambda / 2. Positive LLR favors bit 0. The per-bit channel LLR is then
Gaussian with mean 2 * snr_lambda and variance 4 * snr_lambda for the
transmitted bit (variance equal to twice the mean, the consistency
property the density-evolution approximation relies on).
"""

from __future__ import annotations

import numpy as np


def qpsk_symbols(bits: np.ndarray, snr_lambda: float) -> np.ndarray:
    """Map (batch, n) bit pairs (I, Q) to symbols of energy ``snr_lambda``;
    pads odd tails."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.shape[1] % 2:
        arr = np.pad(arr, ((0, 0), (0, 1)))
    amp = np.sqrt(snr_lambda / 2.0)
    signs = 1.0 - 2.0 * arr.astype(float)
    return amp * (signs[:, 0::2] + 1j * signs[:, 1::2])


def llrs_from_rx(received: np.ndarray, snr_lambda: float, n_bits: int) -> np.ndarray:
    """(batch, n_bits) channel LLRs from (batch, symbols) received symbols:
    4 * sqrt(snr/2) * quadrature.

    A complex128 array stores each symbol's real and imaginary parts side
    by side, which is the LLR order (I bit, then Q bit), so the LLRs are
    ``received`` scaled in place and viewed as floats. A contiguous
    complex128 ``received`` is overwritten; pass a temporary or a copy.
    """
    gain = 4.0 * np.sqrt(snr_lambda / 2.0)
    llrs = np.ascontiguousarray(received, dtype=complex).view(np.float64)
    llrs *= gain
    return llrs[:, :n_bits]
