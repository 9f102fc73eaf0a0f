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
    """Map bit pairs (I, Q) to symbols of energy ``snr_lambda``; pads odd tails."""
    arr = np.asarray(bits, dtype=np.uint8)
    squeeze = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] % 2:
        arr = np.pad(arr, ((0, 0), (0, 1)))
    amp = np.sqrt(snr_lambda / 2.0)
    signs = 1.0 - 2.0 * arr.astype(float)
    sym = amp * (signs[:, 0::2] + 1j * signs[:, 1::2])
    return sym[0] if squeeze else sym


def llrs_from_rx(received: np.ndarray, snr_lambda: float, n_bits: int) -> np.ndarray:
    """Per-bit channel LLRs from received symbols: 4 * sqrt(snr/2) * quadrature."""
    rx = np.atleast_2d(received)
    gain = 4.0 * np.sqrt(snr_lambda / 2.0)
    llrs = np.empty((rx.shape[0], 2 * rx.shape[1]))
    llrs[:, 0::2] = gain * rx.real
    llrs[:, 1::2] = gain * rx.imag
    llrs = llrs[:, :n_bits]
    return llrs[0] if np.asarray(received).ndim == 1 else llrs
