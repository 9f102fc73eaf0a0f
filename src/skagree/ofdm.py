"""Exact matrix model of an OFDM/CP link and the induced wiretap channels.

The dense matrices here are the reference ("oracle") path; structured
shortcuts such as :func:`eavesdropper_column_energies` are validated against
them in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM dimensioning: data tones plus cyclic-prefix samples per symbol."""

    subcarriers: int
    cp_len: int

    def __post_init__(self):
        if int(self.subcarriers) != self.subcarriers or self.subcarriers < 2:
            raise ValueError("subcarriers must be an integer >= 2")
        if int(self.cp_len) != self.cp_len or self.cp_len < 1:
            raise ValueError("cp_len must be an integer >= 1")

    @property
    def block_len(self) -> int:
        """Time-domain samples per OFDM symbol (subcarriers + cp_len)."""
        return self.subcarriers + self.cp_len

    @property
    def cp_overhead(self) -> float:
        """Prefix redundancy ratio cp_len / subcarriers."""
        return self.cp_len / self.subcarriers


def _as_taps(g) -> np.ndarray:
    taps = np.asarray(g, dtype=complex)
    if taps.ndim != 1 or taps.size < 1:
        raise ValueError("taps must be a non-empty 1-d vector")
    return taps


def dft_matrix(m: int) -> np.ndarray:
    """Unitary m-point DFT matrix (1/sqrt(m) scaling)."""
    idx = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


def toeplitz_conv_matrix(g, n: int) -> np.ndarray:
    """(n+L-1) x n Toeplitz matrix whose action is linear convolution with g.

    First column [g(0), ..., g(L-1), 0, ...], first row [g(0), 0, ..., 0].
    """
    taps = _as_taps(g)
    if n < 1:
        raise ValueError("n must be >= 1")
    # entry (i, j) is g(i - j), read off g padded with n - 1 zeros each side
    padded = np.concatenate([np.zeros(n - 1, dtype=complex), taps,
                             np.zeros(n - 1, dtype=complex)])
    diag = np.arange(n + taps.size - 1)[:, None] - np.arange(n)
    return padded[diag + (n - 1)]


def modulator_matrix(cfg: OfdmConfig) -> np.ndarray:
    """Transmit matrix mapping subcarrier symbols to time samples with CP.

    Inverse unitary DFT followed by copying the last cp_len samples to the
    front; shape (block_len, subcarriers).
    """
    f_star = dft_matrix(cfg.subcarriers).conj()
    return np.vstack([f_star[cfg.subcarriers - cfg.cp_len:], f_star])


def _receiver_matrix(cfg: OfdmConfig, channel_len: int) -> np.ndarray:
    """DFT of the block after discarding the prefix; no ISI-free guard."""
    m = cfg.subcarriers
    r = np.zeros((m, cfg.block_len + channel_len - 1), dtype=complex)
    r[:, cfg.cp_len:cfg.cp_len + m] = dft_matrix(m)
    return r


def demodulator_matrix(cfg: OfdmConfig, channel_len: int) -> np.ndarray:
    """Receive matrix for a legitimate channel of ``channel_len`` taps.

    Shape (subcarriers, block_len + channel_len - 1). Requires
    channel_len <= cp_len, otherwise the prefix cannot absorb the delay
    spread and ISI-free demodulation is impossible.
    """
    if channel_len < 1:
        raise ValueError("channel_len must be >= 1")
    if channel_len > cfg.cp_len:
        raise ValueError(
            f"channel has {channel_len} taps but the cyclic prefix is only "
            f"{cfg.cp_len} samples: ISI-free demodulation impossible"
        )
    return _receiver_matrix(cfg, channel_len)


@dataclass(frozen=True)
class EffectiveChannels:
    """Post-modulation equivalent channels.

    ``subcarrier_gains``: per-tone complex gains of the legitimate link
    (the demodulated channel is diagonal with these entries).
    ``eavesdropper_matrix``: full time-domain matrix seen by an eavesdropper
    who keeps every sample, including the prefix.
    """

    subcarrier_gains: np.ndarray
    eavesdropper_matrix: np.ndarray


def effective_channels(cfg: OfdmConfig, g_legit, g_eave) -> EffectiveChannels:
    """Reduce the Toeplitz channel model to its per-subcarrier equivalents."""
    legit = _as_taps(g_legit)
    eave = _as_taps(g_eave)
    if legit.size > cfg.cp_len:
        raise ValueError(
            f"legitimate channel has {legit.size} taps but cp_len={cfg.cp_len}"
        )
    gains = np.fft.fft(legit, n=cfg.subcarriers)
    h_e = toeplitz_conv_matrix(eave, cfg.block_len) @ modulator_matrix(cfg)
    return EffectiveChannels(gains, h_e)


def eavesdropper_column_energies(cfg: OfdmConfig, taps: np.ndarray,
                                 subcarriers: np.ndarray) -> np.ndarray:
    """Squared norms of eavesdropper-matrix columns without the dense product.

    Each column of the eavesdropper matrix is the convolution of the taps
    with a pure tone of constant modulus 1/sqrt(M), so its energy reduces to
    prefix/suffix partial sums of phase-twisted taps: the (N - L + 1) fully
    overlapped output samples carry |full sum|^2 each, and the convolution
    ramps contribute the prefix and suffix partial sums once.

    ``taps``: (batch, L); ``subcarriers``: (batch,) integers, one column
    per row of taps.
    """
    n_taps = taps.shape[1]
    big_n, big_m = cfg.block_len, cfg.subcarriers
    if n_taps > big_n:
        raise ValueError("channel longer than one OFDM block")
    phase = np.exp(-2j * np.pi * np.outer(subcarriers, np.arange(n_taps)) / big_m)
    twisted = taps * phase
    prefix = np.cumsum(twisted, axis=1)
    full = prefix[:, -1]
    energy = (big_n - n_taps + 1) * np.abs(full) ** 2
    if n_taps > 1:
        suffix = full[:, None] - prefix[:, :-1]
        energy = energy + np.sum(np.abs(prefix[:, :-1]) ** 2
                                 + np.abs(suffix) ** 2, axis=1)
    return energy / big_m
