"""Achievable secret-key and secrecy rates for the low-power strategy.

All SNRs are linear (dimensionless); dB conversion happens only at the CLI
boundary. Rates are in bits per channel use. The rate functions take and
return arrays; a single pair is rated as ``secret_key_rates(*snr_pair(...))``.
"""

from __future__ import annotations

import numpy as np

from .ofdm import OfdmConfig, _as_taps, effective_channels

_LN2 = np.log(2.0)


def low_power_input(cfg: OfdmConfig, subcarrier: int, power: float) -> np.ndarray:
    """Rank-one diagonal input covariance: all power on one subcarrier.

    The nonzero entry is power / (1 + cp_overhead), which makes the
    transmitted time-domain energy equal ``power`` exactly.
    """
    k = np.zeros((cfg.subcarriers, cfg.subcarriers))
    k[subcarrier, subcarrier] = power / (1.0 + cfg.cp_overhead)
    return k


def best_subcarrier(gains) -> int:
    """Index of the largest-magnitude subcarrier gain, lowest index on ties."""
    gains = np.asarray(gains)
    if gains.size == 0:
        raise ValueError("empty gain vector")
    return int(np.argmax(np.abs(gains)))


def snr_pair(
    cfg: OfdmConfig, g_legit, g_eave, power: float, subcarrier: int
) -> tuple[float, float]:
    """Linear SNRs ``(lambda_r, lambda_e)`` when all power rides on one subcarrier."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    ch = effective_channels(cfg, g_legit, g_eave)
    scale = power / (1.0 + cfg.cp_overhead)
    lam_r = scale * np.abs(ch.subcarrier_gains[subcarrier]) ** 2
    lam_e = scale * np.sum(np.abs(ch.eavesdropper_matrix[:, subcarrier]) ** 2)
    return float(lam_r), float(lam_e)


def power_for_target_snr(cfg: OfdmConfig, g_legit, target_snr: float) -> float:
    """Power making the best-subcarrier legitimate SNR equal ``target_snr``."""
    gains = np.fft.fft(_as_taps(g_legit), n=cfg.subcarriers)
    peak = np.abs(gains[best_subcarrier(gains)])
    if peak == 0.0:
        raise ValueError("legitimate channel has zero gain on every subcarrier")
    return target_snr * (1.0 + cfg.cp_overhead) / peak**2


def secret_key_rates(lambda_r, lambda_e):
    """Vectorized log2((1 + lr + le) / (1 + le))."""
    lambda_r = np.asarray(lambda_r, dtype=float)
    lambda_e = np.asarray(lambda_e, dtype=float)
    return (np.log1p(lambda_r + lambda_e) - np.log1p(lambda_e)) / _LN2


def secrecy_rates(lambda_r, lambda_e):
    """Vectorized degraded-wiretap secrecy rate [log2(1 + lr) - log2(1 + le)]^+.

    This comparison curve with the same rank-one input is a reconstruction
    (the standard Gaussian wiretap expression), and is labelled as such in
    experiment outputs.
    """
    lambda_r = np.asarray(lambda_r, dtype=float)
    lambda_e = np.asarray(lambda_e, dtype=float)
    return np.maximum(0.0, (np.log1p(lambda_r) - np.log1p(lambda_e)) / _LN2)


def _psd_sqrt(k: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(k)
    tol = 1e-10 * max(1.0, float(vals[-1]) if vals.size else 1.0)
    if vals[0] < -tol:
        raise ValueError(f"input covariance is not PSD (min eigenvalue {vals[0]:.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _log2det_eye_plus(a: np.ndarray) -> float:
    # a is Hermitian PSD; eigenvalue route keeps the log-det stable.
    vals = np.linalg.eigvalsh(a)
    return float(np.sum(np.log1p(np.clip(vals, 0.0, None))) / _LN2)


def mimo_secret_key_rate(subcarrier_gains, eavesdropper_matrix, input_cov) -> float:
    """Secret-key rate of the vector channel for an arbitrary input covariance.

    log2 |I + K^(1/2) (Hr* Hr + He* He) K^(1/2)| - log2 |I + K^(1/2) He* He K^(1/2)|
    with Hr the diagonal legitimate channel and He the eavesdropper matrix.
    """
    gains = np.asarray(subcarrier_gains, dtype=complex)
    h_e = np.asarray(eavesdropper_matrix, dtype=complex)
    m = gains.size
    k_u = np.asarray(input_cov, dtype=complex)
    if k_u.shape != (m, m):
        raise ValueError("input covariance has wrong shape")
    root = _psd_sqrt(k_u)
    gram_e = h_e.conj().T @ h_e
    gram_total = np.diag(np.abs(gains) ** 2).astype(complex) + gram_e
    both = _log2det_eye_plus(root @ gram_total @ root)
    eave_only = _log2det_eye_plus(root @ gram_e @ root)
    return both - eave_only
