"""Eavesdropper SNR statistics and secret-key rate outage analysis.

With Rayleigh taps, the eavesdropper SNR on the chosen subcarrier is a
Hermitian quadratic form in the (unit-variance) tap vector, so it is
distributed as a weighted sum of independent unit exponentials whose means
are the eigenvalues of that form. Everything here is built around that
matrix and its closed-form CDF, with two rate-outage estimators: Monte
Carlo through the matrix channel model, and a conditional one that draws
only the legitimate channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PdpProfile, SeededRng, sample_tap_matrix
from .ofdm import OfdmConfig, eavesdropper_column_energies
from .rates import secret_key_rates, secrecy_rates

_DEGENERATE_GAP = 1e-6
_COEFF_BLOWUP = 1e8
_EIGENVALUE_CUTOFF = 1e-12
_INTERVAL_CONFIDENCE = 0.999
# Legitimate channels drawn per chunk. The streams are counter-based and
# the conditional estimator sums once, so no result depends on it. At
# M=256 the time per draw is flat from 256 to 2048 draws a chunk while the
# working set doubles with each doubling; 512 keeps a chunk's spectrum
# (16 bytes per subcarrier and draw) at 2 MiB, a core's L2 on the 2-core
# Xeon measured.
_CHUNK = 512


@dataclass(frozen=True)
class EigenSpectrum:
    """Nonnegative eigenvalues sorted descending, tiny ones dropped.

    Eigenvalues below 1e-12 of the largest contribute a point mass at zero
    within tolerance and are removed; the retained count is what the
    closed-form CDF uses.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.eigenvalues, dtype=float))[::-1].copy()
        if vals.size < 1:
            raise ValueError("empty spectrum")
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalues must be finite")
        if vals[-1] < 0:
            raise ValueError("eigenvalues must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @classmethod
    def from_matrix(cls, c) -> "EigenSpectrum":
        """Spectrum of a real symmetric PSD matrix c, gamma* c gamma ~ SNR."""
        c = np.asarray(c)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("quadratic form must be square")
        if not np.all(np.isfinite(c)):
            raise ValueError("quadratic form must be finite")
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("quadratic form must be symmetric")
        vals = np.linalg.eigvalsh(c)
        if vals[0] < -1e-10 * max(1.0, vals[-1]):
            raise ValueError("matrix is not PSD")
        vals = np.clip(vals, 0.0, None)
        total = float(vals.sum())
        trace = float(np.trace(c))
        if abs(total - trace) > 1e-9 * max(abs(total), abs(trace), 1e-300):
            raise ValueError("eigenvalue sum inconsistent with trace")
        kept = vals[vals > _EIGENVALUE_CUTOFF * vals[-1]] if vals[-1] > 0 else vals[-1:]
        return cls(kept)


def build_c_matrix(cfg: OfdmConfig, pdp: PdpProfile, power: float) -> np.ndarray:
    """Read-only PSD matrix c with gamma* c gamma ~ eavesdropper SNR, gamma ~ CN(0, I).

    By phase symmetry the law is the same on every subcarrier. The column
    energy of the effective eavesdropper channel decomposes into prefix
    partial sums, (N - L + 1) copies of the full tap sum, and suffix partial
    sums; absorbing the PDP into unit-variance taps and the
    power / (1 + cp_overhead) loading gives

        c = s * D^(1/2) [ sum u_n u_n^T + (N-L+1) 1 1^T + sum v_n v_n^T ] D^(1/2) / M

    with u_n (v_n) the indicator of the first n (last L-n) taps and
    D = diag(tap powers). Entry (i, j) of the bracket counts
    min(i, j) + (N-L+1) + (L-1-max(i, j)) = N - |i - j|. The eigenvalues
    equal those of the dense model's Gram matrix in the test suite.
    """
    n_taps = pdp.length
    if n_taps > cfg.block_len:
        raise ValueError("PDP longer than one OFDM block")
    big_n, big_m = cfg.block_len, cfg.subcarriers
    idx = np.arange(n_taps)
    core = big_n - np.abs(idx[:, None] - idx[None, :])
    root = np.sqrt(pdp.tap_powers)
    scale = power / (1.0 + cfg.cp_overhead) / big_m
    # an entry that overflows is inf, which ``EigenSpectrum.from_matrix`` rejects
    with np.errstate(over="ignore"):
        c = scale * (root[:, None] * core * root[None, :])
    c.setflags(write=False)
    return c


def _hypoexponential_cdf_closed_form(theta: np.ndarray, lam: np.ndarray):
    """Partial-fraction CDF for distinct eigenvalues; None if ill-conditioned.

    The coefficients prod_j lam_i / (lam_i - lam_j) depend on the gaps
    relative to the eigenvalues, so near-degeneracy is judged by the
    relative gap |lam_i - lam_j| / max(lam_i, lam_j), not by an absolute one.
    The eigenvalues must be positive; ``lambda_e_cdf`` drops exact zeros.
    """
    gaps = lam[:, None] - lam[None, :]
    relative = np.abs(gaps) / np.maximum(lam[:, None], lam[None, :])
    if not np.all(relative[~np.eye(lam.size, dtype=bool)] >= _DEGENERATE_GAP):
        return None
    np.fill_diagonal(gaps, 1.0)
    ratios = lam[:, None] / gaps
    np.fill_diagonal(ratios, 1.0)
    coeff = np.prod(ratios, axis=1)
    if np.max(np.abs(coeff)) > _COEFF_BLOWUP:
        return None
    # one dot product per theta: a matrix-vector product may sum its last
    # rows in another order, so a value would depend on the rows beside it
    terms = np.exp(-theta[:, None, None] / lam[None, None, :])
    cdf = 1.0 - (terms @ coeff[:, None])[:, 0, 0]
    return np.clip(cdf, 0.0, 1.0)


def _hypoexponential_cdf_phase_type(theta: np.ndarray, lam: np.ndarray):
    """Matrix-exponential evaluation, stable for repeated eigenvalues."""
    from scipy.linalg import expm  # imported on use: slow to load

    rates = 1.0 / lam
    gen = np.diag(-rates)
    gen += np.diag(rates[:-1], k=1)
    # expm takes each matrix of the (theta, k, k) stack on its own
    out = 1.0 - expm(gen * theta[:, None, None])[:, 0].sum(axis=1)
    return np.clip(out, 0.0, 1.0)


def lambda_e_cdf(theta, spec: EigenSpectrum):
    """CDF of the eavesdropper SNR: sum of Exp(mean lambda_i) variables.

    Uses the partial-fraction closed form when the spectrum is distinct and
    well conditioned, otherwise the phase-type matrix-exponential route.
    The result has the shape of ``theta``.
    """
    shape = np.shape(theta)
    arr = np.asarray(theta, dtype=float).reshape(-1)
    if not np.all(arr >= 0):
        raise ValueError("theta must be nonnegative, not NaN")
    # an exactly-zero eigenvalue adds an Exp(0) term: zero
    lam = spec.eigenvalues[spec.eigenvalues > 0.0]
    if lam.size == 0:
        out = np.ones_like(arr)  # degenerate point mass at zero
    else:
        out = _hypoexponential_cdf_closed_form(arr, lam)
        if out is None:
            out = _hypoexponential_cdf_phase_type(arr, lam)
    return float(out[0]) if shape == () else out.reshape(shape)


def _binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P{Binomial(n, p) <= k} >= q, by bisection over k."""
    from scipy.special import bdtr  # imported on use: slow to load

    below, k = -1, n  # P{B <= below} < q <= P{B <= k}
    while k - below > 1:
        mid = (below + k) // 2
        if bdtr(mid, n, p) >= q:
            k = mid
        else:
            below = mid
    return k


@dataclass
class RateCdf:
    """Sorted Monte Carlo samples of both rates, with a quantile accessor."""

    secret_key_rates: np.ndarray
    secrecy_rates: np.ndarray

    def rate_at_outage(self, p: float) -> float:
        """Largest secret-key rate R whose empirical P{rate < R} does not exceed p."""
        if not 0 <= p <= 1:
            raise ValueError("outage probability must be in [0, 1]")
        samples = self.secret_key_rates
        idx = min(int(np.floor(p * samples.size)), samples.size - 1)
        return float(samples[idx])

    def outage_interval(self, p: float) -> tuple[float, float]:
        """Distribution-free 99.9% confidence interval for the rate at outage ``p``.

        With B ~ Binomial(n, p) the number of samples below the true
        p-quantile, the order statistics of ranks l = F_B^-1(a/2) and
        u = F_B^-1(1 - a/2) + 1 (1-based, a = 1 - 0.999) bracket it with
        probability at least 0.999, each tail missing at most a/2.
        """
        if not 0 < p < 1:
            raise ValueError("need 0 < p < 1")
        samples = self.secret_key_rates
        n = samples.size
        alpha = 1.0 - _INTERVAL_CONFIDENCE
        lo = _binomial_quantile(alpha / 2, n, p)
        hi = _binomial_quantile(1.0 - alpha / 2, n, p) + 1
        if lo < 1 or hi > n:
            raise ValueError("too few samples to bound this quantile")
        return float(samples[lo - 1]), float(samples[hi - 1])


def _legit_peaks(cfg: OfdmConfig, pdp_legit: PdpProfile, samples: int, rng: SeededRng):
    """Chunks of (best subcarrier, squared peak gain) of the legitimate link.

    Both rate-outage estimators draw their legitimate channels here, from
    ``rng.spawn(0)``, so they share one peak law; the counter-based stream
    makes the draws independent of ``_CHUNK``. Every chunk of at most
    ``_CHUNK`` draws is transformed into the same spectrum and gain
    buffers, so the working set is set by the chunk, not by ``samples``.
    Arguments are checked at call time, before the first chunk is drawn.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if pdp_legit.length > cfg.cp_len:
        raise ValueError("legitimate PDP longer than the cyclic prefix")
    rng_legit = rng.spawn(0)

    def chunks():
        block = min(_CHUNK, samples)
        spectrum = np.empty((block, cfg.subcarriers), dtype=complex)
        gains = np.empty((block, cfg.subcarriers))
        for done in range(0, samples, block):
            take = min(block, samples - done)
            taps = sample_tap_matrix(pdp_legit, rng_legit, take)
            np.fft.fft(taps, n=cfg.subcarriers, axis=1, out=spectrum[:take])
            np.abs(spectrum[:take], out=gains[:take])
            m_best = np.argmax(gains[:take], axis=1)
            yield m_best, gains[np.arange(take), m_best] ** 2

    return chunks()


def sk_rate_outage_cdf(
    cfg: OfdmConfig,
    pdp_legit: PdpProfile,
    pdp_eave: PdpProfile,
    target_lambda_r_db: float,
    samples: int,
    rng: SeededRng,
) -> RateCdf:
    """Monte Carlo CDF of the achievable rates at a fixed legitimate SNR.

    Per draw: realize both channels, pick the best subcarrier, set the power
    so the legitimate SNR hits the dB target exactly, and evaluate both the
    secret-key rate and the (reconstructed) secrecy comparison rate.
    """
    peaks = _legit_peaks(cfg, pdp_legit, samples, rng)
    target = 10.0 ** (target_lambda_r_db / 10.0)
    sk = np.empty(samples)
    sec = np.empty(samples)
    overhead = 1.0 + cfg.cp_overhead
    # one stream per link keeps results independent of ``_CHUNK``
    rng_eave = rng.spawn(1)
    done = 0
    for m_best, peak_sq in peaks:
        take = m_best.size
        taps_e = sample_tap_matrix(pdp_eave, rng_eave, take)
        power = target * overhead / peak_sq
        lam_e = (power / overhead) * eavesdropper_column_energies(
            cfg, taps_e, m_best
        )
        sk[done:done + take] = secret_key_rates(target, lam_e)
        sec[done:done + take] = secrecy_rates(target, lam_e)
        done += take
    return RateCdf(secret_key_rates=np.sort(sk), secrecy_rates=np.sort(sec))


def sk_rate_outage_probability(
    cfg: OfdmConfig,
    pdp_legit: PdpProfile,
    pdp_eave: PdpProfile,
    target_lambda_r_db: float,
    rates,
    samples: int,
    rng: SeededRng,
):
    """Conditional (Rao-Blackwellized) estimate of P{secret-key rate < r}.

    Same model as ``sk_rate_outage_cdf``. Its power rule puts the legitimate
    SNR at ``target`` on the best subcarrier, which makes the eavesdropper
    SNR there lambda_e = target * Q / peak^2: peak is the largest legitimate
    subcarrier gain, and Q = gamma* C gamma with
    C = build_c_matrix(cfg, pdp_eave, 1 + cp_overhead) is the eavesdropper
    column energy. By phase symmetry the law of Q is the same on every
    subcarrier, and the eavesdropper taps are independent of the legitimate
    ones, so Q is independent of peak. The secret-key rate
    log2((1 + target + lambda_e) / (1 + lambda_e)) falls below r > 0 exactly
    when lambda_e > theta(r) = target / (2^r - 1) - 1, hence

        P{R_sk < r} = E_peak[ S_Q(theta(r) * peak^2 / target) ],

    with S_Q = 1 - lambda_e_cdf the closed-form survival function of Q. Only
    the legitimate peak is drawn, from the stream ``sk_rate_outage_cdf``
    uses for the legitimate link; the eavesdropper average is exact, so no
    indicator variance is left at small outage probabilities. Rates at or
    above log2(1 + target) give probability 1, rates <= 0 give 0, a NaN
    rate is a ValueError, and when no rate is above 0 no peak is drawn.
    """
    r = np.atleast_1d(np.asarray(rates, dtype=float))
    if np.isnan(r).any():
        raise ValueError("rates must not be NaN")
    peaks = _legit_peaks(cfg, pdp_legit, samples, rng)
    target = 10.0 ** (target_lambda_r_db / 10.0)
    theta = np.zeros(r.size)
    positive = r > 0
    growth = np.expm1(r[positive] * np.log(2.0))  # 2^r - 1
    theta[positive] = np.maximum(target / growth - 1.0, 0.0)
    spec = EigenSpectrum.from_matrix(
        build_c_matrix(cfg, pdp_eave, 1.0 + cfg.cp_overhead)
    )
    total = np.zeros(r.size)
    if positive.any():
        # every peak's survival is kept and summed once, so the sums do not
        # depend on how the peaks were chunked
        survival = np.empty((np.count_nonzero(positive), samples))
        done = 0
        for _, peak_sq in peaks:
            take = peak_sq.size
            grid = theta[positive, None] * peak_sq / target  # (positive rates, peaks)
            np.subtract(1.0, lambda_e_cdf(grid, spec), out=survival[:, done:done + take])
            done += take
        total[positive] = survival.sum(axis=1)
    out = total / samples
    return float(out[0]) if np.ndim(rates) == 0 else out
