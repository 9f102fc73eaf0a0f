"""Output checks that do not rely on the program's own answers.

Each check takes plain arrays, recomputes what it needs with numpy (or
judges a property the model must have), and returns a list of problems;
an empty list means the output passed. The benchmark runs them after its
clock stops; ``test_checks.py`` shows that each rejects a corrupted output.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

Z95 = 1.959963984540054
# two-sided 1e-6: a check at this level fails a correct program about once in
# a million checks, so no seed of the benchmark fails it by chance
Z_STRICT = 4.891638475698831


def wilson(errors: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    p = errors / trials
    denom = 1.0 + z * z / trials
    mid = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return mid - half, mid + half


# -- LDPC code and frames ------------------------------------------------------
def check_code(h: np.ndarray, n: int, rate: float, w_c: int) -> list[str]:
    """Shape, column weight, mean row weight and girth >= 6 of a dense H."""
    m = int(round(n * (1 - rate)))
    if h.shape != (m, n):
        return [f"H has shape {h.shape}, expected {(m, n)}"]
    problems = []
    cols = h.sum(axis=0)
    if np.any(cols != w_c):
        problems.append(f"column weights {sorted(set(cols.tolist()))}, expected {w_c}")
    mean_row = h.sum() / m
    if abs(mean_row - n * w_c / m) > 1e-9:
        problems.append(f"mean row weight {mean_row}, expected {n * w_c / m}")
    hf = h.astype(np.float32)
    overlap = hf @ hf.T  # exact: entries are small integers
    np.fill_diagonal(overlap, 0.0)
    if overlap.max(initial=0.0) > 1:
        problems.append("two checks share two variables (4-cycle, girth < 6)")
    return problems


def check_codewords(h: np.ndarray, words: np.ndarray) -> list[str]:
    """H c = 0 (mod 2) for every row c of ``words``."""
    syn = (h.astype(np.int64) @ words.T.astype(np.int64)) & 1
    bad = int(np.any(syn, axis=0).sum())
    return [f"{bad} of {len(words)} words violate H c = 0"] if bad else []


def check_count(got: int, requested: int, what: str) -> list[str]:
    return [] if got == requested else [f"{got} {what}, requested {requested}"]


def check_fer_anchor(errors: int, frames: int, bound: float, side: str) -> list[str]:
    """Criterion-4 anchor judged by the Wilson interval at ``frames``.

    ``side='min'``: FER >= bound must be plausible (upper end >= bound). The
    n=5000 code's FER at -2.2 dB (483 of 576 frames, 0.84) sits on criterion
    4's 0.85, so at 95% a correct program would fail one 32-frame check in
    17; the strict level fails about one in 24 000, and passes from 18
    errors of 32 (FER 0.56) up.
    ``side='max'``: FER <= bound must be plausible (lower end <= bound), at
    95%: at -1.2 dB no frame failed in thousands, and 4 errors of 128 (FER
    0.031) already fail the check.
    """
    lo, hi = wilson(errors, frames, Z_STRICT if side == "min" else Z95)
    if side == "min" and hi < bound:
        return [f"FER {errors}/{frames}: Wilson upper end {hi:.4f} < {bound}"]
    if side == "max" and lo > bound:
        return [f"FER {errors}/{frames}: Wilson lower end {lo:.4f} > {bound}"]
    return []


def check_gap_walk(
    points: list[tuple[float, int, int]],
    step_db: float,
    fer_reliable: float,
    fer_secure: float,
    secure_db: float,
    reliable_db: float,
    center_db: float,
) -> list[str]:
    """Security-gap walk: positive gap, straddled crossings, monotone FER.

    ``points`` holds (snr_db, frames, frame_errors) of every grid point the
    walk visited. A crossing must lie between two adjacent grid points whose
    FERs straddle its target; FER may rise from one point to the next only
    within the two 95% Wilson half-widths; the DE threshold at the grid
    center must be within -2 +-0.3 dB for the (3, 4) ensemble.
    """
    problems = []
    if not reliable_db - secure_db > 0:
        problems.append(f"gap {reliable_db - secure_db:.4f} dB is not positive")
    if abs(center_db + 2.0) > 0.3:
        problems.append(f"DE threshold {center_db:.3f} dB outside -2 +-0.3")
    pts = sorted(points)
    fer = [e / f for _, f, e in pts]
    for (db_a, f_a, e_a), (db_b, f_b, e_b) in zip(pts, pts[1:]):
        lo_a, hi_a = wilson(e_a, f_a)
        lo_b, hi_b = wilson(e_b, f_b)
        half_a, half_b = (hi_a - lo_a) / 2, (hi_b - lo_b) / 2
        if e_b / f_b > e_a / f_a + half_a + half_b:
            problems.append(f"FER rises from {db_a:.2f} to {db_b:.2f} dB beyond the CIs")
    for name, target, cross in (
        ("secure", fer_secure, secure_db),
        ("reliable", fer_reliable, reliable_db),
    ):
        ok = any(
            abs(pts[i + 1][0] - pts[i][0] - step_db) < 1e-9
            and fer[i] >= target > fer[i + 1]
            and pts[i][0] <= cross <= pts[i + 1][0]
            for i in range(len(pts) - 1)
        )
        if not ok:
            problems.append(f"{name} crossing {cross:.3f} dB not straddled by the grid")
    return problems


def check_converged(h: np.ndarray, packed_words: list[np.ndarray]) -> list[str]:
    """Every decision the decoder declared converged satisfies the dense H."""
    words = [np.unpackbits(w, axis=1, count=h.shape[1]) for w in packed_words if len(w)]
    if not words:
        return []
    return check_codewords(h, np.concatenate(words))


# -- rate outage ---------------------------------------------------------------
def model_secret_key_rates(params: dict, draws: int, gen: np.random.Generator):
    """Numpy-only Monte Carlo of the sk-cdf model (one convolution per draw).

    Rayleigh taps on exponential PDPs; the legitimate peak is picked by FFT,
    the power rule puts the legitimate SNR at the target on that tone, and
    the eavesdropper keeps every sample of the convolution of its taps with
    the cyclic-prefixed tone.
    """
    m, mu = int(params["m"]), int(params["mu"])
    decay = float(params.get("decay", 0.5))
    target = 10.0 ** (float(params["target_lambda_r_db"]) / 10.0)

    def taps(count, gamma_db):
        powers = np.exp(-decay * np.arange(count))
        powers *= 10.0 ** (gamma_db / 10.0) / powers.sum()
        z = gen.standard_normal((draws, count)) + 1j * gen.standard_normal((draws, count))
        return z * np.sqrt(powers / 2.0)

    g_r = taps(int(params["l_r"]), float(params["gamma_r_db"]))
    g_e = taps(int(params["l_e"]), float(params["gamma_e_db"]))
    gains = np.abs(np.fft.fft(g_r, n=m, axis=1)) ** 2
    best = np.argmax(gains, axis=1)
    peak_sq = gains[np.arange(draws), best]
    samples = np.arange(m + mu) - mu
    energy = np.empty(draws)
    for i in range(draws):
        tone = np.exp(2j * np.pi * best[i] * samples / m) / np.sqrt(m)
        energy[i] = np.sum(np.abs(np.convolve(g_e[i], tone)) ** 2)
    lam_e = target * energy / peak_sq
    return np.log2((1.0 + target + lam_e) / (1.0 + lam_e))


def check_rate_cdf(
    sk: np.ndarray,
    secrecy: np.ndarray,
    target_db: float,
    reference: np.ndarray,
    alpha: float,
) -> list[str]:
    """Sorted rate columns of one sk-cdf run against the model.

    The secret-key rate is at least the secrecy rate draw by draw, so the
    sorted columns dominate row by row; every rate lies in
    [0, log2(1 + target)]; and a two-sample KS test against the numpy-only
    ``reference`` draws keeps p >= ``alpha``.
    """
    problems = []
    if sk.shape != secrecy.shape:
        return [f"rate columns differ in length: {sk.size} vs {secrecy.size}"]
    if np.any(np.diff(sk) < 0) or np.any(np.diff(secrecy) < 0):
        problems.append("a rate column is not sorted")
    if np.any(sk < secrecy - 1e-12):
        problems.append("secret-key rates do not dominate secrecy rates row by row")
    cap = np.log2(1.0 + 10.0 ** (target_db / 10.0))
    both = np.concatenate([sk, secrecy])
    if np.any(both < 0) or np.any(both > cap + 1e-12):
        problems.append(f"a rate lies outside [0, {cap:.4f}]")
    p = stats.ks_2samp(sk, reference).pvalue
    if p < alpha:
        problems.append(f"KS test against the numpy model: p = {p:.2e} < {alpha:g}")
    return problems


def interval_ranks(n: int, p: float, confidence: float) -> tuple[int, int]:
    """1-based order-statistic ranks bracketing the p-quantile of n draws."""
    a = 1.0 - confidence
    lo = int(stats.binom.ppf(a / 2, n, p))
    hi = int(stats.binom.ppf(1 - a / 2, n, p)) + 1
    if lo < 1 or hi > n:
        raise ValueError("too few draws for this quantile")
    return lo, hi


def check_bracket(p_lo: float, p_hi: float, p: float) -> list[str]:
    """Conditional outage probabilities at the interval ends bracket p."""
    if p_lo <= p <= p_hi:
        return []
    return [f"conditional P at interval ends {p_lo:.3e}, {p_hi:.3e} miss {p:g}"]


def check_analytic_cdf(
    theta_db: np.ndarray, prob: np.ndarray, mean: float, rel_tol: float
) -> list[str]:
    """Eavesdropper SNR CDF: nondecreasing, in [0, 1], area rule for the mean.

    For a nonnegative variable the area under the survival function is the
    mean, here power * gamma_e at any PDP decay. The area is integrated by
    the trapezoid rule from theta = 0 (where the CDF is 0) over the grid.
    """
    problems = []
    if np.any(np.diff(prob) < 0):
        problems.append("CDF decreases")
    if np.any(prob < 0) or np.any(prob > 1):
        problems.append("CDF leaves [0, 1]")
    theta = np.concatenate([[0.0], 10.0 ** (theta_db / 10.0)])
    survival = 1.0 - np.concatenate([[0.0], prob])
    area = float(np.sum((survival[1:] + survival[:-1]) * np.diff(theta)) / 2)
    if abs(area / mean - 1.0) > rel_tol:
        problems.append(f"area under the survival function {area:.5f} vs mean {mean:.5f}")
    return problems
