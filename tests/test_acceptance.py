"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

import numpy as np
import pytest

from skagree.channels import SeededRng, exponential_pdp, sample_tap_matrix
from skagree.ldpc import (
    decoding_threshold,
    fer_ber_sim,
    peg_construct,
    psi,
    psi_inv,
)
from skagree.ldpc.decoder import SumProductDecoder
from skagree.ldpc.modem import llrs_from_rx, qpsk_symbols
from skagree.ldpc.scramble import FrameScrambler
from skagree.ldpc.sim import _Z95, wilson_halfwidth
from skagree.ofdm import (
    OfdmConfig,
    demodulator_matrix,
    eavesdropper_column_energies,
    effective_channels,
    modulator_matrix,
    toeplitz_conv_matrix,
)
from skagree.outage import (
    EigenSpectrum,
    build_c_matrix,
    lambda_e_cdf,
    sk_rate_outage_cdf,
    sk_rate_outage_probability,
)
from skagree.rates import (
    best_subcarrier,
    low_power_input,
    mimo_secret_key_rate,
    secret_key_rates,
    secrecy_rates,
    snr_pair,
)


def verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def wilson_interval(est, fmt: str) -> str:
    """The 95% Wilson score interval of an estimate's FER, as 'lo-hi'."""
    z2, n = _Z95 * _Z95, est.frames
    centre = (est.fer + z2 / (2 * n)) / (1 + z2 / n)
    half = wilson_halfwidth(est.frame_errors, n)
    return f"{centre - half:{fmt}}-{centre + half:{fmt}}"


@pytest.fixture(scope="module")
def paper_code():
    return peg_construct(5000, 0.25, 3, SeededRng(42))


def test_criterion_1_diagonalization_identity():
    cfg = OfdmConfig(subcarriers=64, cp_len=8)
    t_mat = modulator_matrix(cfg)
    rng = SeededRng(101)
    worst_off = worst_diag = 0.0
    for trial in range(100):
        stream = rng.spawn(trial)
        n_taps = 1 + int(stream.uniform() * cfg.cp_len)
        taps = stream.complex_normals(n_taps)
        product = (
            demodulator_matrix(cfg, n_taps)
            @ toeplitz_conv_matrix(taps, cfg.block_len)
            @ t_mat
        )
        expected = np.fft.fft(taps, n=cfg.subcarriers)
        worst_off = max(worst_off, np.max(np.abs(product - np.diag(np.diag(product)))))
        worst_diag = max(worst_diag, np.max(np.abs(np.diag(product) - expected)))
    ok = worst_off < 1e-10 and worst_diag < 1e-10
    assert verdict(
        "1", ok,
        f"100 channels (M=64, mu=8): max off-diagonal {worst_off:.2e}, "
        f"max diagonal error {worst_diag:.2e} (tolerance 1e-10)",
    )


def test_criterion_2_rank_one_consistency():
    cfg = OfdmConfig(subcarriers=32, cp_len=4)
    rng = SeededRng(202)
    worst = 0.0
    for trial in range(100):
        stream = rng.spawn(trial)
        g_r = stream.complex_normals(1 + int(stream.uniform() * cfg.cp_len))
        g_e = stream.complex_normals(6)
        ch = effective_channels(cfg, g_r, g_e)
        m = best_subcarrier(ch.subcarrier_gains)
        for power in (1e-3, 1.0):
            full = mimo_secret_key_rate(
                ch.subcarrier_gains,
                ch.eavesdropper_matrix,
                low_power_input(cfg, m, power),
            )
            scalar = secret_key_rates(*snr_pair(cfg, g_r, g_e, power, m))
            worst = max(worst, abs(full - scalar))
    ok = worst < 1e-10
    assert verdict(
        "2", ok,
        f"100 draws x P in {{1e-3, 1}}: max |log-det rate - scalar rate| "
        f"= {worst:.2e} (tolerance 1e-10)",
    )


def test_criterion_3_density_evolution_thresholds():
    ensembles = [(3, 0.25), (4, 0.15), (5, 0.03)]
    results = []
    ok = True
    for w_c, rate in ensembles:
        w_r = w_c / (1.0 - rate)
        lam_db = 10 * np.log10(decoding_threshold(w_c, w_r, tol_db=0.05))
        results.append(f"(w_c={w_c}, rate={rate}): {lam_db:+.2f} dB")
        ok &= abs(lam_db - (-2.0)) < 0.3
    assert verdict("3", ok, "; ".join(results) + " (target -2 dB +-0.3)")


def test_criterion_4_fer_anchors_desk_scale(paper_code):
    assert paper_code.shape == (3750, 5000)
    assert np.all(paper_code.col_weights() == 3)
    assert paper_code.row_weights().mean() == 4.0
    assert paper_code.girth() >= 6
    secure = fer_ber_sim(
        paper_code, 10 ** (-0.22), max_frames=300, target_frame_errors=10**9,
        max_iter=100, rng=SeededRng(1234),
    )
    reliable = fer_ber_sim(
        paper_code, 10 ** (-0.12), max_frames=1000, target_frame_errors=10**9,
        max_iter=100, rng=SeededRng(1234),
    )
    ok = secure.fer >= 0.85 and reliable.fer <= 1e-2
    assert verdict(
        "4", ok,
        f"n=5000 code: FER({-2.2} dB) = {secure.fer:.3f} (95% Wilson "
        f"{wilson_interval(secure, '.3f')}; need >= 0.85, 300 frames), "
        f"FER({-1.2} dB) = {reliable.fer:.1e} (95% Wilson "
        f"{wilson_interval(reliable, '.1e')}; need <= 1e-2, 1000 frames); "
        f"girth {paper_code.girth()}",
    )


@pytest.mark.parametrize("m_sub", [64, 256])
def test_criterion_5_outage_pipeline(m_sub):
    cfg = OfdmConfig(subcarriers=m_sub, cp_len=m_sub // 16)
    pdp = exponential_pdp(cfg.cp_len, -10.0, 0.5)
    power = 2.0
    subcarrier = m_sub // 3
    # spot-check the structured column energy against the dense matrix model
    probe = sample_tap_matrix(pdp, SeededRng(1), 3)
    fast = eavesdropper_column_energies(cfg, probe, np.full(3, subcarrier))
    for row, energy in zip(probe, fast):
        ch = effective_channels(cfg, [1.0], row)
        dense = np.sum(np.abs(ch.eavesdropper_matrix[:, subcarrier]) ** 2)
        assert abs(dense - energy) < 1e-10 * max(1.0, dense)
    n = 100_000
    draws = power / (1 + cfg.cp_overhead) * eavesdropper_column_energies(
        cfg, sample_tap_matrix(pdp, SeededRng(500 + m_sub), n), np.full(n, subcarrier))
    spec = EigenSpectrum.from_matrix(build_c_matrix(cfg, pdp, power))
    grid = np.linspace(0.0, float(np.quantile(draws, 0.99995)), 600)
    analytic = lambda_e_cdf(grid, spec)
    empirical = np.searchsorted(np.sort(draws), grid, side="right") / n
    sup = float(np.max(np.abs(analytic - empirical)))
    ok = sup < 0.01
    assert verdict(
        "5", ok,
        f"M={m_sub}, mu={cfg.cp_len}: sup |analytic CDF - matrix-model MC| "
        f"= {sup:.4f} at 1e5 samples (tolerance 0.01)",
    )


def test_criterion_6_rate_outage_anchor():
    """Rate at a 1e-3 outage: anchor value and model consistency.

    The anchor is checked at decay 0.25 nats/tap because that is the only
    operating point the documents tie to 0.28 bit/use (README, shipped as
    ``configs/sk_cdf_m256_decay025.json``); no document records the PDP
    decay of the paper's own profile, and that README figure was read off
    this model, so the anchor guards the documented reproduction rather
    than confirming the paper independently.

    The quantile is not decay-insensitive: lambda_e / target = Q / peak^2
    depends only on the shape of the PDP, and as the decay grows the
    profile collapses to one tap, where the 1e-3 quantile tends to about
    1.4e-3 bit/use. What the model does promise is that the quantile is a
    property of the model and not of one estimator: at every decay the
    conditional (Rao-Blackwellized) outage probability at the two ends of
    the Monte Carlo quantile's 99.9% order-statistic interval brackets
    1e-3, and the quantile falls strictly from decay 0.3 to 0.5 to 0.7.
    """
    cfg = OfdmConfig(subcarriers=256, cp_len=16)
    p = 1e-3
    quantiles = {}
    ok_bracket = True
    parts = []
    for decay in (0.25, 0.3, 0.5, 0.7):
        pdp = exponential_pdp(16, -10.0, decay)
        cdf = sk_rate_outage_cdf(cfg, pdp, pdp, -1.0, 100_000, SeededRng(606))
        quantiles[decay] = cdf.rate_at_outage(p)
        lo, hi = cdf.outage_interval(p)
        # an independent stream: the conditional estimator shares no draws
        # with the Monte Carlo run it is checked against
        p_lo, p_hi = sk_rate_outage_probability(
            cfg, pdp, pdp, -1.0, [lo, hi], 200_000, SeededRng(606).spawn(2)
        )
        ok_bracket &= p_lo <= p <= p_hi
        parts.append(
            f"decay {decay}: {quantiles[decay]:.3f} in [{lo:.3f}, {hi:.3f}], "
            f"conditional P{{R < end}} = {p_lo:.2e} / {p_hi:.2e}"
        )
    anchor = quantiles[0.25]
    ok_value = abs(anchor - 0.28) <= 0.05
    ok_falling = quantiles[0.3] > quantiles[0.5] > quantiles[0.7]
    detail = (
        "rate_at_outage(1e-3) with 99.9% interval: "
        + "; ".join(parts)
        + f". Anchor at decay 0.25: {anchor:.3f} (need 0.28 +-0.05); "
        + f"interval ends bracket 1e-3 at every decay: {ok_bracket}; "
        + f"strictly falling over decays 0.3/0.5/0.7: {ok_falling}"
    )
    assert verdict("6", ok_value and ok_bracket and ok_falling, detail)


def test_criterion_7a_psi_properties():
    grid = np.linspace(1e-4, 50.0, 800)
    values = np.array([psi(x) for x in grid])
    monotone = bool(np.all(np.diff(values) > 0))
    worst = max(abs(psi_inv(psi(x)) - x) for x in (0.1, 0.5, 1.0, 3.0, 10.0, 30.0))
    ok = monotone and worst < 1e-6
    assert verdict(
        "7a", ok,
        f"psi strictly monotone on [0, 50]: {monotone}; max inverse "
        f"round-trip error {worst:.2e} (tolerance 1e-6)",
    )


def test_criterion_7b_decoder_never_converges_to_noncodeword():
    code = peg_construct(512, 0.25, 3, SeededRng(7))
    decoder = SumProductDecoder(code)
    encoder = code.encoder()
    dense = code.to_dense().astype(np.int64)
    rng = SeededRng(777)
    frames_total = 10_000
    batch = 500
    checked = 0
    converged_count = 0
    violations = 0
    snr_cycle = [10 ** (-0.4), 10 ** (-0.2), 10 ** (0.0)]
    for start in range(0, frames_total, batch):
        snr = snr_cycle[(start // batch) % len(snr_cycle)]
        messages = np.empty((batch, encoder.k), dtype=np.uint8)
        noise = np.empty((batch, (code.n + 1) // 2), dtype=complex)
        for row in range(batch):
            stream = rng.spawn(start + row)
            messages[row] = stream.bits(encoder.k)
            noise[row] = stream.complex_normals(noise.shape[1])
        words = encoder.encode_batch(messages)
        llrs = llrs_from_rx(qpsk_symbols(words, snr) + noise, snr, code.n)
        bits, converged, _ = decoder.decode_batch(llrs, max_iter=40)
        converged_count += int(converged.sum())
        # independent syndrome check via a dense product
        syn = dense @ bits[converged].T % 2
        violations += int(np.any(syn, axis=0).sum())
        checked += batch
    ok = violations == 0
    assert verdict(
        "7b", ok,
        f"{checked} noisy frames, {converged_count} converged, "
        f"{violations} converged to a non-codeword (must be 0)",
    )


def test_criterion_7c_scrambler_avalanche():
    k = 1250
    scr = FrameScrambler(k, seed=99)
    rng = SeededRng(909)
    fractions = []
    for _ in range(1000):
        msg = rng.bits(k)
        coded = scr.apply(msg[None])
        coded[0, int(rng.uniform() * k)] ^= 1
        fractions.append(np.mean(scr.invert_bits(coded)[0] != msg))
    mean_frac = float(np.mean(fractions))
    ok = 0.45 <= mean_frac <= 0.55
    assert verdict(
        "7c", ok,
        f"single-bit avalanche over 1000 trials: descrambled error fraction "
        f"{mean_frac:.4f} (need 0.5 +-0.05)",
    )


def test_criterion_7d_fer_monotone_in_snr():
    code = peg_construct(1024, 0.25, 3, SeededRng(77))
    grid_db = [-3.0, -2.4, -1.8, -1.2, -0.6, 0.0]
    estimates = []
    for snr_db in grid_db:
        estimates.append(
            fer_ber_sim(
                code, 10 ** (snr_db / 10), max_frames=400,
                target_frame_errors=400, max_iter=40, rng=SeededRng(404),
            )
        )
    ok = True
    for lo, hi in zip(estimates[:-1], estimates[1:]):
        ok &= hi.fer <= lo.fer + lo.confidence_halfwidth + hi.confidence_halfwidth
    fers = ", ".join(f"{e.fer:.3f}" for e in estimates)
    assert verdict(
        "7d", ok,
        f"FER across {grid_db} dB: [{fers}] nonincreasing within 95% CIs",
    )


def test_criterion_7e_secret_key_rate_dominates():
    rng = SeededRng(505)
    lam_r = -np.log(1.0 - rng.uniform(1_000_000)) * 3.0
    lam_e = -np.log(1.0 - rng.uniform(1_000_000)) * 3.0
    sk = secret_key_rates(lam_r, lam_e)
    sec = secrecy_rates(lam_r, lam_e)
    worst = float(np.min(sk - sec))
    ok = worst >= -1e-12
    assert verdict(
        "7e", ok,
        f"1e6 random SNR pairs: min(secret-key rate - secrecy rate) "
        f"= {worst:.2e} (must be >= 0)",
    )
