"""Each output check passes a correct output and rejects a corrupted one.

    python3 -m pytest benchmark/test_checks.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
from skagree.channels import SeededRng, exponential_pdp
from skagree.ldpc import peg_construct
from skagree.ofdm import OfdmConfig
from skagree.outage import EigenSpectrum, build_c_matrix, lambda_e_cdf, sk_rate_outage_cdf

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def code():
    h = peg_construct(240, 0.25, 3, SeededRng(7))
    return h, h.to_dense()


def test_code_check_passes_and_catches_a_four_cycle(code):
    h, dense = code
    assert checks.check_code(dense, 240, 0.25, 3) == []
    bad = dense.copy()
    bad[:, 1] = bad[:, 0]  # columns 0 and 1 now share three checks
    assert any("4-cycle" in p for p in checks.check_code(bad, 240, 0.25, 3))


def test_code_check_catches_weights_and_shape(code):
    _, dense = code
    bad = dense.copy()
    bad[np.flatnonzero(bad[:, 5] == 0)[0], 5] = 1
    assert any("column weights" in p for p in checks.check_code(bad, 240, 0.25, 3))
    assert checks.check_code(dense[:-1], 240, 0.25, 3)


def test_codeword_check_catches_a_flipped_bit(code):
    h, dense = code
    enc = h.encoder()
    words = enc.encode_batch(np.random.default_rng(1).integers(0, 2, (8, enc.k), dtype=np.uint8))
    assert checks.check_codewords(dense, words) == []
    words[3, 17] ^= 1
    assert checks.check_codewords(dense, words) == ["1 of 8 words violate H c = 0"]
    packed = [np.packbits(words[:4], axis=1), np.packbits(words[4:], axis=1)]
    assert checks.check_converged(dense, packed)


def test_frame_count_and_fer_anchors():
    assert checks.check_count(32, 32, "frames") == []
    assert checks.check_count(31, 32, "frames")
    assert checks.check_fer_anchor(32, 32, 0.85, "min") == []
    # how far each anchor may degrade and still pass
    assert checks.check_fer_anchor(18, 32, 0.85, "min") == []
    assert checks.check_fer_anchor(17, 32, 0.85, "min")
    assert checks.check_fer_anchor(3, 128, 1e-2, "max") == []
    assert checks.check_fer_anchor(4, 128, 1e-2, "max")


def _walk():
    # (snr_db, frames, errors) of a three-point walk on a 1 dB grid
    return [(-2.93, 100, 100), (-1.93, 128, 55), (-0.93, 128, 0)]


def test_gap_walk_check_passes_a_consistent_walk():
    assert checks.check_gap_walk(_walk(), 1.0, 0.1, 0.9, -2.6, -1.5, -1.93) == []


@pytest.mark.parametrize("change, expect", [
    (dict(secure=-1.2), "not positive"),
    (dict(reliable=-0.5), "reliable crossing"),
    (dict(center=-2.5), "DE threshold"),
    (dict(points=[(-2.93, 100, 100), (-1.93, 128, 55), (-0.93, 128, 100)]), "FER rises"),
])
def test_gap_walk_check_rejects(change, expect):
    problems = checks.check_gap_walk(
        change.get("points", _walk()), 1.0, 0.1, 0.9, change.get("secure", -2.6),
        change.get("reliable", -1.5), change.get("center", -1.93),
    )
    assert any(expect in p for p in problems), problems


@pytest.fixture(scope="module")
def sk_output():
    params = json.loads((CONFIGS / "sk_cdf_m256.json").read_text())
    cfg = OfdmConfig(subcarriers=params["m"], cp_len=params["mu"])
    pdp_r = exponential_pdp(params["l_r"], params["gamma_r_db"], params["decay"])
    pdp_e = exponential_pdp(params["l_e"], params["gamma_e_db"], params["decay"])
    cdf = sk_rate_outage_cdf(cfg, pdp_r, pdp_e, params["target_lambda_r_db"], 20_000,
                             SeededRng(3))
    model = checks.model_secret_key_rates(params, 4000, np.random.default_rng(5))
    return cdf.secret_key_rates, cdf.secrecy_rates, params["target_lambda_r_db"], model


def test_rate_cdf_check_passes_the_program_output(sk_output):
    sk, sec, target_db, model = sk_output
    assert checks.check_rate_cdf(sk, sec, target_db, model, 1e-6) == []


def test_rate_cdf_check_catches_a_shuffled_column(sk_output):
    sk, sec, target_db, model = sk_output
    shuffled = np.random.default_rng(2).permutation(sk)
    problems = checks.check_rate_cdf(shuffled, sec, target_db, model, 1e-6)
    assert any("dominate" in p for p in problems)


def test_rate_cdf_check_catches_a_shifted_cdf(sk_output):
    sk, sec, target_db, model = sk_output
    problems = checks.check_rate_cdf(sk * 0.9, sec * 0.9, target_db, model, 1e-6)
    assert any("KS test" in p for p in problems)
    problems = checks.check_rate_cdf(sk + 0.5, sec, target_db, model, 1e-6)
    assert any("outside" in p for p in problems)


def test_interval_ranks_and_bracket():
    lo, hi = checks.interval_ranks(50_000, 1e-3, 1 - 1e-6)
    assert 1 <= lo < 50 < hi
    assert checks.check_bracket(5e-4, 2e-3, 1e-3) == []
    assert checks.check_bracket(1.2e-3, 2e-3, 1e-3)


@pytest.fixture(scope="module")
def analytic():
    p = json.loads((CONFIGS / "outage_analytic_m256.json").read_text())
    cfg = OfdmConfig(subcarriers=p["m"], cp_len=p["mu"])
    pdp = exponential_pdp(p["l_e"], p["gamma_e_db"], p["decay"])
    spec = EigenSpectrum.from_matrix(build_c_matrix(cfg, pdp, p["power"]))
    grid = np.linspace(p["theta_min_db"], p["theta_max_db"], p["points"])
    mean = p["power"] * 10 ** (p["gamma_e_db"] / 10)
    return grid, lambda_e_cdf(10 ** (grid / 10), spec), mean


def test_analytic_cdf_check_passes_and_catches_a_shifted_cdf(analytic):
    grid, prob, mean = analytic
    assert checks.check_analytic_cdf(grid, prob, mean, 5e-3) == []
    problems = checks.check_analytic_cdf(grid + 0.5, prob, mean, 5e-3)
    assert any("area" in p for p in problems)
    wobble = prob.copy()
    wobble[100] = wobble[99] - 1e-3
    assert any("decreases" in p for p in checks.check_analytic_cdf(grid, wobble, mean, 5e-3))
