import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skagree.channels import SeededRng
from skagree.ofdm import OfdmConfig, effective_channels
from skagree.rates import (
    best_subcarrier,
    low_power_input,
    mimo_secret_key_rate,
    power_for_target_snr,
    secret_key_rates,
    secrecy_rates,
    snr_pair,
)


class TestBestSubcarrier:
    def test_direct_argmax(self):
        assert best_subcarrier([1.0, 3.0, 2.0]) == 1

    def test_tie_breaks_low_index(self):
        assert best_subcarrier(np.ones(5)) == 0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_linear_scan(self, seed):
        gains = SeededRng(seed).complex_normals(32)
        best = best_subcarrier(gains)
        for i, g in enumerate(gains):
            assert abs(gains[best]) >= abs(g) or i == best
        # lowest index among maximizers
        mags = np.abs(gains)
        assert best == min(i for i in range(32) if mags[i] == mags.max())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_subcarrier([])


class TestSnrPair:
    def test_zero_eavesdropper_channel(self):
        cfg = OfdmConfig(subcarriers=8, cp_len=2)
        _, lam_e = snr_pair(cfg, [1.0], [0.0], power=2.0, subcarrier=3)
        assert lam_e == 0.0

    def test_flat_channel_unit_gain(self):
        cfg = OfdmConfig(subcarriers=8, cp_len=2)
        power = 1.0 + cfg.cp_overhead
        lam_r, _ = snr_pair(cfg, [1.0], [0.0], power=power, subcarrier=0)
        assert abs(lam_r - 1.0) < 1e-12

    def test_eavesdropper_from_dense_product(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        rng = SeededRng(31)
        g_r = rng.complex_normals(3)
        g_e = rng.complex_normals(5)
        m = 7
        power = 0.8
        _, lam_e = snr_pair(cfg, g_r, g_e, power, m)
        ch = effective_channels(cfg, g_r, g_e)
        expected = power / (1 + cfg.cp_overhead) * np.sum(
            np.abs(ch.eavesdropper_matrix[:, m]) ** 2
        )
        assert abs(lam_e - expected) < 1e-12 * max(1.0, expected)

    def test_negative_snr_rejected(self):
        # a negative power is the only way to a negative SNR
        cfg = OfdmConfig(subcarriers=8, cp_len=2)
        with pytest.raises(ValueError, match="power"):
            snr_pair(cfg, [1.0], [1.0], power=-0.1, subcarrier=0)


class TestPowerForTarget:
    def test_flat_channel(self):
        cfg = OfdmConfig(subcarriers=8, cp_len=2)
        p = power_for_target_snr(cfg, [1.0], 1.0)
        assert abs(p - (1.0 + cfg.cp_overhead)) < 1e-12

    def test_algebraic_inversion(self):
        cfg = OfdmConfig(subcarriers=256, cp_len=16)
        # single tap of squared magnitude 0.1 so every subcarrier gain is equal
        g = [np.sqrt(0.1)]
        target = 10 ** (-0.1)
        p = power_for_target_snr(cfg, g, target)
        expected = (1 + cfg.cp_overhead) * 10 ** (-0.1) / 0.1
        assert abs(p - expected) < 1e-12 * expected

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        rng = SeededRng(seed)
        g_r = rng.complex_normals(3)
        target = float(0.1 + 3.0 * rng.uniform())
        p = power_for_target_snr(cfg, g_r, target)
        gains = np.fft.fft(g_r, n=16)
        lam_r, _ = snr_pair(cfg, g_r, [0.0], p, best_subcarrier(gains))
        assert abs(lam_r - target) < 1e-12 * target

    def test_zero_channel_rejected(self):
        cfg = OfdmConfig(subcarriers=8, cp_len=2)
        with pytest.raises(ValueError):
            power_for_target_snr(cfg, [0.0], 1.0)


class TestScalarRates:
    def test_no_eavesdropper_limit(self):
        assert abs(secret_key_rates(3.0, 0.0) - np.log2(4.0)) < 1e-14

    def test_no_signal(self):
        assert secret_key_rates(0.0, 5.0) == 0.0

    def test_unit_snrs(self):
        assert abs(secret_key_rates(1.0, 1.0) - np.log2(1.5)) < 1e-14

    def test_secrecy_rate_equal_channels(self):
        assert secrecy_rates(2.0, 2.0) == 0.0

    def test_secrecy_rate_no_eavesdropper(self):
        assert abs(secrecy_rates(2.0, 0.0) - secret_key_rates(2.0, 0.0)) < 1e-14

    def test_secrecy_rate_clips_to_zero(self):
        assert secrecy_rates(1.0, 2.0) == 0.0


@given(
    lr=st.floats(min_value=0.0, max_value=1e6),
    le=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=200)
def test_secret_key_rate_dominates_secrecy_rate(lr, le):
    assert secret_key_rates(lr, le) >= secrecy_rates(lr, le) - 1e-12


def test_secret_key_rate_monotonicity():
    lr = np.linspace(0.01, 10, 50)
    r = secret_key_rates(lr, 1.0)
    assert np.all(np.diff(r) > 0)
    le = np.linspace(0.0, 10, 50)
    r = secret_key_rates(1.0, le)
    assert np.all(np.diff(r) < 0)


def _random_setup(seed, m=16, cp=4, l_r=3, l_e=4):
    cfg = OfdmConfig(subcarriers=m, cp_len=cp)
    rng = SeededRng(seed)
    g_r = rng.complex_normals(l_r)
    g_e = rng.complex_normals(l_e)
    return cfg, g_r, g_e


class TestMimoSecretKeyRate:
    def test_zero_input_zero_rate(self):
        cfg, g_r, g_e = _random_setup(1)
        ch = effective_channels(cfg, g_r, g_e)
        rate = mimo_secret_key_rate(
            ch.subcarrier_gains, ch.eavesdropper_matrix, np.zeros((16, 16))
        )
        assert rate == 0.0

    @pytest.mark.parametrize("power", [1e-3, 1.0])
    def test_rank_one_matches_scalar_formula(self, power):
        for seed in range(10):
            cfg, g_r, g_e = _random_setup(seed)
            ch = effective_channels(cfg, g_r, g_e)
            m = best_subcarrier(ch.subcarrier_gains)
            cov = low_power_input(cfg, m, power)
            full = mimo_secret_key_rate(
                ch.subcarrier_gains, ch.eavesdropper_matrix, cov
            )
            scalar = secret_key_rates(*snr_pair(cfg, g_r, g_e, power, m))
            assert abs(full - scalar) < 1e-10

    def test_no_eavesdropper_diagonal_sum(self):
        cfg, g_r, _ = _random_setup(3)
        gains = np.fft.fft(g_r, n=16)
        h_e = np.zeros((cfg.block_len, 16))
        p = 0.25
        rate = mimo_secret_key_rate(gains, h_e, p * np.eye(16))
        expected = np.sum(np.log2(1 + p * np.abs(gains) ** 2))
        assert abs(rate - expected) < 1e-10

    def test_non_psd_rejected(self):
        cfg, g_r, g_e = _random_setup(4)
        ch = effective_channels(cfg, g_r, g_e)
        bad = -np.eye(16)
        with pytest.raises(ValueError):
            mimo_secret_key_rate(ch.subcarrier_gains, ch.eavesdropper_matrix, bad)

    def test_low_power_best_subcarrier_first_order_optimal(self):
        # At P = 1e-3 the single best subcarrier beats every other rank-one
        # choice and the uniform diagonal allocation with the same trace.
        power = 1e-3
        for seed in range(5):
            cfg, g_r, g_e = _random_setup(seed + 100)
            ch = effective_channels(cfg, g_r, g_e)
            m_best = best_subcarrier(ch.subcarrier_gains)
            best_rate = mimo_secret_key_rate(
                ch.subcarrier_gains,
                ch.eavesdropper_matrix,
                low_power_input(cfg, m_best, power),
            )
            for m in range(cfg.subcarriers):
                other = mimo_secret_key_rate(
                    ch.subcarrier_gains,
                    ch.eavesdropper_matrix,
                    low_power_input(cfg, m, power),
                )
                assert best_rate >= other - 1e-12
            uniform = (power / (1 + cfg.cp_overhead) / cfg.subcarriers) * np.eye(
                cfg.subcarriers
            )
            assert best_rate >= mimo_secret_key_rate(
                ch.subcarrier_gains, ch.eavesdropper_matrix, uniform
            )


def test_input_covariance_trace_constraint():
    # tr(T K T*) must equal the power budget for the rank-one input.
    from skagree.ofdm import modulator_matrix

    cfg = OfdmConfig(subcarriers=16, cp_len=4)
    t = modulator_matrix(cfg)
    k = low_power_input(cfg, subcarrier=5, power=2.5)
    transmitted = np.trace(t @ k @ t.conj().T).real
    assert abs(transmitted - 2.5) < 1e-12
    assert np.array_equal(np.argwhere(k), [[5, 5]])
