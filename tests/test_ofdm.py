import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skagree.channels import SeededRng
from skagree.ofdm import (
    OfdmConfig,
    _receiver_matrix,
    demodulator_matrix,
    eavesdropper_column_energies,
    effective_channels,
    modulator_matrix,
    toeplitz_conv_matrix,
)


def random_taps(rng, n):
    return rng.complex_normals(n)


class TestToeplitzConvMatrix:
    def test_single_tap_is_identity(self):
        t = toeplitz_conv_matrix([1.0], 3)
        assert np.array_equal(t, np.eye(3, dtype=complex))

    def test_two_taps_forced_structure(self):
        t = toeplitz_conv_matrix([1.0, 1.0], 2)
        assert np.array_equal(t, np.array([[1, 0], [1, 1], [0, 1]], dtype=complex))

    def test_matches_direct_convolution(self):
        rng = SeededRng(1234)
        g = random_taps(rng, 4)
        x = random_taps(rng, 16)
        direct = np.convolve(g, x)
        via_matrix = toeplitz_conv_matrix(g, 16) @ x
        assert np.max(np.abs(direct - via_matrix)) < 1e-12

    def test_rejects_empty_taps(self):
        for taps in ([], [[1.0, 0.5]]):  # empty, and 2-d
            with pytest.raises(ValueError, match="non-empty 1-d"):
                toeplitz_conv_matrix(taps, 4)


class TestModulatorMatrix:
    def test_cyclic_prefix_rows(self):
        cfg = OfdmConfig(subcarriers=8, cp_len=3)
        t = modulator_matrix(cfg)
        assert np.allclose(t[:3], t[-3:])

    def test_column_energy_one_plus_overhead(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        t = modulator_matrix(cfg)
        energies = np.sum(np.abs(t) ** 2, axis=0)
        assert np.allclose(energies, 1.0 + cfg.cp_overhead, atol=1e-12)

    def test_shape(self):
        t = modulator_matrix(OfdmConfig(subcarriers=4, cp_len=1))
        assert t.shape == (5, 4)


class TestDemodulatorMatrix:
    def test_noise_whitening(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        r = demodulator_matrix(cfg, 3)
        assert np.max(np.abs(r @ r.conj().T - np.eye(16))) < 1e-12

    def test_shape(self):
        r = demodulator_matrix(OfdmConfig(subcarriers=4, cp_len=2), 2)
        assert r.shape == (4, 7)

    def test_row_norms_unit(self):
        r = demodulator_matrix(OfdmConfig(subcarriers=8, cp_len=2), 2)
        assert np.allclose(np.sum(np.abs(r) ** 2, axis=1), 1.0)

    def test_rejects_channel_longer_than_prefix(self):
        with pytest.raises(ValueError, match="ISI"):
            demodulator_matrix(OfdmConfig(subcarriers=8, cp_len=2), 3)


class TestEffectiveChannels:
    def test_impulse_gives_flat_response(self):
        cfg = OfdmConfig(subcarriers=8, cp_len=2)
        ch = effective_channels(cfg, [1.0], [1.0])
        assert np.allclose(ch.subcarrier_gains, 1.0)

    def test_gains_match_full_matrix_product(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        rng = SeededRng(77)
        g_r = random_taps(rng, 3)
        ch = effective_channels(cfg, g_r, [1.0])
        r = demodulator_matrix(cfg, 3)
        g_mat = toeplitz_conv_matrix(g_r, cfg.block_len)
        t = modulator_matrix(cfg)
        product = r @ g_mat @ t
        assert np.max(np.abs(product - np.diag(ch.subcarrier_gains))) < 1e-10

    def test_identity_eavesdropper_column_energy(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        ch = effective_channels(cfg, [1.0], [1.0])
        for m in (0, 5, 15):
            energy = np.sum(np.abs(ch.eavesdropper_matrix[:, m]) ** 2)
            assert abs(energy - (1.0 + cfg.cp_overhead)) < 1e-12

    def test_rejects_long_legitimate_channel(self):
        cfg = OfdmConfig(subcarriers=8, cp_len=2)
        with pytest.raises(ValueError):
            effective_channels(cfg, [1.0, 0.5, 0.25], [1.0])


@settings(max_examples=30, deadline=None)
@given(
    m_exp=st.integers(min_value=2, max_value=5),
    cp=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_diagonalization_property(m_exp, cp, seed):
    # R G T diagonal and equal to the subcarrier FFT whenever L <= cp_len.
    m = 2**m_exp
    cp = min(cp, m - 1)
    cfg = OfdmConfig(subcarriers=m, cp_len=cp)
    rng = SeededRng(seed)
    n_taps = 1 + int(rng.uniform() * cp)
    g = random_taps(rng, n_taps)
    product = (
        demodulator_matrix(cfg, n_taps)
        @ toeplitz_conv_matrix(g, cfg.block_len)
        @ modulator_matrix(cfg)
    )
    expected = np.fft.fft(g, n=m)
    off = product - np.diag(np.diag(product))
    assert np.max(np.abs(off)) < 1e-10
    assert np.max(np.abs(np.diag(product) - expected)) < 1e-10


def test_off_diagonal_leakage_when_prefix_too_short():
    # In the isolated-symbol model the first kept sample may still reach back
    # to x[0] without breaking circularity, so cp_len + 1 taps stay diagonal;
    # genuine leakage starts at cp_len + 2.
    cfg = OfdmConfig(subcarriers=16, cp_len=4)
    rng = SeededRng(5)
    n_taps = cfg.cp_len + 2
    g = random_taps(rng, n_taps)
    product = (
        _receiver_matrix(cfg, n_taps)
        @ toeplitz_conv_matrix(g, cfg.block_len)
        @ modulator_matrix(cfg)
    )
    off = product - np.diag(np.diag(product))
    assert np.max(np.abs(off)) > 1e-6


class TestEavesdropperColumnEnergy:
    def test_matches_dense_product(self):
        cfg = OfdmConfig(subcarriers=32, cp_len=4)
        rng = SeededRng(42)
        for n_taps in (1, 3, 7):
            g = random_taps(rng, n_taps)
            ch = effective_channels(cfg, [1.0], g)
            for m in (0, 9, 31):
                dense = np.sum(np.abs(ch.eavesdropper_matrix[:, m]) ** 2)
                fast = eavesdropper_column_energies(cfg, g[None], np.array([m]))[0]
                assert abs(dense - fast) < 1e-12 * max(1.0, dense)

    def test_batch_agrees_with_scalar(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        rng = SeededRng(3)
        taps = rng.complex_normals((5, 3))
        m_idx = np.array([0, 2, 7, 11, 15])
        batch = eavesdropper_column_energies(cfg, taps, m_idx)
        singles = [
            eavesdropper_column_energies(cfg, taps[i:i + 1], m_idx[i:i + 1])[0]
            for i in range(5)
        ]
        assert np.allclose(batch, singles, rtol=1e-13)


def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(subcarriers=1, cp_len=1)
    with pytest.raises(ValueError):
        OfdmConfig(subcarriers=8, cp_len=0)
    cfg = OfdmConfig(subcarriers=256, cp_len=16)
    assert cfg.block_len == 272
    assert abs(cfg.cp_overhead - 1 / 16) < 1e-15
