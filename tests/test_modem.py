import numpy as np

from skagree.channels import SeededRng
from skagree.ldpc.modem import llrs_from_rx, qpsk_symbols


def qpsk_awgn_llrs(bits, snr_lambda, rng):
    """Channel LLRs of ``bits`` over QPSK/AWGN, as the frame simulator draws them."""
    sym = qpsk_symbols(bits[None], snr_lambda)
    return llrs_from_rx(sym + rng.complex_normals(sym.shape), snr_lambda, bits.size)[0]


def test_noiseless_limit_recovers_bits():
    bits = SeededRng(1).bits(500)
    llrs = qpsk_awgn_llrs(bits, snr_lambda=1e6, rng=SeededRng(2))
    assert np.array_equal((llrs < 0).astype(np.uint8), bits)


def test_llr_mean_is_twice_symbol_snr():
    # at unit symbol SNR the transmitted-bit LLR mean is 2.0
    n = 100_000
    bits = np.zeros(n, dtype=np.uint8)
    llrs = qpsk_awgn_llrs(bits, snr_lambda=1.0, rng=SeededRng(3))
    sigma = np.sqrt(2 * 2.0)  # variance is twice the mean
    assert abs(llrs.mean() - 2.0) < 3 * sigma / np.sqrt(n)


def test_llr_variance_consistency():
    n = 200_000
    bits = np.zeros(n, dtype=np.uint8)
    for lam in (0.5, 1.0, 2.0):
        llrs = qpsk_awgn_llrs(bits, snr_lambda=lam, rng=SeededRng(4))
        assert abs(llrs.var() / (2 * llrs.mean()) - 1.0) < 0.02


def test_symbol_energy_equals_snr():
    bits = SeededRng(5).bits(2000)
    for lam in (0.25, 1.0, 4.0):
        sym = qpsk_symbols(bits[None], lam)
        assert np.allclose(np.abs(sym) ** 2, lam)


def test_odd_length_zero_padded():
    bits = np.array([1, 0, 1], dtype=np.uint8)
    llrs = qpsk_awgn_llrs(bits, snr_lambda=1e6, rng=SeededRng(6))
    assert llrs.shape == (3,)
    assert np.array_equal((llrs < 0).astype(np.uint8), bits)


def test_ones_bit_sign_convention():
    # positive LLR favors bit 0, so all-ones data gives negative means
    bits = np.ones(10_000, dtype=np.uint8)
    llrs = qpsk_awgn_llrs(bits, snr_lambda=2.0, rng=SeededRng(7))
    assert llrs.mean() < -3.5
