import numpy as np
import pytest
from scipy import stats

from skagree.channels import (
    PdpProfile,
    SeededRng,
    exponential_pdp,
    sample_tap_matrix,
)


class TestSeededRng:
    def test_same_seed_identical_sequences(self):
        a = SeededRng(987654321).complex_normals(64)
        b = SeededRng(987654321).complex_normals(64)
        assert np.array_equal(a, b)

    def test_different_stream_differs(self):
        root = SeededRng(11)
        assert not np.array_equal(root.spawn(0).uniform(8), root.spawn(1).uniform(8))

    def test_spawn_deterministic(self):
        a = SeededRng(5).spawn(3).complex_normals(10)
        b = SeededRng(5).spawn(3).complex_normals(10)
        assert np.array_equal(a, b)

    def test_complex_normals_unit_variance(self):
        z = SeededRng(3).complex_normals(200_000)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
        assert abs(z.mean()) < 0.01

    @pytest.mark.parametrize("size", [
        1, 65535, 65536, 65537, 196613, (300, 700), (0, 3),
    ])
    def test_bits_are_uniforms_below_one_half(self, size):
        """Bits read off raw words equal the float draw's ``< 0.5``, and
        leave the stream where that draw does."""
        a, b = SeededRng(8, 3), SeededRng(8, 3)
        bits = a.bits(size)
        expected = (b.uniform(size) < 0.5).astype(np.uint8)
        assert bits.dtype == np.uint8 and bits.shape == expected.shape
        assert np.array_equal(bits, expected)
        assert a.uniform() == b.uniform()


class TestExponentialPdp:
    def test_single_tap_carries_all_power(self):
        pdp = exponential_pdp(1, -10.0)
        assert np.allclose(pdp.tap_powers, [0.1])

    def test_zero_decay_uniform(self):
        pdp = exponential_pdp(16, -10.0, decay=0.0)
        assert np.allclose(pdp.tap_powers, 0.1 / 16)

    def test_geometric_normalization(self):
        pdp = exponential_pdp(16, -10.0, decay=0.5)
        assert abs(pdp.tap_powers[0] / pdp.tap_powers[1] - np.exp(0.5)) < 1e-12
        assert abs(pdp.tap_powers.sum() - 0.1) < 1e-12 * 0.1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exponential_pdp(0, -10.0)
        with pytest.raises(ValueError):
            exponential_pdp(4, -10.0, decay=-0.1)
        with pytest.raises(ValueError):
            PdpProfile(np.array([0.1, 0.0]))


class TestSampleChannel:
    def test_fixed_seed_bit_identical(self):
        # one draw takes the first L variates of the stream, as a lone
        # channel realization does
        pdp = exponential_pdp(8, -10.0, 0.5)
        a = sample_tap_matrix(pdp, SeededRng(21), 1)[0]
        b = sample_tap_matrix(pdp, SeededRng(21), 1)[0]
        assert np.array_equal(a, b)
        one = SeededRng(21).complex_normals(pdp.length) * np.sqrt(pdp.tap_powers)
        assert np.array_equal(a, one)

    def test_tap_power_matches_profile(self):
        pdp = exponential_pdp(6, -10.0, 0.4)
        taps = sample_tap_matrix(pdp, SeededRng(8), 100_000)
        empirical = np.mean(np.abs(taps) ** 2, axis=0)
        assert np.all(np.abs(empirical / pdp.tap_powers - 1.0) < 0.03)

    def test_zero_mean(self):
        pdp = exponential_pdp(6, -10.0, 0.4)
        n = 100_000
        taps = sample_tap_matrix(pdp, SeededRng(9), n)
        bound = 4.0 / np.sqrt(n) * np.sqrt(pdp.tap_powers)
        assert np.all(np.abs(taps.mean(axis=0)) < bound)

    def test_tap_magnitude_squared_is_exponential(self):
        # |g(i)|^2 ~ Exp(mean p_i); one-sample KS below the 1% critical value.
        pdp = exponential_pdp(4, -10.0, 0.5)
        n = 100_000
        taps = sample_tap_matrix(pdp, SeededRng(10), n)
        crit = 1.628 / np.sqrt(n)
        for i in range(pdp.length):
            ks = stats.kstest(
                np.abs(taps[:, i]) ** 2, "expon", args=(0, pdp.tap_powers[i])
            )
            assert ks.statistic < crit

    def test_taps_uncorrelated(self):
        pdp = exponential_pdp(5, -10.0, 0.5)
        n = 100_000
        taps = sample_tap_matrix(pdp, SeededRng(12), n)
        for i in range(5):
            for j in range(i + 1, 5):
                cross = np.abs(np.mean(taps[:, i] * np.conj(taps[:, j])))
                limit = 0.02 * np.sqrt(pdp.tap_powers[i] * pdp.tap_powers[j])
                assert cross < limit
