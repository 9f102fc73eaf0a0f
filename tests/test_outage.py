import numpy as np
import pytest
from scipy import stats

import skagree.outage as outage
from skagree.channels import SeededRng, exponential_pdp, sample_tap_matrix
from skagree.ofdm import OfdmConfig, eavesdropper_column_energies, effective_channels
from skagree.outage import (
    EigenSpectrum,
    RateCdf,
    build_c_matrix,
    lambda_e_cdf,
    _binomial_quantile,
    _hypoexponential_cdf_closed_form,
    _hypoexponential_cdf_phase_type,
    sk_rate_outage_cdf,
    sk_rate_outage_probability,
)


class TestBuildCMatrix:
    def test_single_tap_reduces_to_scalar_exponential(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        pdp = exponential_pdp(1, -10.0)
        power = 2.0
        c = build_c_matrix(cfg, pdp, power)
        expected = power / (1 + cfg.cp_overhead) * 0.1 * cfg.block_len / 16
        assert c.shape == (1, 1)
        assert abs(c[0, 0] - expected) < 1e-14

    def test_hermitian_psd(self):
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        for decay in (0.0, 0.5, 1.0):
            pdp = exponential_pdp(8, -10.0, decay)
            c = build_c_matrix(cfg, pdp, 1.5)
            assert np.allclose(c, c.T)
            assert np.linalg.eigvalsh(c)[0] > -1e-12
            assert not c.flags.writeable

    def test_trace_gives_mean_snr_power_times_gain(self):
        # E{quadratic form} = trace = power * total gain since N/M = 1 + rho
        cfg = OfdmConfig(subcarriers=64, cp_len=4)
        pdp = exponential_pdp(4, -10.0, 0.5)
        c = build_c_matrix(cfg, pdp, 3.0)
        assert abs(np.trace(c) - 3.0 * pdp.tap_powers.sum()) < 1e-12

    def test_matches_matrix_model_in_distribution(self):
        # ground truth: quadratic-form samples vs the full channel pipeline
        cfg = OfdmConfig(subcarriers=64, cp_len=4)
        pdp = exponential_pdp(4, -10.0, 0.5)
        power = 1.7
        lam = EigenSpectrum.from_matrix(build_c_matrix(cfg, pdp, power)).eigenvalues
        n = 100_000
        analytic_draws = -np.log(1.0 - SeededRng(1).uniform((n, lam.size))) @ lam
        model_draws = power / (1 + cfg.cp_overhead) * eavesdropper_column_energies(
            cfg, sample_tap_matrix(pdp, SeededRng(2), n), np.full(n, 9))
        res = stats.ks_2samp(analytic_draws, model_draws)
        assert res.statistic < 1.628 * np.sqrt(2.0 / n)

    def test_subcarrier_independence(self):
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp = exponential_pdp(8, -10.0, 0.5)
        n = 60_000
        scale = 1.0 / (1 + cfg.cp_overhead)
        base = scale * eavesdropper_column_energies(
            cfg, sample_tap_matrix(pdp, SeededRng(3), n), np.full(n, 0))
        for m in (17, 32):
            other = scale * eavesdropper_column_energies(
                cfg, sample_tap_matrix(pdp, SeededRng(100 + m), n), np.full(n, m))
            assert stats.ks_2samp(base, other).pvalue > 0.01

    @pytest.mark.parametrize("m, mu, n_taps, decay, gain_db", [
        (16, 4, 1, 0.0, -10.0), (64, 8, 8, 0.5, -10.0), (64, 8, 17, 3.0, 3.0),
        (256, 16, 48, 0.25, -3.0), (1024, 32, 96, 1.0, 0.0),
    ])
    def test_toeplitz_core_equals_rank_one_sum(self, m, mu, n_taps, decay, gain_db):
        # the prefix/suffix rank-one sum the closed form N - |i - j| replaces;
        # every entry is a small exact integer, so the two agree bit for bit
        cfg = OfdmConfig(subcarriers=m, cp_len=mu)
        pdp = exponential_pdp(n_taps, gain_db, decay)
        core = (cfg.block_len - n_taps + 1) * np.ones((n_taps, n_taps))
        for n in range(1, n_taps):
            u = np.zeros(n_taps)
            u[:n] = 1.0
            core += np.outer(u, u) + np.outer(1.0 - u, 1.0 - u)
        root = np.sqrt(pdp.tap_powers)
        scale = 1.3 / (1.0 + cfg.cp_overhead) / m
        expected = scale * (root[:, None] * core * root[None, :])
        assert np.array_equal(build_c_matrix(cfg, pdp, 1.3), expected)

    @pytest.mark.parametrize("subcarrier", [0, 9, 63])
    def test_eigenvalues_match_dense_gram_matrix(self, subcarrier):
        # lambda_e = s ||sum_l g_l h_l||^2 with h_l the eavesdropper column for
        # a unit tap at delay l; with g = D^(1/2) gamma its Gram matrix is
        # s D^(1/2) H^H H D^(1/2), which is C up to a diagonal phase
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp = exponential_pdp(11, -10.0, 0.4)
        power = 2.5
        h = np.column_stack([
            effective_channels(cfg, [1.0], np.eye(pdp.length)[l]).eavesdropper_matrix[
                :, subcarrier]
            for l in range(pdp.length)
        ])
        root = np.sqrt(pdp.tap_powers)
        gram = power / (1.0 + cfg.cp_overhead) * (
            root[:, None] * (h.conj().T @ h) * root[None, :])
        dense = np.linalg.eigvalsh(gram)
        closed = np.linalg.eigvalsh(build_c_matrix(cfg, pdp, power))
        assert np.max(np.abs(closed - dense)) <= 1e-12 * dense.max()

    def test_rejects_overlong_pdp(self):
        cfg = OfdmConfig(subcarriers=4, cp_len=2)
        with pytest.raises(ValueError):
            build_c_matrix(cfg, exponential_pdp(7, -10.0), 1.0)


class TestEigenSpectrum:
    def test_sum_matches_trace(self):
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        c = build_c_matrix(cfg, exponential_pdp(8, -10.0, 0.3), 2.0)
        spec = EigenSpectrum.from_matrix(c)
        assert spec.eigenvalues.sum() == pytest.approx(np.trace(c), rel=1e-9)

    def test_sorted_descending_and_cutoff(self):
        spec = EigenSpectrum.from_matrix(np.diag([1e-20, 2.0, 1.0]))
        assert list(spec.eigenvalues) == [2.0, 1.0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EigenSpectrum(np.array([1.0, -0.5]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EigenSpectrum(np.array([np.nan]))


class TestLambdaECdf:
    def test_zero_at_origin(self):
        assert lambda_e_cdf(0.0, EigenSpectrum(np.array([0.5, 0.2]))) == 0.0

    def test_single_eigenvalue_exponential(self):
        lam = 0.7
        spec = EigenSpectrum(np.array([lam]))
        for theta in (0.1, 0.5, 2.0):
            # the closed form with its one coefficient, 1.0, gives these bits
            assert lambda_e_cdf(theta, spec) == 1 - np.exp(-theta / lam)

    def test_matches_monte_carlo_hypoexponential(self):
        rng = SeededRng(4)
        lam = np.array([1.3, 0.9, 0.55, 0.3, 0.12, 0.05])
        n = 1_000_000
        u = 1.0 - rng.uniform((n, lam.size))
        draws = (-np.log(u)) @ lam
        grid = np.linspace(0.0, 25.0, 400)
        analytic = lambda_e_cdf(grid, EigenSpectrum(lam))
        empirical = np.searchsorted(np.sort(draws), grid, side="right") / n
        assert np.max(np.abs(analytic - empirical)) < 0.005

    def test_degenerate_spectrum_uses_stable_route(self):
        lam = np.array([0.5, 0.5, 0.5])  # Erlang(3): closed form diverges
        grid = np.linspace(0.0, 6.0, 50)
        assert _hypoexponential_cdf_closed_form(grid, lam) is None
        cdf = lambda_e_cdf(grid, EigenSpectrum(lam))
        expected = stats.gamma.cdf(grid, a=3, scale=0.5)
        assert np.max(np.abs(cdf - expected)) < 1e-9

    @pytest.mark.parametrize("lam", [[0.5, 0.5, 0.5], [1.0, 1.0 + 1e-9, 0.25]])
    def test_phase_type_matches_one_expm_per_theta(self, lam):
        from scipy.linalg import expm

        lam = np.array(lam)
        grid = np.linspace(0.0, 12.0, 201)
        gen = np.diag(-1.0 / lam) + np.diag(1.0 / lam[:-1], k=1)
        looped = np.array([1.0 - expm(gen * t)[0].sum() for t in grid])
        np.testing.assert_array_equal(
            _hypoexponential_cdf_phase_type(grid, lam), np.clip(looped, 0.0, 1.0)
        )

    def test_near_degenerate_matches_monte_carlo(self):
        lam = np.array([1.0, 1.0 + 1e-9, 0.25])
        n = 400_000
        u = 1.0 - SeededRng(5).uniform((n, lam.size))
        draws = (-np.log(u)) @ lam
        grid = np.linspace(0.0, 12.0, 100)
        spec = EigenSpectrum(lam)
        assert _hypoexponential_cdf_closed_form(grid, spec.eigenvalues) is None
        cdf = lambda_e_cdf(grid, spec)
        empirical = np.searchsorted(np.sort(draws), grid, side="right") / n
        assert np.max(np.abs(cdf - empirical)) < 0.01

    @pytest.mark.parametrize(
        "subcarriers, taps, decay",
        [(256, 16, 0.25), (256, 16, 0.3), (256, 16, 0.5), (256, 16, 0.7), (64, 8, 0.5)],
    )
    def test_widely_spread_spectrum_takes_closed_form(self, subcarriers, taps, decay):
        # the spectra behind criterion 6 and the conditional-estimator tests:
        # eigenvalues spanning 1e-6..1e-8 of the largest are tiny in absolute
        # terms but far apart relative to each other, so well conditioned; a
        # fall to one expm per point would make those tests run for minutes
        cfg = OfdmConfig(subcarriers=subcarriers, cp_len=taps)
        pdp = exponential_pdp(taps, -10.0, decay)
        lam = EigenSpectrum.from_matrix(
            build_c_matrix(cfg, pdp, 1 + cfg.cp_overhead)
        ).eigenvalues
        grid = np.linspace(0.0, 20 * lam.sum(), 200)
        closed = _hypoexponential_cdf_closed_form(grid, lam)
        assert closed is not None
        reference = _hypoexponential_cdf_phase_type(grid, lam)
        assert np.max(np.abs(closed - reference)) < 1e-12

    def test_monotone_and_saturates(self):
        spec = EigenSpectrum(np.array([0.8, 0.3, 0.1, 0.02]))
        grid = np.linspace(0.0, 50 * 0.8, 500)
        cdf = lambda_e_cdf(grid, spec)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] > 0.999

    def test_keeps_the_shape_of_theta(self):
        # a (rates x peaks) grid, as the conditional estimator passes it,
        # whose trailing axis is as long as the spectrum: no broadcasting
        spec = EigenSpectrum(np.array([0.5, 0.2]))
        grid = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        np.testing.assert_array_equal(
            lambda_e_cdf(grid, spec), lambda_e_cdf(grid.ravel(), spec).reshape(3, 2)
        )
        assert lambda_e_cdf(np.ones((2, 3)), spec).shape == (2, 3)

    def test_value_does_not_depend_on_the_thetas_beside_it(self):
        # a matrix-vector product summed the last rows of a call in another
        # order, so a theta's CDF moved in its last bits with the call's size
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp = exponential_pdp(8, -10.0, 0.5)
        spec = EigenSpectrum.from_matrix(build_c_matrix(cfg, pdp, 1.0))
        grid = 3.0 * SeededRng(18).uniform(2000)
        whole = lambda_e_cdf(grid, spec)
        for size in (1, 2, 3, 7):
            parts = [lambda_e_cdf(grid[lo:lo + size], spec) for lo in range(0, grid.size, size)]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            lambda_e_cdf(-0.1, EigenSpectrum(np.array([1.0])))
        with pytest.raises(ValueError):
            lambda_e_cdf([0.5, np.nan], EigenSpectrum(np.array([1.0])))

    def test_exact_zero_eigenvalues_dropped(self):
        # an Exp(0) term is identically zero, so it leaves the CDF unchanged
        grid = np.linspace(0.0, 5.0, 40)
        np.testing.assert_array_equal(
            lambda_e_cdf(grid, EigenSpectrum(np.array([0.5, 0.0, 0.0]))),
            lambda_e_cdf(grid, EigenSpectrum(np.array([0.5]))),
        )
        np.testing.assert_array_equal(
            lambda_e_cdf(grid, EigenSpectrum(np.array([0.5, 0.2, 0.0]))),
            lambda_e_cdf(grid, EigenSpectrum(np.array([0.5, 0.2]))),
        )
        assert np.all(lambda_e_cdf(grid, EigenSpectrum(np.zeros(3))) == 1.0)


class TestSecrecyOutage:
    """P{eavesdropper SNR >= lambda_th - epsilon} as 1 - lambda_e_cdf."""

    def test_threshold_at_zero_gives_certain_outage(self):
        spec = EigenSpectrum(np.array([0.5, 0.1]))
        assert 1.0 - lambda_e_cdf(0.3 - 0.3, spec) == 1.0

    def test_far_threshold_gives_no_outage(self):
        spec = EigenSpectrum(np.array([0.5, 0.1]))
        assert 1.0 - lambda_e_cdf(1e3, spec) < 1e-12

    def test_single_tap_closed_form(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        pdp = exponential_pdp(1, -10.0)
        power = 16.0 / cfg.block_len * (1 + cfg.cp_overhead)  # scalar c = 0.1
        spec = EigenSpectrum.from_matrix(build_c_matrix(cfg, pdp, power))
        threshold = 10 ** (-0.2)
        expected = np.exp(-threshold / 0.1)
        assert 1.0 - lambda_e_cdf(threshold, spec) == pytest.approx(expected, rel=1e-10)


class TestRateOutageCdf:
    def test_vanishing_eavesdropper_concentrates(self):
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp_r = exponential_pdp(8, -10.0, 0.5)
        pdp_e = exponential_pdp(8, -200.0, 0.5)  # total gain 1e-20
        cdf = sk_rate_outage_cdf(cfg, pdp_r, pdp_e, -1.0, 4000, SeededRng(6))
        expected = np.log2(1 + 10 ** (-0.1))
        assert np.max(np.abs(cdf.secret_key_rates - expected)) < 1e-6

    def test_secrecy_cdf_left_of_secret_key_cdf(self):
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp = exponential_pdp(8, -10.0, 0.5)
        cdf = sk_rate_outage_cdf(cfg, pdp, pdp, -1.0, 5000, SeededRng(7))
        # per-sample dominance survives independent sorting
        assert np.all(cdf.secrecy_rates <= cdf.secret_key_rates + 1e-12)

    def test_quantile_accessor_monotone(self):
        cdf = RateCdf(
            secret_key_rates=np.sort(SeededRng(8).uniform(1000)),
            secrecy_rates=np.sort(SeededRng(9).uniform(1000)),
        )
        qs = [cdf.rate_at_outage(p) for p in (0.001, 0.01, 0.1, 0.5, 1.0)]
        assert qs == sorted(qs)

    def test_quantile_convention(self):
        cdf = RateCdf(
            secret_key_rates=np.arange(10, dtype=float),
            secrecy_rates=np.arange(10, dtype=float),
        )
        # largest R with empirical P{rate < R} <= 0.2 is the sample at index 2
        assert cdf.rate_at_outage(0.2) == 2.0
        assert cdf.rate_at_outage(0.0) == 0.0

    def test_chunking_invariant(self, monkeypatch):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        pdp = exponential_pdp(4, -10.0, 0.5)
        monkeypatch.setattr(outage, "_CHUNK", 37)
        a = sk_rate_outage_cdf(cfg, pdp, pdp, -1.0, 300, SeededRng(10))
        monkeypatch.setattr(outage, "_CHUNK", 300)
        b = sk_rate_outage_cdf(cfg, pdp, pdp, -1.0, 300, SeededRng(10))
        assert np.array_equal(a.secret_key_rates, b.secret_key_rates)

    def test_outage_interval_ranks(self):
        # Binomial(1e5, 1e-3) quantiles: ranks 69 and 134 + 1 (1-based)
        ranks = np.arange(1, 100_001, dtype=float)
        cdf = RateCdf(secret_key_rates=ranks, secrecy_rates=ranks)
        assert cdf.outage_interval(1e-3) == (69.0, 135.0)
        with pytest.raises(ValueError):
            RateCdf(ranks[:100], ranks[:100]).outage_interval(1e-3)

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    @pytest.mark.parametrize("p", [1e-3, 1e-2, 0.1, 0.5])
    @pytest.mark.parametrize("q", [0.0005, 0.9995])
    def test_binomial_quantile_matches_scipy_stats(self, n, p, q):
        assert _binomial_quantile(q, n, p) == int(stats.binom.ppf(q, n, p))

    def test_rejects_long_legitimate_pdp(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=2)
        pdp = exponential_pdp(4, -10.0, 0.5)
        with pytest.raises(ValueError):
            sk_rate_outage_cdf(cfg, pdp, pdp, -1.0, 10, SeededRng(0))


class TestConditionalRateOutage:
    def test_single_tap_closed_form(self):
        # one tap on both links: lambda_e = target * (N/M) * E1 / E2 with unit
        # exponentials E1, E2, so P{lambda_e > theta} = 1 / (1 + theta M / (N target))
        cfg = OfdmConfig(subcarriers=64, cp_len=4)
        pdp = exponential_pdp(1, -10.0)
        target = 10 ** (-0.1)
        rates = np.array([0.02, 0.1, 0.3, 0.6])
        n = 20_000
        est = sk_rate_outage_probability(cfg, pdp, pdp, -1.0, rates, n, SeededRng(12))
        theta = target / (2.0 ** rates - 1.0) - 1.0
        a = theta * cfg.subcarriers / (cfg.block_len * target)
        exact = 1.0 / (1.0 + a)
        # each conditional term is exp(-a E) with E ~ Exp(1)
        std_err = np.sqrt((1.0 / (1.0 + 2.0 * a) - exact**2) / n)
        assert np.all(np.abs(est - exact) < 4.0 * std_err)

    def test_agrees_with_monte_carlo_within_interval(self):
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp = exponential_pdp(8, -10.0, 0.5)
        mc = sk_rate_outage_cdf(cfg, pdp, pdp, -1.0, 20_000, SeededRng(13))
        for p in (0.01, 0.1, 0.5):
            lo, hi = mc.outage_interval(p)
            p_lo, p_hi = sk_rate_outage_probability(
                cfg, pdp, pdp, -1.0, [lo, hi], 50_000, SeededRng(14)
            )
            assert p_lo <= p <= p_hi

    def test_rate_limits(self):
        cfg = OfdmConfig(subcarriers=16, cp_len=4)
        pdp = exponential_pdp(4, -10.0, 0.5)
        ceiling = np.log2(1 + 10 ** (-0.1))
        out = sk_rate_outage_probability(
            cfg, pdp, pdp, -1.0, [-0.1, 0.0, ceiling, 2 * ceiling], 100, SeededRng(15)
        )
        assert list(out[[0, 1, 3]]) == [0.0, 0.0, 1.0]
        assert out[2] == pytest.approx(1.0, abs=1e-12)
        assert isinstance(
            sk_rate_outage_probability(cfg, pdp, pdp, -1.0, 0.1, 100, SeededRng(15)),
            float,
        )

    def test_rate_vector_equals_single_rate_calls(self):
        # the (rates x peaks) grid gives each rate exactly its own estimate;
        # 20 000 peaks span three chunks, the last one partial
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp = exponential_pdp(8, -10.0, 0.5)
        ceiling = np.log2(1 + 10 ** (-0.1))
        rates = [0.3, 0.05, 0.0, -1.0, 1.5 * ceiling]
        args = (cfg, pdp, pdp, -1.0)
        out = sk_rate_outage_probability(*args, rates, 20_000, SeededRng(16))
        singles = [sk_rate_outage_probability(*args, r, 20_000, SeededRng(16))
                   for r in rates]
        assert list(out) == singles
        assert 0.0 < out[1] < out[0] < 1.0

    def test_chunking_invariant(self, monkeypatch):
        # per-chunk partial sums moved the last bits with the chunk size
        cfg = OfdmConfig(subcarriers=64, cp_len=8)
        pdp = exponential_pdp(8, -10.0, 0.5)
        args = (cfg, pdp, pdp, -1.0, [0.3, 0.05], 20_000)
        default = sk_rate_outage_probability(*args, SeededRng(16))
        for chunk in (37, 300):
            monkeypatch.setattr(outage, "_CHUNK", chunk)
            assert np.array_equal(sk_rate_outage_probability(*args, SeededRng(16)), default)

    def test_no_rate_above_zero_draws_no_channel(self, monkeypatch):
        # every such rate has probability 0, known before any draw; the
        # arguments are still checked
        draws = []

        def spy(*args):
            draws.append(args)
            return sample_tap_matrix(*args)

        monkeypatch.setattr(outage, "sample_tap_matrix", spy)
        cfg = OfdmConfig(subcarriers=256, cp_len=16)
        pdp = exponential_pdp(16, -10.0, 0.5)
        out = sk_rate_outage_probability(cfg, pdp, pdp, -1.0, [0.0, -1.0], 200_000,
                                         SeededRng(17))
        assert list(out) == [0.0, 0.0] and draws == []
        assert sk_rate_outage_probability(cfg, pdp, pdp, -1.0, 0.0, 10, SeededRng(17)) == 0.0
        with pytest.raises(ValueError, match="at least one sample"):
            sk_rate_outage_probability(cfg, pdp, pdp, -1.0, [0.0], 0, SeededRng(17))
        long_pdp = exponential_pdp(17, -10.0, 0.5)
        with pytest.raises(ValueError, match="longer than the cyclic prefix"):
            sk_rate_outage_probability(cfg, long_pdp, pdp, -1.0, [0.0], 10, SeededRng(17))
        with pytest.raises(ValueError, match="NaN"):
            sk_rate_outage_probability(cfg, pdp, pdp, -1.0, [np.nan, np.inf, 0.3], 10,
                                       SeededRng(17))
        assert draws == []


def test_quadratic_form_validation():
    # from_matrix checks every matrix it is given, not only build_c_matrix's
    with pytest.raises(ValueError, match="symmetric"):
        EigenSpectrum.from_matrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        EigenSpectrum.from_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        EigenSpectrum.from_matrix(np.ones(3))
    # an overflowed form: eigvalsh would give NaN eigenvalues
    with pytest.raises(ValueError, match="finite"):
        EigenSpectrum.from_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
