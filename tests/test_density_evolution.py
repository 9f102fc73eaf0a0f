import numpy as np
import pytest
from scipy.integrate import quad

import skagree.ldpc.de as de_module
from skagree.ldpc import decoding_threshold, density_evolution, psi, psi_inv


def psi_adaptive_quadrature(x):
    """Independent oracle: adaptive quadrature of the defining integral."""
    integrand = lambda y: np.tanh(y / 2.0) * np.exp(-((y - x) ** 2) / (4 * x))
    lo = x - 14 * np.sqrt(x) - 5
    hi = x + 14 * np.sqrt(x) + 5
    val, _ = quad(integrand, lo, hi, limit=500, epsabs=1e-13, epsrel=1e-13)
    return val / np.sqrt(4 * np.pi * x)


class TestPsi:
    def test_zero(self):
        assert psi(0.0) == 0.0

    def test_saturates(self):
        assert psi(25.0) > 0.999

    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 2.5, 10.0, 40.0, 90.0])
    def test_two_quadratures_agree(self, x):
        assert abs(psi(x) - psi_adaptive_quadrature(x)) < 1e-9

    def test_strictly_monotone(self):
        grid = np.concatenate(
            [np.linspace(1e-4, 1, 200, endpoint=False), np.linspace(1, 50, 400)]
        )
        values = np.array([psi(x) for x in grid])
        assert np.all(np.diff(values) > 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            psi(-0.5)

    def test_continuous_at_asymptotic_seam(self):
        assert abs(psi(99.9999) - psi(100.0001)) < 1e-10


class TestPsiInv:
    def test_zero(self):
        assert psi_inv(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_round_trip(self, x):
        assert abs(psi_inv(psi(x)) - x) < 1e-6

    def test_forward_round_trip(self):
        for y in (0.05, 0.3, 0.5, 0.9, 0.999):
            assert abs(psi(psi_inv(y)) - y) < 1e-8

    def test_half_against_bisection_oracle(self):
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if psi(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert abs(psi_inv(0.5) - 0.5 * (lo + hi)) < 1e-8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            psi_inv(1.0)
        with pytest.raises(ValueError):
            psi_inv(-0.1)


class TestDensityEvolution:
    def test_zero_snr_stays_at_zero(self):
        res = density_evolution(3, 4, 0.0, max_iter=50)
        assert not res.converged
        assert np.all(res.trace == 0.0) or res.trace.size <= 1

    def test_high_snr_converges_fast(self):
        res = density_evolution(3, 4, 10.0)
        assert res.converged
        assert len(res.trace) < 10

    def test_trace_monotone(self):
        res = density_evolution(3, 4, 0.7, max_iter=200)
        finite = res.trace[np.isfinite(res.trace)]
        assert np.all(np.diff(finite) >= -1e-12)

    def test_convergence_monotone_in_snr(self):
        flags = [
            density_evolution(3, 4, ec).converged
            for ec in (0.3, 0.5, 0.63, 0.8, 1.2, 3.0)
        ]
        assert flags == sorted(flags)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            density_evolution(1, 4, 1.0)
        with pytest.raises(ValueError):
            density_evolution(3, 3.0, 1.0)
        with pytest.raises(ValueError):
            density_evolution(3, 4, -1.0)


class TestDecodingThreshold:
    def test_wc3_rate_quarter_near_minus_two_db(self):
        lam = decoding_threshold(3, 4.0)
        assert abs(10 * np.log10(lam) - (-2.0)) < 0.3

    def test_divergence_criterion_insensitive(self):
        # raising the success cutoff from 1 to 100 moves the threshold < 0.1 dB
        base = 10 * np.log10(decoding_threshold(3, 4.0, tol_db=0.02, xi_target=1.0))
        for target in (10.0, 100.0):
            moved = 10 * np.log10(
                decoding_threshold(3, 4.0, tol_db=0.02, xi_target=target)
            )
            assert abs(moved - base) < 0.1

    def test_tolerance_below_float_spacing_returns(self, monkeypatch):
        """A ``tol_db`` finer than the bracket's float spacing ends the
        bisection once no float lies between its ends; the spy stops a
        bisection that cannot narrow well before a hang."""
        runs = []
        inner = de_module.density_evolution

        def counting(*args):
            runs.append(args)
            if len(runs) > 200:
                raise AssertionError("bisection does not end")
            return inner(*args)

        monkeypatch.setattr(de_module, "density_evolution", counting)
        fine = 10 * np.log10(decoding_threshold(3, 4.0, tol_db=1e-17, max_iter=50))
        coarse = 10 * np.log10(decoding_threshold(3, 4.0, tol_db=0.05, max_iter=50))
        assert abs(fine - coarse) < 0.05

    @pytest.mark.parametrize("lo_db, hi_db", [(10.0, -10.0), (0.0, 0.0)])
    def test_empty_bracket_rejected_before_any_run(self, monkeypatch, lo_db, hi_db):
        runs = []
        monkeypatch.setattr(de_module, "density_evolution", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match="lo_db"):
            decoding_threshold(3, 4.0, lo_db=lo_db, hi_db=hi_db)
        assert runs == []

    def test_bracket_failure_raises(self):
        with pytest.raises(RuntimeError):
            decoding_threshold(3, 4.0, lo_db=5.0, hi_db=20.0)
        with pytest.raises(ValueError):
            decoding_threshold(3, 4.0, tol_db=0.0)
