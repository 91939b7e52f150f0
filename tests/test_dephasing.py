import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import dense_channel
from oracles import dephasing_fsum, sigma_from, t2star_uniform

from dotesd import dephasing
from dotesd.dephasing import DephasingTrace, dephasing_factor, fit_t2star
from dotesd.material import GAAS, CouplingSet, DotGeometry, generate_couplings, uniform_couplings
from dotesd.material import HBAR_UEV_NS as HBAR


def coupling_set(values):
    values = np.asarray(values, dtype=float)
    return CouplingSet(a_k=values, a_total=float(values.sum()))


class TestDephasingFactor:
    def test_starts_at_one(self):
        trace = dephasing_factor(uniform_couplings(83.0, 100), np.linspace(0, 5, 10))
        assert trace.phi[0] == 1.0 + 0.0j

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_single_nucleus_value(self, copies):
        # A t / hbar = 2 pi / 3: phi = (cos(pi/3) + cos(pi)) / 2 = -1/4 per
        # copy, so the sign parity follows the multiplicity
        a = 1.3
        t = (2.0 * np.pi / 3.0) * HBAR / a
        trace = dephasing_factor(coupling_set([a] * copies), [0.0, t])
        assert trace.phi.dtype == np.float64
        assert trace.phi[1].real == pytest.approx((-0.25) ** copies, abs=1e-14)
        assert trace.phi[1].imag == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_dense_diagonal_oracle(self, n):
        rng = np.random.default_rng(n)
        couplings = rng.uniform(0.2, 2.0, size=n)
        times = np.linspace(0.0, 40.0, 60)
        trace = dephasing_factor(coupling_set(couplings), times)
        _, phi_ref = dense_channel(couplings, 0.37, times, flipflop=False)
        # the oracle includes the electron Zeeman phase; compare it away
        omega = 0.44 * 57.8838180 * 0.37 / HBAR
        np.testing.assert_allclose(trace.phi, phi_ref * np.exp(1j * omega * times), atol=1e-10)

    def test_magnitude_bounded(self):
        trace = dephasing_factor(
            coupling_set(np.random.default_rng(1).uniform(0.1, 3, 30)),
            np.linspace(0, 100, 400),
        )
        assert np.all(np.abs(trace.phi) <= 1.0 + 1e-14)

    def test_unique_value_grouping_matches_direct(self):
        times = np.linspace(0.0, 30.0, 50)
        uniform = dephasing_factor(uniform_couplings(5.0, 1000), times)
        explicit = dephasing_factor(coupling_set(np.full(1000, 5.0 / 1000.0)), times)
        np.testing.assert_allclose(uniform.phi, explicit.phi, rtol=0, atol=1e-13)

    def test_megaspin_bath_no_underflow(self):
        couplings = uniform_couplings(83.0, 1_500_000)
        trace = dephasing_factor(couplings, np.array([0.0, 50.0, 200.0, 400.0]))
        assert np.all(np.isfinite(trace.phi.real))
        assert abs(trace.phi[3]) < 1e-200

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ValueError):
            dephasing_factor(coupling_set([1.0, -0.3]), [0.0, 1.0])


def assert_matches_fsum(couplings, times):
    """Relative agreement with the fsum oracle wherever |phi| >= 1e-300.

    Both sides round a log-sum of size L, so the grids keep |L| below about
    200 (|phi| >= 1e-87), where that rounding stays under 3e-14.
    """
    phi = dephasing_factor(couplings, times).phi
    ref = dephasing_fsum(couplings.a_k, times)
    keep = np.abs(ref) >= 1e-300
    assert keep.sum() > len(times) // 2
    np.testing.assert_allclose(phi[keep], ref[keep], rtol=1e-13, atol=0)


class TestAgainstFsumOracle:
    def test_megaspin_uniform_bath(self):
        # 1.5e6 copies of one coupling: a per-factor log rounding is
        # amplified 1.5e6-fold unless the small-argument log is summed exactly
        assert_matches_fsum(uniform_couplings(83.0, 1_500_000), np.linspace(0.0, 100.0, 2000))

    def test_small_realistic_dot_spans_both_paths(self):
        couplings = generate_couplings(GAAS, DotGeometry(20.0, 2.0, 500, 7))
        times = np.linspace(0.0, 2.0, 2000)
        y = couplings.a_k * times[-1] / HBAR
        assert np.any(y <= dephasing._SERIES_X) and np.any(y > dephasing._SERIES_X)
        assert_matches_fsum(couplings, times)

    def test_hand_made_set_straddles_series_limit(self):
        # arguments at t_max from 0.05 to 1.2 rad, multiplicities 1 to 4
        t_max = 37.0
        y = np.linspace(0.05, 1.2, 24)
        values = np.repeat(y * HBAR / t_max, np.arange(24) % 4 + 1)
        times = np.concatenate([np.linspace(0.0, t_max, 500), [-t_max, -0.5 * t_max]])
        assert_matches_fsum(coupling_set(values), times)

    def test_all_zero_times(self):
        trace = dephasing_factor(uniform_couplings(83.0, 1_500_000), np.zeros(3))
        assert np.array_equal(trace.phi, np.ones(3))


def _bernoulli(n_max):
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _log_cos_coefficients(j_max):
    """Exact l_j of log cos x = sum_j l_j x^(2j), j = 1..j_max, from Bernoulli numbers."""
    b = _bernoulli(2 * j_max)
    return [
        Fraction((-1) ** j * 2 ** (2 * j - 1) * (4**j - 1)) * b[2 * j] / (j * math.factorial(2 * j))
        for j in range(1, j_max + 1)
    ]


def _series_coefficients(j_max):
    """Exact c_j = l_j (1 + 4^-j) of log[cos x cos(x/2)]."""
    return [ell * (1 + Fraction(1, 4**j)) for j, ell in enumerate(_log_cos_coefficients(j_max), 1)]


class TestSeriesConstants:
    def test_first_log_cos_coefficients(self):
        expected = [Fraction(-1, 2), Fraction(-1, 12), Fraction(-1, 45), Fraction(-17, 2520)]
        assert _log_cos_coefficients(4) == expected

    def test_literals_are_rounded_exact_coefficients(self):
        exact = _series_coefficients(len(dephasing._SERIES_COEFFS))
        assert list(dephasing._SERIES_COEFFS) == [float(c) for c in exact]

    def test_ratio_bound(self):
        c = _series_coefficients(41)
        assert all(c_j < 0 for c_j in c)
        assert all(abs(c[j + 1] / c[j]) <= 4 / math.pi**2 for j in range(40))

    def test_tail_certified_below_half_ulp(self):
        x, n_terms = dephasing._SERIES_X, len(dephasing._SERIES_COEFFS)
        c = _series_coefficients(n_terms + 1)
        tail = abs(float(c[n_terms])) * x ** (2 * n_terms) / (
            abs(float(c[0])) * (1.0 - 4.0 * x * x / math.pi**2)
        )
        assert tail <= 2.0**-53


class TestFitT2Star:
    def test_exact_gaussian(self):
        times = np.linspace(0.0, 40.0, 500)
        trace = DephasingTrace(times=times, phi=np.exp(-(times**2) / 144.0) + 0.0j)
        fit = fit_t2star(trace)
        assert fit.t2_star_ns == pytest.approx(12.0, abs=1e-6)
        assert fit.rms_residual < 1e-12

    def test_uniform_bath_analytic_value(self):
        # sqrt(8/5) sqrt(N) hbar / A for N = 1.5e6, A = 83 ueV
        couplings = uniform_couplings(83.0, 1_500_000)
        times = np.linspace(0.0, 100.0, 2000)
        fit = fit_t2star(dephasing_factor(couplings, times))
        analytic = t2star_uniform(1_500_000, 83.0)
        assert analytic == pytest.approx(12.285, abs=5e-3)
        assert fit.t2_star_ns == pytest.approx(analytic, rel=0.02)
        assert abs(fit.t2_star_ns - 12.36) / 12.36 < 0.10

    def test_halving_coupling_doubles_t2(self):
        times = np.linspace(0.0, 200.0, 4000)
        fit_a = fit_t2star(dephasing_factor(uniform_couplings(83.0, 10_000), times))
        fit_b = fit_t2star(dephasing_factor(uniform_couplings(41.5, 10_000), times))
        assert fit_b.t2_star_ns == pytest.approx(2.0 * fit_a.t2_star_ns, rel=0.01)

    def test_error_when_no_decay(self):
        times = np.linspace(0.0, 1.0, 50)
        trace = DephasingTrace(times=times, phi=np.exp(-(times**2) / 144.0) + 0.0j)
        with pytest.raises(ValueError):
            fit_t2star(trace)


class TestSigma:
    def test_default_dot(self):
        sigma = sigma_from(1_500_000, 83.0)
        assert sigma == pytest.approx(0.11511, abs=2e-5)
        assert sigma == pytest.approx(math.sqrt(2.0) / t2star_uniform(1_500_000, 83.0), rel=1e-12)

    def test_algebraic_identity(self):
        for n, a in ((10, 5.0), (1_500_000, 83.0), (333, 41.0)):
            sigma = sigma_from(n, a)
            assert sigma**2 * n * HBAR**2 / a**2 == pytest.approx(1.25, rel=1e-12)

    def test_scaling_with_bath_size(self):
        assert sigma_from(2_000, 83.0) ** 2 == pytest.approx(
            2.0 * sigma_from(4_000, 83.0) ** 2, rel=1e-12
        )

    def test_short_time_expansion(self):
        # 1 - |phi(t)| = sigma^2 t^2 / 2 within 5% for t <= 0.2/sigma
        n, a = 50_000, 83.0
        sigma = sigma_from(n, a)
        times = np.linspace(0.0, 0.2 / sigma, 40)
        trace = dephasing_factor(uniform_couplings(a, n), times)
        drop = 1.0 - np.abs(trace.phi[1:])
        model = 0.5 * sigma**2 * times[1:] ** 2
        np.testing.assert_allclose(drop, model, rtol=0.05)
