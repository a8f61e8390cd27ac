"""Unit tests for the spectral and correlation estimators."""

import math

import numpy as np
import pytest

from beamsim import DomainError
from beamsim.fieldgen import (
    BeamModelSpec,
    Ensemble,
    FieldTrace,
    generate_ensemble,
    lorentzian,
)
from beamsim.spectral import (
    SpectrumEstimate,
    _anova_f,
    cross_mode_correlation,
    estimate_fwhm,
    periodogram,
    periodogram_bin_values,
    periodogram_distribution_test,
    predicted_cross_mode_correlation,
    spectrum,
    stationarity_test,
    windowed_mean_intensities,
    windowed_means_and_carrier_powers,
)

THERMAL = BeamModelSpec(family="thermal", nu=100.0, gamma=1.0)
LASER = BeamModelSpec(family="laser", nu=100.0, gamma=1.0)
TWO_PI = 2.0 * math.pi


def constant_trace(c0=3.0 + 4.0j, dt=0.01, n=2000):
    return FieldTrace(samples=np.full(n, c0, dtype=complex), dt=dt,
                      model=LASER, master_seed=0)


def exact_discrete_cross(nu, gamma, dt, n, k_det, kp_det):
    """Brute-force oracle: E[u~(k) u~*(k')] for the discrete OU process,
    from the exact Toeplitz covariance C(m) = (nu gamma/4) a^|m| summed with
    geometric partial sums (no leading-order approximation)."""
    a = math.exp(-gamma * dt / 2.0)
    c0 = nu * gamma / 4.0
    duration = n * dt
    z1 = np.exp(1j * k_det * dt)
    z2 = np.exp(-1j * kp_det * dt)
    w = (z1 * z2) ** np.arange(n)
    W = np.concatenate([[0.0 + 0.0j], np.cumsum(w)])  # W[j] = sum of w[:j]
    m = np.arange(1, n)
    pos = np.sum(c0 * a**m * z2 ** (-m) * (W[n] - W[m]))     # j - j' = m > 0
    neg = np.sum(c0 * a**m * z2**m * W[n - m])               # j - j' = -m < 0
    zero = c0 * W[n]
    return (dt * dt / duration) * (zero + pos + neg)


class TestPeriodogram:
    def test_dc_line(self):
        trace = constant_trace()
        est = periodogram(trace)
        i0 = int(np.argmin(np.abs(est.grid)))
        assert est.values[i0] == pytest.approx(25.0 * trace.duration, rel=1e-12)
        rest = np.delete(est.values, i0)
        assert np.max(rest) < 1e-18 * est.values[i0]

    def test_pure_tone_single_bin(self):
        dt, n = 0.01, 2000
        duration = n * dt
        omega1 = TWO_PI * 7 / duration
        t = np.arange(n) * dt
        trace = FieldTrace(samples=np.exp(-1j * omega1 * t), dt=dt,
                           model=LASER, master_seed=0)
        est = periodogram(trace)
        i = int(np.argmin(np.abs(est.grid - omega1)))
        assert est.values[i] == pytest.approx(duration, rel=1e-10)
        assert np.max(np.delete(est.values, i)) < 1e-18 * duration

    @pytest.mark.parametrize("family", ["thermal", "laser", "kspace_product"])
    def test_parseval_identity(self, family):
        model = BeamModelSpec(family=family, nu=100.0, gamma=1.0)
        trace = next(generate_ensemble(model, 0.01, 5000, 3, 1))
        est = periodogram(trace)
        d_omega = TWO_PI / trace.duration
        lhs = np.sum(est.values) * d_omega / TWO_PI
        rhs = np.sum(trace.intensity()) * trace.dt / trace.duration
        assert abs(lhs - rhs) < 1e-10 * rhs

    def test_grid_symmetric_about_zero(self):
        est = periodogram(constant_trace(n=2001))
        assert np.allclose(est.grid, -est.grid[::-1])


class TestSpectrum:
    def test_needs_two_traces(self):
        with pytest.raises(DomainError):
            spectrum(generate_ensemble(THERMAL, 0.01, 2000, 1, 1))

    @pytest.mark.parametrize("empty", ["list", "ensemble"])
    def test_empty_ensemble_rejected(self, empty):
        traces = [] if empty == "list" else Ensemble(THERMAL, 0.01, 2000, 1, range(0))
        with pytest.raises(DomainError, match="empty ensemble"):
            spectrum(traces)

    def test_heterogeneous_grids_rejected(self):
        a = next(generate_ensemble(THERMAL, 0.01, 2000, 1, 1))
        b = next(generate_ensemble(THERMAL, 0.01, 4000, 1, 1))
        with pytest.raises(DomainError):
            spectrum([a, b])

    def test_thermal_peak_and_shape(self):
        est = spectrum(generate_ensemble(THERMAL, 0.01, 5000, 21, 800))
        duration = 50.0
        i0 = int(np.argmin(np.abs(est.grid)))
        predicted = 100.0 * (1.0 - 2.0 / duration)  # finite-record deficit
        assert abs(est.values[i0] - predicted) < 3.0 * est.std_errors[i0]
        # near the Gamma/2 half-max points the flux density drops to ~nu/2
        for sign in (+1, -1):
            omega = sign * 4 * TWO_PI / duration  # grid bin nearest Gamma/2
            i = int(np.argmin(np.abs(est.grid - omega)))
            expected = predicted_cross_mode_correlation(
                100.0, 1.0, duration, omega, omega).real
            assert expected == pytest.approx(50.0, rel=0.05)
            assert abs(est.values[i] - expected) < 3.0 * est.std_errors[i]

    def test_zero_brightness_spectrum_is_zero(self):
        model = BeamModelSpec(family="thermal", nu=0.0, gamma=1.0)
        est = spectrum(generate_ensemble(model, 0.01, 2000, 1, 3))
        assert np.all(est.values == 0.0)


class TestPeriodogramDistribution:
    def test_thermal_exponential_law(self):
        report = periodogram_distribution_test(periodogram_bin_values(
            generate_ensemble(THERMAL, 0.01, 2000, 5, 1500), detuning=0.0))
        assert report.passed
        assert report.p_value > 1e-3

    def test_kspace_product_fails(self):
        model = BeamModelSpec(family="kspace_product", nu=100.0, gamma=1.0)
        report = periodogram_distribution_test(periodogram_bin_values(
            generate_ensemble(model, 0.01, 2000, 5, 1500), detuning=0.0))
        assert not report.passed
        # per-mode modulus is deterministic, so the bin value is constant
        values = periodogram_bin_values(
            generate_ensemble(model, 0.01, 2000, 5, 50), detuning=0.0)
        assert np.ptp(values) < 1e-9 * values.mean()

    @pytest.mark.parametrize("significance", [math.nan, 0.0, 1.0, -1.0, 1.5])
    def test_meaningless_significance_rejected(self, significance):
        values = np.random.default_rng(2).exponential(size=1000)
        with pytest.raises(DomainError, match="significance"):
            periodogram_distribution_test(values, significance=significance)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_values(self, bad):
        values = np.random.default_rng(2).exponential(size=1000)
        values[17] = bad
        with pytest.raises(DomainError, match="finite and >= 0"):
            periodogram_distribution_test(values)

    def test_rejects_an_all_zero_bin(self):
        with pytest.raises(DomainError, match="degenerate"):
            periodogram_distribution_test(np.zeros(1000))

    def test_requires_1000_traces(self):
        with pytest.raises(DomainError):
            periodogram_distribution_test(periodogram_bin_values(
                generate_ensemble(THERMAL, 0.01, 2000, 5, 999), detuning=0.0))

    def test_off_grid_detuning_rejected(self):
        for detuning in (0.1234, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                periodogram_bin_values(
                    generate_ensemble(THERMAL, 0.01, 2000, 5, 2), detuning=detuning)

    def test_beyond_nyquist_rejected(self):
        with pytest.raises(DomainError):
            periodogram_bin_values(
                generate_ensemble(THERMAL, 0.01, 2000, 5, 2),
                detuning=TWO_PI / 0.01)


class TestCrossModeCorrelation:
    def test_prediction_matches_exact_oracle(self):
        # leading-order finite-record formula vs the exact discrete
        # covariance sum, at T = 50/Gamma
        nu, gamma, dt, n = 100.0, 1.0, 0.01, 5000
        duration = n * dt
        d_omega = TWO_PI / duration
        cases = [(0.0, 0.0), (0.0, 4 * d_omega), (d_omega, -d_omega)]
        for k, kp in cases:
            exact = exact_discrete_cross(nu, gamma, dt, n, k, kp)
            approx = predicted_cross_mode_correlation(nu, gamma, duration, k, kp)
            assert abs(exact.real - approx.real) < 2e-3 * max(abs(exact), 1.0)
            # residual imaginary part is a pure discretization term, O(dt)
            assert abs(exact.imag) < gamma * dt

    def test_monte_carlo_agrees_with_oracle(self):
        nu, gamma, dt, n = 100.0, 1.0, 0.01, 5000
        duration = n * dt
        d_omega = TWO_PI / duration
        pairs = [(0.0, 0.0), (0.0, 4 * d_omega)]
        est = cross_mode_correlation(
            generate_ensemble(THERMAL, dt, n, 77, 3000), pairs)
        for (k, kp), value, err in zip(pairs, est.values, est.std_errors):
            exact = exact_discrete_cross(nu, gamma, dt, n, k, kp)
            assert abs(value.real - exact.real) < 3.0 * err.real
            assert abs(value.imag) <= 3.0 * err.imag   # the diagonal pair: 0 <= 0

    def test_off_diagonal_is_negative_real(self):
        # zero-center pair: second bracket term vanishes, value = -nu (2/TG) f f'
        nu, gamma, duration = 100.0, 1.0, 50.0
        kp = 0.5  # f = 1/2 at Gamma/2 detuning
        value = predicted_cross_mode_correlation(nu, gamma, duration, 0.0, kp)
        assert value.real < 0.0
        assert value.imag == 0.0
        assert value.real == pytest.approx(-nu * (2.0 / duration) * lorentzian(kp, gamma),
                                           rel=1e-12)

    def test_periodic_field_is_delta_correlated(self):
        model = BeamModelSpec(family="periodic_thermal", nu=100.0, gamma=1.0)
        duration = 20.0
        d_omega = TWO_PI / duration
        est = cross_mode_correlation(
            generate_ensemble(model, 0.01, 2000, 13, 500),
            [(3 * d_omega, 7 * d_omega), (0.0, d_omega)])
        for value, err in zip(est.values, est.std_errors):
            assert abs(value.real) < 3.0 * err.real
            assert abs(value.imag) < 3.0 * err.imag

    def test_per_component_standard_errors(self):
        """std_errors is sigma_re/sqrt(N) + i sigma_im/sqrt(N); a diagonal
        pair is the bin's power, whose imaginary part is exactly zero."""
        d_omega = TWO_PI / 20.0
        pairs = [(0.0, 0.0), (0.0, 3 * d_omega)]
        est = cross_mode_correlation(generate_ensemble(THERMAL, 0.01, 2000, 5, 40), pairs)
        power = periodogram_bin_values(generate_ensemble(THERMAL, 0.01, 2000, 5, 40), 0.0)
        assert est.values[0].imag == 0.0 and est.std_errors[0].imag == 0.0
        assert est.values[0].real == pytest.approx(power.mean(), rel=1e-12)
        assert est.std_errors[0].real == pytest.approx(power.std(ddof=1) / math.sqrt(40),
                                                       rel=1e-12)
        assert est.std_errors[1].real > 0.0 and est.std_errors[1].imag > 0.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(DomainError):
            cross_mode_correlation(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [])

    def test_non_finite_detuning_rejected(self):
        with pytest.raises(DomainError, match="detuning must be finite"):
            cross_mode_correlation(generate_ensemble(THERMAL, 0.01, 2000, 1, 2),
                                   [(0.0, 0.0), (math.inf, math.nan)])


class TestWienerKhinchin:
    def test_spectrum_inverts_to_lag_correlation(self):
        # circular correlation from the periodogram matches the OU kernel
        # once the rectangular-record factor (1 - tau/T) is accounted for
        dt, n = 0.01, 20000
        duration = n * dt
        lags = [50, 100, 300, 500]  # tau = 0.5 ... 5 / Gamma
        per_trace = {k: [] for k in lags}
        for trace in generate_ensemble(THERMAL, dt, n, 29, 300):
            b = np.fft.ifft(trace.samples)
            p = (b.real**2 + b.imag**2) * duration
            corr = np.fft.fft(p) / duration
            for k in lags:
                per_trace[k].append(corr[k].real)
        for k in lags:
            vals = np.asarray(per_trace[k])
            tau = k * dt
            predicted = (1.0 - tau / duration) * 25.0 * math.exp(-tau / 2.0)
            sigma = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - predicted) < 3.0 * sigma


class TestStationarity:
    def test_thermal_passes(self):
        report = stationarity_test(windowed_mean_intensities(
            generate_ensemble(THERMAL, 0.01, 10000, 101, 100), n_windows=8))
        assert report.passed
        assert report.p_value > 1e-3

    def test_laser_passes_trivially(self):
        report = stationarity_test(windowed_mean_intensities(
            generate_ensemble(LASER, 0.01, 10000, 101, 100), n_windows=8))
        assert report.passed
        assert report.p_value == 1.0  # constant intensity

    def test_kspace_product_fails(self):
        model = BeamModelSpec(family="kspace_product", nu=100.0, gamma=1.0)
        report = stationarity_test(windowed_mean_intensities(
            generate_ensemble(model, 0.01, 10000, 101, 100), n_windows=8))
        assert not report.passed
        # the deterministic per-trace total flux lands in the far left tail
        # of the window-independence null
        assert report.p_independence <= 1e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            stationarity_test(windowed_mean_intensities(
                generate_ensemble(THERMAL, 0.01, 2000, 1, 10), n_windows=3))
        with pytest.raises(DomainError):
            stationarity_test(windowed_mean_intensities(
                generate_ensemble(THERMAL, 0.01, 2000, 1, 4), n_windows=8))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_window_matrix(self, bad):
        W = np.random.default_rng(2).random((20, 8))
        W[3, 5] = bad
        with pytest.raises(DomainError, match="W must be finite"):
            stationarity_test(W)

    def test_rejects_a_trace_shorter_than_n_windows(self):
        with pytest.raises(DomainError, match="shorter than n_windows"):
            windowed_mean_intensities(generate_ensemble(THERMAL, 0.01, 4, 1, 2), n_windows=8)

    def test_identical_pulse_shapes_fail(self):
        """Every trace with the same non-flat window pattern has no spread
        within positions: F is infinite and position homogeneity fails."""
        W = np.tile([1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0], (20, 1))
        assert _anova_f(W) == math.inf
        report = stationarity_test(W)
        assert report.p_position <= 1e-3
        assert not report.passed

    def test_window_matrix_needs_four_windows(self):
        with pytest.raises(DomainError):
            stationarity_test(np.ones((10, 3)))

    @pytest.mark.parametrize("significance", [math.nan, 0.0, 1.0, -1.0, 1.5])
    def test_meaningless_significance_rejected(self, significance):
        W = np.random.default_rng(2).random((20, 8))
        with pytest.raises(DomainError, match="significance"):
            stationarity_test(W, significance=significance)
        with pytest.raises(DomainError, match="significance"):   # before the constant case
            stationarity_test(np.ones((20, 8)), significance=significance)

    @pytest.mark.parametrize("n_permutations", [0, -5])
    def test_needs_a_permutation(self, n_permutations):
        with pytest.raises(DomainError, match="n_permutations"):
            stationarity_test(np.random.default_rng(2).random((20, 8)),
                              n_permutations=n_permutations)

    def test_single_pass_matches_separate_reductions(self):
        def ensemble():
            return generate_ensemble(THERMAL, 0.01, 2000, 1, 10)

        W, carrier = windowed_means_and_carrier_powers(ensemble(), 8)
        assert np.array_equal(W, windowed_mean_intensities(ensemble(), 8))
        assert np.array_equal(carrier, periodogram_bin_values(ensemble(), 0.0))

    def test_windowed_matrix_shape(self):
        W = windowed_mean_intensities(generate_ensemble(THERMAL, 0.01, 2000, 1, 10), 8)
        assert W.shape == (10, 8)
        assert np.all(W >= 0.0)

    @staticmethod
    def reference_counts(W, n_permutations, seed):
        """The permutation loop written out: F per permutation, columns
        shuffled in place; returns (f_ge, d_ge, d_le)."""
        rng = np.random.default_rng(seed)
        f_obs = _anova_f(W)
        d_obs = float(np.var(W.mean(axis=1), ddof=1))
        f_ge = d_ge = d_le = 0
        for _ in range(n_permutations):
            f_ge += _anova_f(rng.permuted(W, axis=1)) >= f_obs
            d_star = float(np.var(rng.permuted(W, axis=0).mean(axis=1), ddof=1))
            d_ge += d_star >= d_obs
            d_le += d_star <= d_obs
        return f_ge, d_ge, d_le

    @pytest.mark.parametrize("case", ["thermal", "kspace_product", "ties", "flat_columns",
                                      "flat_rows"])
    def test_matches_the_reference_loop(self, case):
        rng = np.random.default_rng(3)
        if case in ("thermal", "kspace_product"):
            model = BeamModelSpec(family=case, nu=100.0, gamma=1.0)
            W = windowed_mean_intensities(generate_ensemble(model, 0.01, 2000, 5, 200), 8)
        elif case == "ties":
            W = rng.integers(0, 3, (40, 8)).astype(float)
        elif case == "flat_columns":   # F = 0: every permutation counts
            W = np.tile(rng.random(8), (20, 1))
        else:
            W = np.tile(rng.random((20, 1)), (1, 8))
        n_perm, seed = 499, 11
        f_ge, d_ge, d_le = self.reference_counts(W, n_perm, seed)
        report = stationarity_test(W, n_permutations=n_perm, permutation_seed=seed)
        assert report.p_position == (1 + f_ge) / (n_perm + 1)
        assert report.p_independence == min(1.0, 2.0 * min(1 + d_ge, 1 + d_le) / (n_perm + 1))
        assert report.position_statistic == _anova_f(W)


class TestEstimateFwhm:
    def test_exact_lorentzian(self):
        grid = np.linspace(-20.0, 20.0, 4001)
        est = SpectrumEstimate(grid=grid, values=lorentzian(grid, 2.0),
                               std_errors=np.zeros_like(grid), ensemble_size=1)
        assert estimate_fwhm(est) == pytest.approx(2.0, rel=1e-4)

    def test_smoothing_validation(self):
        grid = np.linspace(-20.0, 20.0, 401)
        est = SpectrumEstimate(grid=grid, values=lorentzian(grid, 2.0),
                               std_errors=np.zeros_like(grid), ensemble_size=1)
        with pytest.raises(DomainError):
            estimate_fwhm(est, smooth_bins=2)
        with pytest.raises(DomainError):
            estimate_fwhm(est, smooth_bins=1001)

    def test_not_single_peaked(self):
        grid = np.linspace(0.0, 1.0, 11)
        est = SpectrumEstimate(grid=grid, values=np.ones_like(grid),
                               std_errors=np.zeros_like(grid), ensemble_size=1)
        with pytest.raises(DomainError):
            estimate_fwhm(est)


class TestContainers:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            SpectrumEstimate(grid=np.array([1.0, 1.0]), values=np.zeros(2),
                             std_errors=np.zeros(2), ensemble_size=1)

    def test_values_must_be_non_negative(self):
        with pytest.raises(DomainError):
            SpectrumEstimate(grid=np.array([0.0, 1.0]), values=np.array([-1.0, 0.0]),
                             std_errors=np.zeros(2), ensemble_size=1)
