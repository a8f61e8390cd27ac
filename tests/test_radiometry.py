"""Unit tests for the closed-form radiometry module."""

import math

import pytest

from beamsim import DomainError
from beamsim.radiometry import (
    C,
    HBAR,
    K_B,
    STEFAN_BOLTZMANN_SIGMA,
    WIEN_B,
    WIEN_X,
    collimated_power,
    collimation_efficiency,
    filament_area,
    filtered_power,
    filtering_efficiency,
    mean_occupation,
    photons_per_coherence_time,
    radiated_power,
    temperature_for_collimated_power,
    temperature_for_filtered_power,
    wien_peak,
)


def omega_for_ratio(ratio: float, T: float) -> float:
    """omega with hbar*omega/(k_B*T) equal to the requested ratio."""
    return ratio * K_B * T / HBAR


class TestConstants:
    def test_codata_stefan_boltzmann(self):
        assert STEFAN_BOLTZMANN_SIGMA == pytest.approx(5.670374419e-8, rel=1e-6)

    def test_wien_displacement_constant(self):
        assert WIEN_B == pytest.approx(2.8977e-3, rel=1e-3)


class TestMeanOccupation:
    def test_ratio_ln2_gives_one(self):
        assert mean_occupation(omega_for_ratio(math.log(2.0), 300.0), 300.0) == pytest.approx(1.0, rel=1e-12)

    def test_ratio_one(self):
        assert mean_occupation(omega_for_ratio(1.0, 300.0), 300.0) == pytest.approx(
            1.0 / (math.e - 1.0), rel=1e-12)

    def test_deep_wien_limit(self):
        n = mean_occupation(omega_for_ratio(50.0, 300.0), 300.0)
        assert n == pytest.approx(math.exp(-50.0), rel=1e-12)

    def test_rayleigh_jeans_limit(self):
        # n -> k_B T / (hbar omega) within 1% at ratio 1e-3
        n = mean_occupation(omega_for_ratio(1e-3, 300.0), 300.0)
        assert n == pytest.approx(1e3, rel=1e-2)

    def test_wien_limit_one_percent(self):
        n = mean_occupation(omega_for_ratio(20.0, 300.0), 300.0)
        assert n == pytest.approx(math.exp(-20.0), rel=1e-2)

    def test_monotone_in_temperature(self):
        omega = omega_for_ratio(1.0, 300.0)
        assert mean_occupation(omega, 600.0) > mean_occupation(omega, 300.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            mean_occupation(-1.0, 300.0)
        with pytest.raises(DomainError):
            mean_occupation(1e15, 0.0)


class TestRadiatedPower:
    def test_filament_at_3000K(self):
        assert radiated_power(15e-6, 3000.0) == pytest.approx(69.0, rel=0.02)

    def test_quartic_scaling(self):
        assert radiated_power(1e-4, 6000.0) == pytest.approx(
            16.0 * radiated_power(1e-4, 3000.0), rel=1e-12)

    def test_small_area_limit(self):
        assert radiated_power(1e-30, 3000.0) > 0.0
        with pytest.raises(DomainError):
            radiated_power(0.0, 3000.0)


class TestWienPeak:
    def test_2898K_peaks_at_one_micron(self):
        assert wien_peak(2898.0) == pytest.approx(1.0e-6, rel=1e-3)

    def test_3000K_near_infrared(self):
        assert 0.9e-6 < wien_peak(3000.0) < 1.05e-6

    def test_inverse_scaling(self):
        assert wien_peak(6000.0) == pytest.approx(wien_peak(3000.0) / 2.0, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            wien_peak(-10.0)


class TestFilamentArea:
    def test_60W_bulb(self):
        assert filament_area(60.0, 1e-6) == pytest.approx(15e-6, rel=0.05)

    def test_quartic_in_wavelength(self):
        assert filament_area(60.0, 0.5e-6) == pytest.approx(
            filament_area(60.0, 1e-6) / 16.0, rel=1e-12)

    def test_linear_in_power(self):
        assert filament_area(100.0, 1e-6) == pytest.approx(25e-6, rel=0.05)


class TestCollimatedPower:
    def test_temperature_of_100mW_beam(self):
        assert collimated_power(4.6e5) == pytest.approx(0.1, rel=0.02)

    def test_quadratic_scaling(self):
        assert collimated_power(2000.0) == pytest.approx(4.0 * collimated_power(1000.0), rel=1e-12)

    def test_3000K_value(self):
        # direct evaluation of (pi/12)(k_B T)^2/hbar with CODATA constants
        assert collimated_power(3000.0) == pytest.approx(4.2589e-6, rel=1e-4)


class TestTemperatureForCollimatedPower:
    def test_100mW(self):
        T = temperature_for_collimated_power(0.1)
        assert T == pytest.approx(4.6e5, rel=0.02)
        assert T == pytest.approx(459695.7455, rel=1e-9)

    def test_sqrt_scaling(self):
        assert temperature_for_collimated_power(0.4) == pytest.approx(
            2.0 * temperature_for_collimated_power(0.1), rel=1e-12)

    def test_inverse_of_3000K_power(self):
        assert temperature_for_collimated_power(4.2589e-6) == pytest.approx(3000.0, rel=1e-4)

    def test_round_trip_over_12_decades(self):
        for exponent in range(2, 17):
            T = 10.0**exponent
            assert temperature_for_collimated_power(collimated_power(T)) == pytest.approx(
                T, rel=1e-12)


class TestFilteredPower:
    def test_100mW_beam(self):
        omega0 = 2.0 * math.pi * C / 1e-6
        nu = photons_per_coherence_time(0.1, 1e-6, 1e7)
        assert filtered_power(nu, omega0, 1e7) == pytest.approx(0.1, rel=1e-12)

    def test_zero_brightness(self):
        assert filtered_power(0.0, 1e15, 1e7) == 0.0

    def test_linear_in_linewidth(self):
        assert filtered_power(1e11, 1e15, 2e7) == pytest.approx(
            2.0 * filtered_power(1e11, 1e15, 1e7), rel=1e-12)

    def test_warns_for_wide_filter(self):
        with pytest.warns(UserWarning):
            filtered_power(1.0, 1e9, 1e8)

    @pytest.mark.parametrize("nu", [-1.0, math.nan, math.inf])
    def test_rejects_a_negative_or_non_finite_nu(self, nu):
        with pytest.raises(DomainError, match="nu must be finite and non-negative"):
            filtered_power(nu, 1e15, 1e7)


class TestTemperatureForFilteredPower:
    def test_100mW_through_1e7_filter(self):
        T = temperature_for_filtered_power(0.1, 1e7)
        assert T == pytest.approx(2.9e15, rel=0.02)

    def test_linear_in_power(self):
        assert temperature_for_filtered_power(1.0, 1e7) == pytest.approx(
            10.0 * temperature_for_filtered_power(0.1, 1e7), rel=1e-12)

    def test_inverse_linear_in_linewidth(self):
        assert temperature_for_filtered_power(0.1, 1e8) == pytest.approx(2.9e14, rel=0.02)

    def test_high_temperature_identity(self):
        # k_B T'' equals nu hbar omega0 exactly for matching P, Gamma
        P, lam0, Gamma = 0.1, 1e-6, 1e7
        omega0 = 2.0 * math.pi * C / lam0
        nu = photons_per_coherence_time(P, lam0, Gamma)
        T = temperature_for_filtered_power(P, Gamma)
        assert K_B * T == pytest.approx(nu * HBAR * omega0, rel=1e-12)


class TestCollimationEfficiency:
    def test_paper_scenario(self):
        eff = collimation_efficiency(0.1, 15e-6)
        assert eff.approximate == pytest.approx(2.6e-12, rel=0.05)
        assert eff.exact == pytest.approx(2.6e-12, rel=0.05)

    def test_approximate_matches_exact(self):
        eff = collimation_efficiency(0.1, 15e-6)
        assert eff.approximate == pytest.approx(eff.exact, rel=0.05)

    def test_halves_when_area_doubles(self):
        a = collimation_efficiency(0.1, 15e-6)
        b = collimation_efficiency(0.1, 30e-6)
        assert b.approximate == pytest.approx(a.approximate / 2.0, rel=1e-12)


class TestFilteringEfficiency:
    def test_paper_scenario_orders_of_magnitude(self):
        eff = filtering_efficiency(0.1, 15e-6, 1e7, 1e-6)
        assert abs(eff.log10_total - (-51.0)) < 1.5
        assert abs(math.log10(eff.geometric) - (-7.0)) < 1.5
        assert abs(math.log10(eff.spectral) - (-8.0)) < 1.5

    def test_product_is_exact_factorization(self):
        eff = filtering_efficiency(0.1, 15e-6, 1e7, 1e-6)
        assert eff.product == pytest.approx(
            eff.geometric * eff.spectral * eff.brightness, rel=1e-12)

    def test_total_vs_product_differ_by_wien_cube(self):
        eff = filtering_efficiency(0.1, 15e-6, 1e7, 1e-6)
        assert eff.product / eff.total == pytest.approx(WIEN_X**3, rel=1e-12)

    def test_unit_brightness_reduces_to_two_factors(self):
        # pick P so that nu = 4P/(hbar omega0 Gamma) = 1
        lam0, Gamma = 1e-6, 1e7
        omega0 = 2.0 * math.pi * C / lam0
        P = HBAR * omega0 * Gamma / 4.0
        eff = filtering_efficiency(P, 15e-6, Gamma, lam0)
        assert eff.nu == pytest.approx(1.0, rel=1e-12)
        assert eff.brightness == pytest.approx(1.0, rel=1e-12)
        assert eff.product == pytest.approx(eff.geometric * eff.spectral, rel=1e-12)


class TestPhotonsPerCoherenceTime:
    def test_paper_scenario(self):
        nu = photons_per_coherence_time(0.1, 1e-6, 1e7)
        assert nu == pytest.approx(2.0e11, rel=0.02)
        assert 11.0 <= math.log10(nu) <= 12.5

    def test_inverse_linear_in_linewidth(self):
        assert photons_per_coherence_time(0.1, 1e-6, 4e7) == pytest.approx(
            photons_per_coherence_time(0.1, 1e-6, 1e7) / 4.0, rel=1e-12)
