"""Unit tests for the single-mode state models."""

import math

import numpy as np
import pytest
from scipy import stats

from beamsim import DomainError
from beamsim.states import (
    SingleModeState,
    photon_number_variance,
    poisson_pmf,
    sample_coherent_amplitude,
    sample_photon_count,
    thermal_pmf,
)


def rng(seed=12345):
    return np.random.default_rng(seed)


class TestThermalPmf:
    def test_vacuum(self):
        assert thermal_pmf(0.0, 0) == 1.0
        assert thermal_pmf(0.0, 5) == 0.0

    def test_nbar_one_values(self):
        assert thermal_pmf(1.0, 0) == pytest.approx(0.5, rel=1e-12)
        assert thermal_pmf(1.0, 1) == pytest.approx(0.25, rel=1e-12)

    def test_mean_recovers_nbar(self):
        state = SingleModeState("thermal", 3.7)
        n = np.arange(state.truncation_bound() + 1)
        p = thermal_pmf(3.7, n)
        assert np.sum(n * p) == pytest.approx(3.7, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            thermal_pmf(-1.0, 0)
        with pytest.raises(DomainError):
            thermal_pmf(1.0, -2)
        with pytest.raises(DomainError):
            thermal_pmf(1.0, 1.5)


class TestPoissonPmf:
    def test_vacuum(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_mu_one_zero_count(self):
        assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_variance_at_large_mu(self):
        mu = 1e6
        state = SingleModeState("laser", mu)
        n = np.arange(state.truncation_bound() + 1, dtype=np.int64)
        p = poisson_pmf(mu, n)
        mean = np.sum(n * p)
        var = np.sum((n - mean) ** 2 * p)
        assert var == pytest.approx(mu, rel=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            poisson_pmf(float("nan"), 0)
        with pytest.raises(DomainError):
            poisson_pmf(1.0, -1)


class TestNormalization:
    @pytest.mark.parametrize("kind,mean", [
        ("thermal", 2.0), ("thermal", 3.7), ("thermal", 100.0),
        ("laser", 2.0), ("laser", 1e4),
    ])
    def test_pmf_sums_to_one(self, kind, mean):
        state = SingleModeState(kind, mean)
        n = np.arange(state.truncation_bound() + 1, dtype=np.int64)
        assert np.sum(state.pmf(n)) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            SingleModeState("squeezed", 1.0)


class TestVariance:
    def test_thermal_super_poissonian(self):
        assert photon_number_variance(SingleModeState("thermal", 1.0)) == 2.0

    def test_laser_poissonian(self):
        state = SingleModeState("laser", 1e4)
        assert photon_number_variance(state) == 1e4
        assert math.sqrt(photon_number_variance(state)) < state.mean_photons

    def test_thermal_vacuum(self):
        assert photon_number_variance(SingleModeState("thermal", 0.0)) == 0.0


class TestCoherentAmplitudeSampling:
    def test_laser_fixed_modulus(self):
        alpha = sample_coherent_amplitude(SingleModeState("laser", 4.0), rng(), size=1000)
        assert np.max(np.abs(np.abs(alpha) - 2.0)) < 1e-12

    def test_thermal_mean_intensity_and_exponential_law(self):
        n = 10**6
        alpha = sample_coherent_amplitude(SingleModeState("thermal", 5.0), rng(), size=n)
        intensity = np.abs(alpha) ** 2
        sigma = intensity.std(ddof=1) / math.sqrt(n)
        assert abs(intensity.mean() - 5.0) < 3.0 * sigma
        ks = stats.kstest(intensity, "expon", args=(0.0, intensity.mean()))
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("kind,mean", [("thermal", 5.0), ("laser", 5.0)])
    def test_zero_mean_amplitude(self, kind, mean):
        n = 10**6
        alpha = sample_coherent_amplitude(SingleModeState(kind, mean), rng(), size=n)
        for comp in (alpha.real, alpha.imag):
            sigma = comp.std(ddof=1) / math.sqrt(n)
            assert abs(comp.mean()) < 3.0 * sigma


class TestPhotonCountSampling:
    def test_thermal_variance_over_mean(self):
        n = 10**6
        counts = sample_photon_count(SingleModeState("thermal", 1.0), rng(), size=n)
        ratio = counts.var(ddof=1) / counts.mean()
        # Var/mean = nbar + 1 = 2; generous 3 sigma bound on the ratio
        assert abs(ratio - 2.0) < 0.02

    def test_laser_fano_factor(self):
        n = 10**6
        counts = sample_photon_count(SingleModeState("laser", 100.0), rng(), size=n)
        fano = counts.var(ddof=1) / counts.mean()
        sigma = math.sqrt(2.0 / n)
        assert abs(fano - 1.0) < 3.0 * sigma + 0.005

    def test_vacuum_always_zero(self):
        counts = sample_photon_count(SingleModeState("thermal", 0.0), rng(), size=100)
        assert np.all(counts == 0)

    @pytest.mark.parametrize("mean", [0.0, 2.0])
    @pytest.mark.parametrize("kind", ["thermal", "laser"])
    def test_size_zero_gives_an_empty_array(self, kind, mean):
        counts = sample_photon_count(SingleModeState(kind, mean), rng(), size=0)
        assert isinstance(counts, np.ndarray) and counts.shape == (0,)

    def test_counts_match_pmf_moments(self):
        n = 10**6
        for kind in ("thermal", "laser"):
            state = SingleModeState(kind, 2.0)
            counts = sample_photon_count(state, rng(), size=n)
            var = photon_number_variance(state)
            mean_sigma = math.sqrt(var / n)
            assert abs(counts.mean() - 2.0) < 3.0 * mean_sigma
            # variance of the sample variance, Gaussian-scale bound with margin
            var_sigma = var * math.sqrt(2.0 / n) * 3.0
            assert abs(counts.var(ddof=1) - var) < 3.0 * var_sigma
