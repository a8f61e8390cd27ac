"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS line when its assertions hold; run with
``pytest -v tests/test_acceptance.py`` to see one line per criterion.
All Monte Carlo runs use fixed seeds, so the suite is deterministic.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from beamsim import radiometry
from beamsim.cli import main as cli_main
from beamsim.fieldgen import BeamModelSpec, generate_ensemble, trace_rng
from beamsim.fieldgen import _ou_step_coefficients
from beamsim.photonics import FilterSpec, filtered_laser_sweep, g2
from beamsim.spectral import (
    cross_mode_correlation,
    estimate_fwhm,
    periodogram_bin_values,
    periodogram_distribution_test,
    predicted_cross_mode_correlation,
    spectrum,
    stationarity_test,
    windowed_mean_intensities,
)
from beamsim.states import (
    SingleModeState,
    sample_coherent_amplitude,
    sample_photon_count,
)

TWO_PI = 2.0 * math.pi


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion}] PASS - {text}")


def test_criterion_1_golden_radiometry_values():
    T_prime = radiometry.temperature_for_collimated_power(0.1)
    assert T_prime == pytest.approx(4.6e5, rel=0.02)

    T_dprime = radiometry.temperature_for_filtered_power(0.1, 1e7)
    assert T_dprime == pytest.approx(2.9e15, rel=0.02)

    coll = radiometry.collimation_efficiency(0.1, 15e-6)
    assert coll.approximate == pytest.approx(2.6e-12, rel=0.05)

    filt = radiometry.filtering_efficiency(0.1, 15e-6, 1e7, 1e-6)
    assert -52.5 <= filt.log10_total <= -49.5
    assert math.log10(filt.geometric) == pytest.approx(-7.0, abs=1.5)
    assert math.log10(filt.spectral) == pytest.approx(-8.0, abs=1.5)
    assert filt.brightness == pytest.approx(filt.nu**-3, rel=1e-12)

    area = radiometry.filament_area(60.0, 1e-6)
    assert area == pytest.approx(15e-6, rel=0.05)

    report(1, f"T'={T_prime:.3g} K, T''={T_dprime:.3g} K, "
              f"collimation {coll.approximate:.2e}, "
              f"log10 filtering {filt.log10_total:.2f}, A={area * 1e6:.1f} mm^2")


def test_criterion_2_spectral_shape():
    nu, gamma, dt, n, n_traces = 100.0, 1.0, 0.005, 40000, 10000
    duration = n * dt
    thermal = spectrum(generate_ensemble(
        BeamModelSpec(family="thermal", nu=nu, gamma=gamma), dt, n, 2001, n_traces))
    laser = spectrum(generate_ensemble(
        BeamModelSpec(family="laser", nu=nu, gamma=gamma), dt, n, 2002, n_traces))

    # peak equals nu within 3 sigma (the finite-record deficit 2 nu / (T Gamma)
    # is one Monte Carlo standard error here)
    i0 = int(np.argmin(np.abs(thermal.grid)))
    assert abs(thermal.values[i0] - nu) < 3.0 * thermal.std_errors[i0]

    # line width Gamma within 5 percent
    fwhm = estimate_fwhm(thermal, smooth_bins=5)
    assert fwhm == pytest.approx(gamma, rel=0.05)

    # bin-wise thermal/laser agreement: z in units of combined MC error.
    # With 40000 bins, |z| > 3 occurs by chance ~108 times in a true-null
    # comparison, so the criterion is enforced as a calibrated exceedance
    # count plus a family-wise cap, not a literal max |z| < 3.
    z = (thermal.values - laser.values) / np.hypot(thermal.std_errors,
                                                   laser.std_errors)
    exceedances = int(np.sum(np.abs(z) > 3.0))
    allowed = int(stats.binom.ppf(0.999, z.size, 2.0 * stats.norm.sf(3.0)))
    assert exceedances <= allowed
    assert np.max(np.abs(z)) < 6.0

    report(2, f"peak {thermal.values[i0]:.2f} (nu={nu:g}), FWHM {fwhm:.4f} "
              f"(Gamma={gamma:g}), {exceedances}/{z.size} bins with |z|>3 "
              f"(allowed {allowed}), max|z|={np.max(np.abs(z)):.2f}; T={duration:g}")


def test_criterion_3_intensity_statistics():
    # unfiltered laser: g2 identically 1 (up to float rounding of |e^{i phi}|^2)
    laser = BeamModelSpec(family="laser", nu=100.0, gamma=1.0)
    est = g2(generate_ensemble(laser, 0.01, 20000, 31, 10), [0.0, 1.0, 5.0])
    max_dev = float(np.max(np.abs(est.values - 1.0)))
    assert max_dev < 1e-12

    # thermal: g2(0) = 2, g2(1/Gamma) = 1 + 1/e
    thermal = BeamModelSpec(family="thermal", nu=100.0, gamma=1.0)
    est_t = g2(generate_ensemble(thermal, 0.01, 20000, 32, 1000), [0.0, 1.0])
    assert abs(est_t.values[0] - 2.0) < 0.05
    assert abs(est_t.values[1] - (1.0 + math.exp(-1.0))) < 0.05

    # laser filtered at Gamma/100 becomes thermal-like
    filt = FilterSpec(center_detuning=0.0, fwhm=0.01)
    est_f = g2(generate_ensemble(laser, 0.01, 200000, 33, 400, filt=filt), [0.0],
               burn_in=1000.0)
    assert abs(est_f.values[0] - 2.0) < 0.2

    report(3, f"laser max|g2-1|={max_dev:.1e}; thermal g2(0)={est_t.values[0]:.3f}, "
              f"g2(1/G)={est_t.values[1]:.3f}; filtered-laser g2(0)={est_f.values[0]:.3f}")


def test_criterion_4_four_regime_sweep():
    gamma = 1.0
    # the wandering must be slow compared with the detuning scale 1/band
    # and the coherence time, yet fast compared with the narrowest filter's
    # integration time 2/fwhm so the thermal-like regime self-averages
    model = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=gamma,
                          jitter_band=100.0 * gamma, jitter_corr_time=1.5 / gamma)
    fwhms = [1e4 * gamma, 100.0 * gamma, 10.0 * gamma, 0.1 * gamma]
    rows = filtered_laser_sweep(model, fwhms, dt=2.5e-4, n=1000000,
                                master_seed=41, n_traces=160)
    values = [r.g2_zero for r in rows]
    assert abs(values[0] - 1.0) <= 0.1          # near shot noise
    assert values[1] > 1.1                      # well above shot noise
    assert values[2] > 2.0                      # enormous fluctuations
    assert abs(values[3] - 2.0) <= 0.2          # thermal-like
    assert values[0] < values[1] < values[2]    # monotone into the peak regime

    table = ", ".join(f"{f:g}G:{v:.3f}" for f, v in zip(fwhms, values))
    report(4, f"g2(0) across filter widths {table}")


def test_criterion_5_periodogram_exponential_law():
    results = {}
    cases = [
        ("thermal", BeamModelSpec(family="thermal", nu=100.0, gamma=1.0), 5000),
        ("laser", BeamModelSpec(family="laser", nu=100.0, gamma=1.0), 10000),
        ("kspace_product", BeamModelSpec(family="kspace_product", nu=100.0, gamma=1.0), 5000),
    ]
    for name, model, n in cases:
        results[name] = periodogram_distribution_test(periodogram_bin_values(
            generate_ensemble(model, 0.01, n, 51, 10000), detuning=0.0))
    assert results["thermal"].p_value > 1e-3
    assert results["laser"].p_value > 1e-3
    assert not results["kspace_product"].p_value > 1e-3

    report(5, "KS p-values: " + ", ".join(
        f"{k}={v.p_value:.3g} ({'pass' if v.p_value > 1e-3 else 'fail'})"
        for k, v in results.items()))


def test_criterion_6_finite_record_correction():
    nu, gamma, dt = 100.0, 1.0, 0.01
    model = BeamModelSpec(family="thermal", nu=nu, gamma=gamma)

    # diagonal deficit nu - E|u~(0)|^2 versus 1/T: slope should be 2 nu / Gamma
    plans = [(2500, 30000), (5000, 20000), (10000, 10000), (20000, 10000)]
    xs, ys, ws = [], [], []
    for n, n_traces in plans:
        duration = n * dt
        pairs = [(0.0, 0.0)]
        if n == 5000:
            # the same pass takes the off-diagonal pair (0, ~Gamma/2) on the T=50 grid
            off_duration, kp = duration, 4 * TWO_PI / duration
            pairs.append((0.0, kp))
        est = cross_mode_correlation(generate_ensemble(model, dt, n, 61, n_traces), pairs)
        if n == 5000:
            mean_cross, err = est.values[1], est.std_errors[1]
        xs.append(1.0 / duration)
        ys.append(nu - est.values[0].real)
        ws.append(1.0 / est.std_errors[0].real ** 2)
    xs, ys, ws = np.asarray(xs), np.asarray(ys), np.asarray(ws)
    slope = np.sum(ws * xs * ys) / np.sum(ws * xs * xs)
    target = 2.0 * nu / gamma
    assert abs(slope - target) <= 0.2 * target

    predicted = predicted_cross_mode_correlation(nu, gamma, off_duration, 0.0, kp)
    assert abs(mean_cross.real - predicted.real) < 3.0 * err.real
    assert abs(mean_cross.imag) < 3.0 * err.imag

    report(6, f"deficit slope {slope:.1f} (target {target:g} +-20%); "
              f"off-diagonal {mean_cross.real:.3f}{mean_cross.imag:+.3f}i vs "
              f"predicted {predicted.real:.3f}")


def test_criterion_7_stationarity_falsification():
    results = {}
    for family in ("thermal", "laser", "kspace_product"):
        model = BeamModelSpec(family=family, nu=100.0, gamma=1.0)
        results[family] = stationarity_test(windowed_mean_intensities(
            generate_ensemble(model, 0.01, 20000, 71, 200), n_windows=8))
    assert results["thermal"].p_value > 1e-3
    assert results["laser"].p_value > 1e-3
    assert not results["kspace_product"].p_value > 1e-3
    assert results["kspace_product"].p_value <= 1e-3

    report(7, "stationarity p-values: " + ", ".join(
        f"{k}={v.p_value:.3g} ({'pass' if v.p_value > 1e-3 else 'fail'})"
        for k, v in results.items()))


def _two_route_chi_square(kind: str, mean: float, n_samples: int, seed: int) -> float:
    """P-function sampling + Poisson counting vs the direct number pmf."""
    state = SingleModeState(kind, mean)
    rng = np.random.default_rng(seed)
    alpha = sample_coherent_amplitude(state, rng, size=n_samples)
    counts = rng.poisson(np.abs(alpha) ** 2)
    edges = np.arange(32)  # bins 0..30 and a pooled tail
    observed = np.bincount(np.minimum(counts, 31), minlength=32)
    pmf = state.pmf(np.arange(31))
    expected = np.concatenate([pmf, [1.0 - pmf.sum()]]) * n_samples
    keep = expected > 5.0
    chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    dof = int(keep.sum()) - 1
    return float(stats.chi2.sf(chi2, dof))


def test_criterion_8_property_suites(tmp_path):
    # two-route equivalences at mean 2
    p_thermal = _two_route_chi_square("thermal", 2.0, 10**6, 81)
    p_laser = _two_route_chi_square("laser", 2.0, 10**6, 82)
    assert p_thermal > 1e-3
    assert p_laser > 1e-3

    # direct count sampling matches the same pmfs
    rng = np.random.default_rng(83)
    thermal_counts = sample_photon_count(SingleModeState("thermal", 2.0), rng, 10**6)
    assert abs(thermal_counts.mean() - 2.0) < 0.01

    # pmf normalization to 1e-9
    for kind, mean in (("thermal", 2.0), ("thermal", 100.0),
                       ("laser", 2.0), ("laser", 1e4)):
        state = SingleModeState(kind, mean)
        total = float(np.sum(state.pmf(np.arange(state.truncation_bound() + 1))))
        assert abs(total - 1.0) < 1e-9

    # OU discretization vs closed-form moments to 1e-10
    nu, gamma, dt = 100.0, 1.0, 0.007
    a, sigma2 = _ou_step_coefficients(nu, gamma, dt)
    stationary = sigma2 / (1.0 - a * a)
    assert abs(stationary - nu * gamma / 4.0) < 1e-10 * nu * gamma / 4.0
    for k in (1, 10, 137):
        target = (nu * gamma / 4.0) * math.exp(-gamma * k * dt / 2.0)
        assert abs(stationary * a**k - target) < 1e-10 * target

    # Parseval to 1e-10
    trace = next(generate_ensemble(
        BeamModelSpec(family="thermal", nu=100.0, gamma=1.0), 0.01, 20000, 84, 1))
    duration = trace.n_samples * trace.dt
    # the spectrum of two copies of a trace is its periodogram, bit for bit
    lhs = float(np.sum(spectrum([trace, trace]).values)) * (TWO_PI / duration) / TWO_PI
    rhs = float(np.sum(trace.intensity())) * trace.dt / duration
    assert abs(lhs - rhs) < 1e-10 * rhs

    # full determinism: CLI reruns are byte-identical
    args = ["spectrum", "--family", "thermal", "--nu", "100", "--gamma", "1",
            "--dt", "0.01", "--duration", "20", "--traces", "5", "--seed", "85"]
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a_path)]) == 0
    assert cli_main(args + ["--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()

    report(8, f"two-route chi^2 p: thermal={p_thermal:.3g}, laser={p_laser:.3g}; "
              f"pmf norms, OU moments, Parseval, CLI determinism all within bounds")
