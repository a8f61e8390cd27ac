"""Unit tests for filtering, intensity correlations, and photon counting."""

import math

import numpy as np
import pytest
from scipy import stats

from beamsim import DomainError
from beamsim.fieldgen import (
    _CHANNEL_COUNTS,
    BeamModelSpec,
    generate_ensemble,
    generate_trace,
    lorentzian,
    trace_rng,
)
from beamsim.photonics import (
    FilterSpec,
    apply_filter,
    fano_factor,
    filtered_laser_sweep,
    g2,
    intensity_samples,
    photon_counts,
)

THERMAL = BeamModelSpec(family="thermal", nu=100.0, gamma=1.0)
LASER = BeamModelSpec(family="laser", nu=100.0, gamma=1.0)
TWO_PI = 2.0 * math.pi


def thermal_fano_oracle(mean_flux, gamma, window):
    """Fano factor of Poisson counts driven by OU-thermal intensity:
    1 + (2 I / Gamma) [1 - (1 - e^{-Gamma w})/(Gamma w)], from the
    closed-form variance of the integrated intensity."""
    x = gamma * window
    return 1.0 + (2.0 * mean_flux / gamma) * (1.0 - (1.0 - math.exp(-x)) / x)


class TestFilter:
    def test_power_transmission_is_lorentzian(self):
        filt = FilterSpec(center_detuning=0.7, fwhm=2.5)
        omega = TWO_PI * np.fft.fftfreq(4096, d=0.01)
        power = np.abs(filt.response(0.01, 4096)) ** 2
        assert np.max(np.abs(power - lorentzian(omega - 0.7, 2.5))) < 1e-12

    def test_all_pass_limit(self):
        trace = next(generate_ensemble(THERMAL, 0.002, 100000, 3, 1))
        wide = apply_filter(trace, FilterSpec(0.0, 1000.0 * 1.0))
        rms_in = math.sqrt(np.mean(np.abs(trace.samples) ** 2))
        rms_dev = math.sqrt(np.mean(np.abs(wide.samples - trace.samples) ** 2))
        assert rms_dev < 0.05 * rms_in

    def test_filtering_composes(self):
        trace = next(generate_ensemble(THERMAL, 0.01, 5000, 5, 1))
        filt = FilterSpec(0.0, 2.0)
        twice = apply_filter(apply_filter(trace, filt), filt)
        squared = np.fft.fft(np.fft.ifft(trace.samples)
                             * filt.response(trace.dt, trace.n_samples) ** 2)
        assert np.max(np.abs(twice.samples - squared)) < 1e-12 * math.sqrt(25.0)

    def test_filtered_thermal_peak_density(self):
        # |t|^2 f product: at zero detuning both factors are 1
        duration = 200.0
        vals = []
        for trace in generate_ensemble(THERMAL, 0.01, 20000, 7, 300):
            filtered = apply_filter(trace, FilterSpec(0.0, 1.0))
            u0 = math.sqrt(duration) * np.fft.ifft(filtered.samples)[0]
            vals.append(abs(u0) ** 2)
        vals = np.asarray(vals)
        sigma = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 100.0) < 3.0 * sigma + 2.0  # finite-record deficit margin

    def test_validation(self):
        with pytest.raises(DomainError):
            FilterSpec(0.0, -1.0)
        trace = next(generate_ensemble(THERMAL, 0.01, 2000, 1, 1))
        with pytest.raises(DomainError):
            apply_filter(trace, FilterSpec(0.0, 1000.0))  # pi/dt ~ 314

    @pytest.mark.parametrize("fwhm", [5e-324, 1e-320, 1.112e-308])
    def test_rejects_a_fwhm_whose_half_has_no_finite_reciprocal(self, fwhm):
        """At 5e-324 fwhm/2 rounds to 0.0 and the response would be 0/0 at
        the center; up to 2/fwhm = inf it would be inf + nan*j there."""
        with pytest.raises(DomainError, match="2/fwhm finite"):
            FilterSpec(0.0, fwhm)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_center(self, center):
        with pytest.raises(DomainError, match="center_detuning must be finite"):
            FilterSpec(center, 1.0)

    def test_smallest_accepted_fwhm_has_a_finite_response(self):
        assert np.all(np.isfinite(FilterSpec(0.0, 1.1126e-308).response(0.01, 16)))

    def test_one_resolvability_check(self, monkeypatch):
        """apply_filter, a filtered ensemble and the sweep reject a too-wide
        filter with one message, the ensemble before any draw."""
        from beamsim import fieldgen

        trace = next(generate_ensemble(LASER, 0.01, 25000, 1, 1))
        with pytest.raises(DomainError) as filtered:
            apply_filter(trace, FilterSpec(0.0, 1000.0))
        draws = []
        monkeypatch.setattr(fieldgen, "trace_rng", lambda *args: draws.append(args))
        with pytest.raises(DomainError) as generated:
            generate_ensemble(LASER, 0.01, 25000, 1, 2, filt=FilterSpec(0.0, 1000.0))
        assert draws == []
        with pytest.raises(DomainError) as swept:
            filtered_laser_sweep(LASER, [1000.0], 0.01, 25000, 1, 2)
        assert str(filtered.value) == str(generated.value) == str(swept.value) == (
            "filter fwhm 1000 not resolvable on a grid with dt=0.01 "
            "(need fwhm < pi/dt = 314.159)")


class TestG2:
    def test_laser_exactly_one(self):
        est = g2(generate_ensemble(LASER, 0.01, 5000, 11, 10), [0.0, 1.0, 3.0])
        assert np.max(np.abs(est.values - 1.0)) < 1e-12

    def test_thermal_values(self):
        est = g2(generate_ensemble(THERMAL, 0.01, 20000, 13, 400),
                 [0.0, 1.0])
        assert abs(est.values[0] - 2.0) < 3.0 * est.std_errors[0]
        assert abs(est.values[1] - (1.0 + math.exp(-1.0))) < 3.0 * est.std_errors[1]

    def test_siegert_relation(self):
        # g2(tau) - 1 = |g1(tau)|^2 = e^{-Gamma tau} for the OU field
        taus = [0.0, 0.5, 1.0, 2.0, 5.0]
        est = g2(generate_ensemble(THERMAL, 0.01, 20000, 17, 400), taus)
        for tau, value, err in zip(taus, est.values, est.std_errors):
            assert abs(value - (1.0 + math.exp(-tau))) < 3.0 * err

    def test_validation(self):
        with pytest.raises(DomainError):
            g2([], [0.0])
        with pytest.raises(DomainError):
            g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [0.0137])

    @pytest.mark.parametrize("tau", [-0.01, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tau(self, tau):
        with pytest.raises(DomainError, match="finite and >= 0"):
            g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [0.0, tau])

    @pytest.mark.parametrize("burn_in", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_burn_in(self, burn_in):
        with pytest.raises(DomainError, match="burn_in must be finite and >= 0"):
            g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [0.0], burn_in=burn_in)

    @pytest.mark.parametrize("family", ["thermal", "laser"])
    def test_rejects_zero_mean_flux(self, family):
        dark = BeamModelSpec(family=family, nu=0.0, gamma=1.0)
        with pytest.raises(DomainError, match="zero mean flux"):
            g2(generate_ensemble(dark, 0.01, 2000, 1, 3), [0.0, 0.5])

    def test_rejects_a_burn_in_that_leaves_no_samples(self):
        with pytest.raises(DomainError, match="burn_in leaves no samples"):
            g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [0.0], burn_in=20.0)

    def test_a_huge_burn_in_leaves_no_samples(self):
        """burn_in / dt is clamped to the trace before the cast to int."""
        with pytest.raises(DomainError, match="burn_in leaves no samples"):
            g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [0.0], burn_in=1e308)

    @pytest.mark.parametrize("taus", [[0.0100001], [0.0100001, 19.0]])
    def test_each_tau_is_a_whole_number_of_steps(self, taus):
        """Each tau is held to its own tolerance: a larger tau in the grid
        does not widen it."""
        with pytest.raises(DomainError, match="each tau must be a multiple of dt"):
            g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), taus)
        # within 1e-6 of a step
        est = g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [0.01 + 1e-9, 19.0])
        assert list(est.tau) == [0.01, 19.0]

    @pytest.mark.parametrize("tau", [20.0, 1e300, 1.7e308])
    def test_rejects_a_tau_beyond_the_trace(self, tau):
        """Checked before the lags are cast to int: a huge tau raises no
        numpy warning (an error under this suite's warning filter)."""
        with pytest.raises(DomainError, match="tau exceeds the analysable trace length"):
            g2(generate_ensemble(THERMAL, 0.01, 2000, 1, 2), [0.0, tau])


class TestPhotonCounts:
    def test_laser_fano_is_one(self):
        trace = next(generate_ensemble(LASER, 0.01, 100000, 19, 1))
        counts = photon_counts(trace, window_T=1.0)
        # Poisson(25) per window, 1000 windows
        sigma = math.sqrt(2.0 / counts.size)
        assert abs(fano_factor(counts) - 1.0) < 3.0 * sigma + 0.02
        assert counts.mean() == pytest.approx(25.0, rel=0.05)

    def test_reproducible(self):
        trace = next(generate_ensemble(LASER, 0.01, 2000, 19, 1))
        assert np.array_equal(photon_counts(trace, window_T=1.0),
                              photon_counts(trace, window_T=1.0))

    @pytest.mark.parametrize("index", [0, 3])
    def test_drawn_from_the_counting_stream_alone(self, index):
        # window means are the trapezoidal flux integrals; the counts are one
        # Poisson draw per window from (seed, index, _CHANNEL_COUNTS)
        trace = generate_trace(THERMAL, 0.01, 2001, 19, index)
        flux = trace.intensity()
        means = [np.trapezoid(flux[k:k + 51], dx=0.01) for k in range(0, 2000, 50)]
        expected = trace_rng(19, index, _CHANNEL_COUNTS).poisson(means)
        counts = photon_counts(trace, window_T=0.5)
        assert counts.dtype == expected.dtype
        np.testing.assert_array_equal(counts, expected)

    @pytest.mark.parametrize("family", ["thermal", "laser"])
    def test_dark_beam_counts_zeros_and_has_no_fano_factor(self, family):
        dark = BeamModelSpec(family=family, nu=0.0, gamma=1.0)
        counts = photon_counts(generate_trace(dark, 0.01, 2000, 1, 2), window_T=1.0)
        assert counts.size == 19 and not counts.any()
        with pytest.raises(DomainError, match="zero mean count"):
            fano_factor(counts)

    def test_thermal_short_window_super_poissonian(self):
        # window much shorter than the coherence time: Fano ~ 1 + counts/window
        counts = []
        for trace in generate_ensemble(THERMAL, 0.01, 20000, 23, 20):
            counts.append(photon_counts(trace, window_T=0.01))
        counts = np.concatenate(counts)
        fano = counts.var(ddof=1) / counts.mean()
        oracle = thermal_fano_oracle(25.0, 1.0, 0.01)  # ~1.25
        assert oracle == pytest.approx(1.0 + 0.25, abs=0.01)
        assert abs(fano - oracle) < 0.1

    def test_thermal_long_window_averages_out(self):
        # many coherence times per window at low flux: Fano approaches 1
        model = BeamModelSpec(family="thermal", nu=0.1, gamma=1.0)
        counts = []
        for trace in generate_ensemble(model, 0.01, 100000, 29, 50):
            counts.append(photon_counts(trace, window_T=100.0))
        counts = np.concatenate(counts)
        fano = counts.var(ddof=1) / counts.mean()
        oracle = thermal_fano_oracle(0.025, 1.0, 100.0)  # ~1.05
        assert abs(fano - oracle) < 0.2
        assert fano < 1.25

    def test_validation(self):
        trace = next(generate_ensemble(LASER, 0.01, 2000, 1, 1))
        with pytest.raises(DomainError):
            photon_counts(trace, window_T=0.005)     # below dt
        with pytest.raises(DomainError):
            photon_counts(trace, window_T=0.0123)    # not a multiple of dt
        with pytest.raises(DomainError):
            photon_counts(trace, window_T=10.0)      # fewer than 10 windows
        with pytest.raises(DomainError, match="finite"):
            photon_counts(trace, window_T=math.nan)
        with pytest.raises(DomainError, match="below one dt step"):
            photon_counts(trace, window_T=1e-12)

    def test_a_window_within_the_whole_step_rule_is_whole_steps(self):
        """The one whole-step rule, as for a g2 lag: 0.0100000001 and
        0.0099999999 at dt = 0.01 are one step, and count exactly as a window
        of 0.01 does; 2e-6 of a step off is not."""
        trace = next(generate_ensemble(THERMAL, 0.01, 2000, 3, 1))
        assert np.array_equal(photon_counts(trace, 0.0100000001), photon_counts(trace, 0.01))
        assert np.array_equal(photon_counts(trace, 0.0099999999), photon_counts(trace, 0.01))
        assert np.array_equal(photon_counts(trace, 0.0499999999), photon_counts(trace, 0.05))
        assert g2([trace], [0.0100000001]).tau[0] == 0.01
        with pytest.raises(DomainError, match="window_T must be an integer multiple of dt"):
            photon_counts(trace, 0.01000002)

    def test_the_ten_window_rule_counts_whole_steps(self):
        """1.0 and 1.0000001 at dt = 0.01 are the same 100 steps, so both are
        accepted on 1000 samples (ten windows' worth) and give the same 9
        counts; 101 steps are too long."""
        trace = next(generate_ensemble(LASER, 0.01, 1000, 5, 1))
        counts = photon_counts(trace, 1.0)
        assert counts.size == 9
        assert np.array_equal(photon_counts(trace, 1.0000001), counts)
        assert np.array_equal(photon_counts(trace, 0.9999999), counts)
        with pytest.raises(DomainError, match="at least 10 windows"):
            photon_counts(trace, 1.01)


class TestFanoFactor:
    def test_constant_counts(self):
        assert fano_factor([7, 7, 7, 7]) == 0.0

    def test_poisson_reference(self):
        counts = np.random.default_rng(31).poisson(10.0, 100000)
        assert abs(fano_factor(counts) - 1.0) < 0.02

    def test_validation(self):
        with pytest.raises(DomainError):
            fano_factor([5])
        with pytest.raises(DomainError):
            fano_factor([0, 0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1])
    def test_rejects_non_finite_or_negative_counts(self, bad):
        with pytest.raises(DomainError, match="counts must be finite and >= 0"):
            fano_factor([3, 5, bad, 4])


class TestIntensitySamples:
    def test_laser_constant(self):
        samples = intensity_samples(generate_ensemble(LASER, 0.01, 2000, 1, 3),
                                    spacing=1.0)
        assert samples.size == 3 * 2000 // 100
        assert np.max(np.abs(samples - 25.0)) < 1e-10

    def test_burn_in_skips_leading_samples(self):
        samples = intensity_samples(generate_ensemble(LASER, 0.01, 2000, 1, 1),
                                    spacing=1.0, burn_in=10.0)
        assert samples.size == (2000 - 1000 + 99) // 100

    def test_matches_per_trace_loop(self):
        # 8192 samples per trace: large enough for the scan to pool
        pooled = intensity_samples(generate_ensemble(THERMAL, 0.01, 8192, 4, 5),
                                   spacing=0.05, burn_in=1.0)
        loop = np.concatenate([trace.intensity()[100::5] for trace in
                               generate_ensemble(THERMAL, 0.01, 8192, 4, 5)])
        assert np.array_equal(pooled, loop)

    def test_rejects_mismatched_grids(self):
        traces = [*generate_ensemble(LASER, 0.01, 2000, 1, 1),
                  *generate_ensemble(LASER, 0.005, 2000, 1, 1)]
        with pytest.raises(DomainError, match="share one time grid"):
            intensity_samples(traces, spacing=1.0)

    @pytest.mark.parametrize("spacing", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(DomainError, match="spacing must be finite and > 0"):
            intensity_samples(generate_ensemble(LASER, 0.01, 200, 1, 2), spacing=spacing)

    @pytest.mark.parametrize("spacing, message", [
        (0.015, "spacing must be a multiple of dt"),   # was sampled every 0.02
        (0.001, "spacing must be a multiple of dt"),   # was sampled every dt
        (1e-10, "below one dt step"),
    ])
    def test_spacing_is_a_whole_number_of_steps(self, spacing, message):
        with pytest.raises(DomainError, match=message):
            intensity_samples(generate_ensemble(LASER, 0.01, 2000, 1, 3), spacing=spacing)

    def test_a_spacing_past_the_trace_takes_one_sample_per_trace(self):
        samples = intensity_samples(generate_ensemble(LASER, 0.01, 200, 1, 3), spacing=1e300)
        assert samples.size == 3

    @pytest.mark.parametrize("burn_in", [-1.0, math.nan])
    def test_rejects_bad_burn_in(self, burn_in):
        with pytest.raises(DomainError, match="burn_in must be finite and >= 0"):
            intensity_samples(generate_ensemble(LASER, 0.01, 200, 1, 2), spacing=1.0,
                              burn_in=burn_in)


@pytest.mark.parametrize("estimate", [
    lambda traces: g2(traces, [0.0, math.nan]),
    lambda traces: g2(traces, [0.0, -0.01]),
    lambda traces: g2(traces, [0.0], burn_in=-1.0),
    lambda traces: g2(traces, [0.0], burn_in=math.nan),
    lambda traces: intensity_samples(traces, spacing=1.0, burn_in=-1.0),
    lambda traces: intensity_samples(traces, spacing=math.nan),
], ids=["g2-nan-tau", "g2-negative-tau", "g2-negative-burn-in", "g2-nan-burn-in",
        "samples-negative-burn-in", "samples-nan-spacing"])
def test_bad_arguments_pull_no_trace(estimate):
    """Arguments that need no grid are checked before the first trace is
    made or read."""
    pulled = []

    def traces():
        for trace in generate_ensemble(THERMAL, 0.01, 200, 1, 2):
            pulled.append(trace.trace_index)
            yield trace
    with pytest.raises(DomainError, match="finite"):
        estimate(traces())
    assert pulled == []


class TestSweep:
    def test_matches_manual_filter_and_g2(self):
        model = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                              jitter_band=100.0, jitter_corr_time=10.0)
        dt, n, seed, n_traces = 1e-3, 50000, 37, 5
        rows = filtered_laser_sweep(model, [100.0, 2.0, 0.5], dt, n, seed, n_traces)
        # the sweep's moments and g2's row are two kernels: they agree bit for bit
        for row, burn_in in zip(rows, [10.0, 10.0, 20.0]):   # max(10/fwhm, 10/gamma)
            filt = FilterSpec(0.0, row.fwhm)
            manual = g2((apply_filter(t, filt)
                         for t in generate_ensemble(model, dt, n, seed, n_traces)),
                        [0.0], burn_in=burn_in)
            assert row.g2_zero == manual.values[0]
            assert row.std_error == manual.std_errors[0]
            assert row.ensemble_size == n_traces

    def test_thermal_input_stays_thermal_at_every_width(self):
        # Gaussian fields stay Gaussian under linear filtering
        rows = filtered_laser_sweep(THERMAL, [10.0, 1.0, 0.1], 0.01, 25000, 41, 200)
        for row in rows:
            assert abs(row.g2_zero - 2.0) < max(3.0 * row.std_error, 0.2)

    def test_ideal_laser_monotone_rise(self):
        rows = filtered_laser_sweep(LASER, [100.0, 1.0, 0.1], 0.01, 25000, 43, 200)
        values = [r.g2_zero for r in rows]
        assert abs(values[0] - 1.0) < 0.1
        assert values[0] < values[1] < values[2]
        assert 1.6 < values[2] < 2.3

    def test_validation(self):
        with pytest.raises(DomainError):
            filtered_laser_sweep(LASER, [1000.0], 0.01, 25000, 1, 2)  # unresolvable
        with pytest.raises(DomainError):
            filtered_laser_sweep(LASER, [0.01], 0.01, 25000, 1, 2)    # burn-in too long

    def test_rejects_zero_mean_flux(self):
        dark = BeamModelSpec(family="jittered_laser", nu=0.0, gamma=1.0,
                             jitter_band=100.0, jitter_corr_time=1.5)
        with pytest.raises(DomainError, match="zero mean flux"):
            filtered_laser_sweep(dark, [100.0, 10.0], 1e-3, 20000, 1, 2)

    def test_rejects_no_filters_before_generating(self, monkeypatch):
        from beamsim import photonics

        def generate(*args):
            raise AssertionError("an ensemble was generated")

        monkeypatch.setattr(photonics, "generate_ensemble", generate)
        with pytest.raises(DomainError, match="at least one filter"):
            filtered_laser_sweep(LASER, [], 0.01, 25000, 1, 2)


class TestNarrowFilterUniversality:
    def test_filtered_laser_matches_filtered_thermal(self):
        # delta-omega = Gamma/100: intensities sampled 10/delta-omega apart
        # are indistinguishable between the two sources
        filt = FilterSpec(0.0, 0.01)
        dt, n = 0.01, 300000  # duration 3000
        spacing = burn = 1000.0
        pools = {}
        for name, model in (("laser", LASER), ("thermal", THERMAL)):
            filtered = generate_ensemble(model, dt, n, 47, 150, filt=filt)
            pools[name] = intensity_samples(filtered, spacing=spacing, burn_in=burn)
        assert pools["laser"].size >= 300
        ks = stats.ks_2samp(pools["laser"], pools["thermal"])
        assert ks.pvalue > 1e-3
