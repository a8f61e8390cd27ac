"""Unit tests for the beam-trace generators."""

import math

import numpy as np
import pytest

from beamsim import DomainError, fieldgen
from beamsim.fieldgen import (
    BeamModelSpec,
    Ensemble,
    FieldTrace,
    FAMILIES,
    _GENERATORS,
    _complex_normals,
    _normal_draws,
    _ou_step_coefficients,
    _thermal,
    _unit_phasors,
    _whole_steps,
    generate_ensemble,
    generate_trace,
    lorentzian,
    trace_rng,
)
from beamsim.spectral import estimate_fwhm, spectrum

THERMAL = BeamModelSpec(family="thermal", nu=100.0, gamma=1.0)
LASER = BeamModelSpec(family="laser", nu=100.0, gamma=1.0)
KSPACE = BeamModelSpec(family="kspace_product", nu=100.0, gamma=1.0)
PERIODIC = BeamModelSpec(family="periodic_thermal", nu=100.0, gamma=1.0)


class TestModelSpec:
    def test_mean_flux(self):
        assert THERMAL.mean_flux == 25.0

    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            BeamModelSpec(family="chaotic", nu=1.0, gamma=1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            BeamModelSpec(family="thermal", nu=-1.0, gamma=1.0)
        with pytest.raises(DomainError):
            BeamModelSpec(family="thermal", nu=1.0, gamma=0.0)

    def test_jitter_constraints(self):
        with pytest.raises(DomainError):
            # band must exceed the linewidth
            BeamModelSpec(family="jittered_laser", nu=1.0, gamma=1.0,
                          jitter_band=0.5, jitter_corr_time=10.0)
        with pytest.raises(DomainError):
            # wandering must be slower than the coherence time
            BeamModelSpec(family="jittered_laser", nu=1.0, gamma=1.0,
                          jitter_band=100.0, jitter_corr_time=0.5)
        with pytest.raises(DomainError):
            BeamModelSpec(family="jittered_laser", nu=1.0, gamma=1.0,
                          jitter_band=100.0, jitter_corr_time=math.nan)
        # zero band is the allowed degenerate case
        BeamModelSpec(family="jittered_laser", nu=1.0, gamma=1.0, jitter_band=0.0)

    @pytest.mark.parametrize("band", [0.0, 100.0])
    @pytest.mark.parametrize("corr_time", [math.inf, math.nan, -5.0])
    def test_jitter_corr_time_is_finite_and_above_1_over_gamma_at_any_band(
            self, monkeypatch, band, corr_time):
        def no_draws(*args):
            raise AssertionError("a trace was drawn")

        monkeypatch.setattr(fieldgen, "trace_rng", no_draws)
        with pytest.raises(DomainError, match="finite jitter_corr_time > 1/gamma"):
            generate_trace(BeamModelSpec(family="jittered_laser", nu=1.0, gamma=1.0,
                                         jitter_band=band, jitter_corr_time=corr_time),
                           0.001, 2000, 1)

    @pytest.mark.parametrize("band", [-1.0, math.inf])
    def test_rejects_a_negative_or_infinite_jitter_band(self, band):
        with pytest.raises(DomainError, match="jitter_band must be finite and >= 0"):
            BeamModelSpec(family="jittered_laser", nu=1.0, gamma=1.0,
                          jitter_band=band, jitter_corr_time=10.0)

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "jittered_laser"])
    @pytest.mark.parametrize("jitter", [{"jitter_band": 5.0}, {"jitter_corr_time": 3.0},
                                        {"jitter_band": math.nan}])
    def test_jitter_fields_only_on_jittered_laser(self, family, jitter):
        with pytest.raises(DomainError, match="only to jittered_laser"):
            BeamModelSpec(family=family, nu=1.0, gamma=1.0, **jitter)


class TestReproducibility:
    @pytest.mark.parametrize("family", ["thermal", "laser", "jittered_laser",
                                        "kspace_product", "periodic_thermal"])
    def test_bit_identical_regeneration(self, family):
        model = BeamModelSpec(family=family, nu=100.0, gamma=1.0,
                              jitter_band=100.0 if family == "jittered_laser" else 0.0,
                              jitter_corr_time=10.0 if family == "jittered_laser" else None)
        dt = 0.001 if family == "jittered_laser" else 0.01
        n = 20000 if family == "jittered_laser" else 2000
        a = generate_trace(model, dt, n, 42, trace_index=3)
        b = generate_trace(model, dt, n, 42, trace_index=3)
        assert np.array_equal(a.samples, b.samples)

    def test_distinct_indices_differ(self):
        a = generate_trace(THERMAL, 0.01, 2000, 42, trace_index=0)
        b = generate_trace(THERMAL, 0.01, 2000, 42, trace_index=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_every_family_has_a_generator(self):
        assert set(_GENERATORS) == set(FAMILIES)

    def test_trace_rng_is_pure(self):
        assert trace_rng(7, 3).standard_normal() == trace_rng(7, 3).standard_normal()

    def test_ensemble_matches_single_trace_generation(self):
        traces = list(generate_ensemble(THERMAL, 0.01, 2000, 42, 3))
        single = generate_trace(THERMAL, 0.01, 2000, 42, trace_index=2)
        assert np.array_equal(traces[2].samples, single.samples)


# (model, dt, n) for every family: the jittered laser with and without a band,
# the frequency-mode families at an odd n
BLOCK_CASES = {
    "thermal": (THERMAL, 0.01, 2000),
    "laser": (LASER, 0.01, 2001),
    "jittered_laser": (BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                                     jitter_band=20.0, jitter_corr_time=10.0), 0.005, 2000),
    "jittered_laser-zero-band": (BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0),
                                 0.01, 2000),
    "kspace_product": (KSPACE, 0.01, 2001),
    "periodic_thermal": (PERIODIC, 0.01, 2001),
}


class TestBlocks:
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    @pytest.mark.parametrize("size", [1, 3, 13])
    def test_block_rows_equal_single_traces(self, case, size):
        """17 traces from index 4 on, cut into blocks of `size` (the last one
        short), equal the traces made one at a time, bit for bit."""
        model, dt, n = BLOCK_CASES[case]
        indices = range(4, 21)
        traces = Ensemble(model, dt, n, 9, indices)
        rows = np.concatenate([traces.make_block(indices[i:i + size])
                               for i in range(0, len(indices), size)])
        assert rows.shape == (len(indices), n)
        for row, index in zip(rows, indices):
            assert np.array_equal(row, generate_trace(model, dt, n, 9, index).samples)

    def test_block_checks_grid_and_finiteness(self):
        with pytest.raises(DomainError):
            Ensemble(THERMAL, 0.1, 2000, 9, range(3)).make_block(range(3))
        with pytest.raises(DomainError):
            Ensemble(KSPACE, 0.01, 500, 9, range(3)).make_block(range(3))
        inf = BeamModelSpec(family="thermal", nu=1e308, gamma=1e3)
        with pytest.raises(DomainError, match="non-finite"):
            Ensemble(inf, 1e-5, 100, 9, range(3)).make_block(range(3))

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_one_finite_check_per_trace_and_per_block(self, monkeypatch, case):
        model, dt, n = BLOCK_CASES[case]
        checked = []
        check = fieldgen._check_finite
        monkeypatch.setattr(fieldgen, "_check_finite",
                            lambda samples: checked.append(samples.shape) or check(samples))
        generate_trace(model, dt, n, 9, 4)
        assert checked == [(n,)]
        Ensemble(model, dt, n, 9, range(3)).make_block(range(3))
        assert checked == [(n,), (3, n)]
        inf = BeamModelSpec(family="thermal", nu=1e308, gamma=1e3)
        with pytest.raises(DomainError, match="non-finite"):
            generate_trace(inf, 1e-5, 100, 9)

    def test_ensemble_checks_its_grid_before_any_trace(self):
        with pytest.raises(DomainError):
            generate_ensemble(THERMAL, 0.1, 2000, 9, 3)

    @pytest.mark.parametrize("model, dt", [(THERMAL, 0.1), (KSPACE, 0.01)],
                             ids=["thermal-coarse-dt", "kspace_product-short-duration"])
    def test_ensemble_built_directly_checks_its_grid_at_construction(self, monkeypatch,
                                                                     model, dt):
        def no_draws(*args):
            raise AssertionError("a trace was drawn before the grid was checked")

        monkeypatch.setattr(fieldgen, "trace_rng", no_draws)
        with pytest.raises(DomainError):
            Ensemble(model, dt, 500, 9, range(3))

    def test_one_grid_check_per_ensemble(self, monkeypatch):
        calls = []
        check = fieldgen._check_grid
        monkeypatch.setattr(fieldgen, "_check_grid",
                            lambda *args: calls.append(args) or check(*args))
        spectrum(generate_ensemble(THERMAL, 0.01, 2000, 9, 40))
        assert calls == [(THERMAL, 0.01, 2000)]

    @pytest.mark.parametrize("model", [KSPACE, PERIODIC], ids=lambda m: m.family)
    def test_mode_families_reject_a_coarse_dt_as_thermal_does(self, model):
        """At dt = 0.02/gamma a mode family would cut its Lorentzian off at
        Nyquist; the one grid rule rejects it with thermal's message."""
        with pytest.raises(DomainError) as thermal:
            generate_ensemble(THERMAL, 0.02, 20000, 9, 3)
        for make in (generate_ensemble, Ensemble):
            with pytest.raises(DomainError) as mode:
                make(model, 0.02, 20000, 9, 3 if make is generate_ensemble else range(3))
            assert str(mode.value) == str(thermal.value)


class TestKernelsBitForBit:
    """Each generation kernel against the formula it replaced, with ==, on the
    numpy build and SIMD dispatch that runs the suite."""

    def test_cos_and_sin_into_views_equal_the_complex_exponential(self):
        phi = np.random.default_rng(5).uniform(-1e5, 1e5, 10**6)
        scale = math.sqrt(LASER.mean_flux)
        field = _unit_phasors(phi)
        field *= scale
        assert np.array_equal(field, np.exp(1j * phi) * scale)

    def test_view_assembly_equals_the_complex_formula(self):
        re, im = _normal_draws(11, range(2, 5), 40000)
        assert np.array_equal(_complex_normals(11, range(2, 5), 40000),
                              (re + 1j * im) / math.sqrt(2.0))

    @pytest.mark.parametrize("model", [THERMAL, BeamModelSpec(family="thermal", nu=3e5, gamma=7.0)])
    def test_two_real_filters_equal_the_complex_filter(self, model):
        from scipy.signal import lfilter
        dt, n, indices = 0.001, 40000, range(2, 5)
        a, sigma2 = _ou_step_coefficients(model.nu, model.gamma, dt)
        x = _complex_normals(11, indices, n)
        x0 = x[:, 0] * math.sqrt(model.mean_flux)
        x *= math.sqrt(sigma2)
        x[:, 0] = x0
        assert np.array_equal(_thermal(model, dt, n, 11, indices),
                              lfilter([1.0], [1.0, -a], x, axis=1))

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_block_rows_equal_one_trace_ensembles(self, case):
        """At the criterion-2 width (40,000 samples), seven traces made as one
        block equal the same traces made as Ensembles of one."""
        model, dt, _ = BLOCK_CASES[case]
        n, indices = 40000, range(3, 10)
        block = Ensemble(model, dt, n, 20151015, indices).make_block(indices)
        for row, index in zip(block, indices):
            one = Ensemble(model, dt, n, 20151015, range(index, index + 1))
            assert np.array_equal(row, one.make_block(range(index, index + 1))[0])


class TestThermal:
    def test_mean_flux(self):
        flux = np.mean([t.intensity().mean()
                        for t in generate_ensemble(THERMAL, 0.01, 10000, 7, 50)])
        # thermal intensity has std = mean; generous Monte Carlo bound
        assert abs(flux - 25.0) < 3.0 * 25.0 / math.sqrt(50 * 100)

    def test_lag_correlation_kernel(self):
        # E[alpha*(t) alpha(t+2/Gamma)] = (nu Gamma / 4) e^{-1}
        lag = 200  # 2/Gamma at dt = 0.01
        vals = []
        for t in generate_ensemble(THERMAL, 0.01, 20000, 11, 200):
            s = t.samples
            vals.append(np.mean(np.conj(s[:-lag]) * s[lag:]))
        vals = np.asarray(vals)
        target = 25.0 * math.exp(-1.0)
        sigma = vals.real.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.real.mean() - target) < 3.0 * sigma
        sigma_im = vals.imag.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.imag.mean()) < 3.0 * sigma_im

    def test_zero_brightness_gives_zero_trace(self):
        model = BeamModelSpec(family="thermal", nu=0.0, gamma=1.0)
        trace = generate_trace(model, 0.01, 100, 3)
        assert np.all(trace.samples == 0.0)

    def test_exact_discretization_moments(self):
        # stationary variance and lag covariance of the discrete recursion
        # reproduce the continuous kernel (nu Gamma/4) e^{-Gamma tau/2}
        nu, gamma, dt = 100.0, 1.0, 0.007
        a, sigma2 = _ou_step_coefficients(nu, gamma, dt)
        stationary = sigma2 / (1.0 - a * a)
        assert stationary == pytest.approx(nu * gamma / 4.0, rel=1e-10)
        for k in (1, 10, 137):
            assert stationary * a**k == pytest.approx(
                (nu * gamma / 4.0) * math.exp(-gamma * k * dt / 2.0), rel=1e-10)

    def test_gaussian_kurtosis(self):
        samples = np.concatenate([
            t.samples.real for t in generate_ensemble(THERMAL, 0.01, 10000, 13, 20)])
        # use effectively independent samples (spacing 2 coherence times)
        x = samples[::200]
        kurt = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
        sigma = math.sqrt(24.0 / x.size)
        assert abs(kurt - 3.0) < 3.0 * sigma

    def test_dt_bound_enforced(self):
        with pytest.raises(DomainError):
            generate_trace(THERMAL, 0.02, 1000, 1)


class TestLaser:
    def test_constant_modulus(self):
        trace = generate_trace(LASER, 0.01, 5000, 5)
        assert np.max(np.abs(trace.intensity() - 25.0)) < 1e-10

    def test_first_order_coherence(self):
        lag = 200  # 2/Gamma
        vals = []
        for t in generate_ensemble(LASER, 0.01, 20000, 17, 200):
            s = t.samples
            vals.append(np.mean(np.conj(s[:-lag]) * s[lag:]) / 25.0)
        vals = np.asarray(vals)
        sigma = vals.real.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.real.mean() - math.exp(-1.0)) < 3.0 * sigma

    def test_frozen_phase_limit(self):
        model = BeamModelSpec(family="laser", nu=100.0, gamma=1e-12)
        trace = generate_trace(model, 0.01, 10000, 23)
        phase = np.unwrap(np.angle(trace.samples))
        assert np.ptp(phase) < 1e-4


class TestJitteredLaser:
    def test_zero_band_matches_laser_bitwise(self):
        degenerate = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0)
        a = generate_trace(degenerate, 0.01, 5000, 42)
        b = generate_trace(LASER, 0.01, 5000, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_constant_modulus(self):
        model = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                              jitter_band=100.0, jitter_corr_time=10.0)
        trace = generate_trace(model, 5e-4, 20000, 9)
        assert np.max(np.abs(trace.intensity() - 25.0)) < 1e-10

    def test_broadband_spectrum(self):
        model = BeamModelSpec(family="jittered_laser", nu=100.0, gamma=1.0,
                              jitter_band=100.0, jitter_corr_time=10.0)
        est = spectrum(generate_ensemble(model, 5e-4, 40000, 31, 200))
        fwhm = estimate_fwhm(est, smooth_bins=21)
        assert 50.0 <= fwhm <= 200.0


class TestKSpaceProduct:
    def test_mode_moduli_are_deterministic(self):
        a = generate_trace(KSPACE, 0.01, 4000, 1, trace_index=0)
        b = generate_trace(KSPACE, 0.01, 4000, 1, trace_index=1)
        assert not np.array_equal(a.samples, b.samples)
        mod_a = np.abs(np.fft.ifft(a.samples))
        mod_b = np.abs(np.fft.ifft(b.samples))
        assert np.max(np.abs(mod_a - mod_b)) < 1e-12

    def test_total_flux_matches_cw_value(self):
        # per-trace total flux is deterministic; the Lorentzian mode sum
        # approaches nu Gamma / 4 as the grid refines
        trace = generate_trace(KSPACE, 0.01, 40000, 1)
        assert trace.intensity().mean() == pytest.approx(25.0, rel=0.01)

    def test_duration_bound(self):
        with pytest.raises(DomainError):
            generate_trace(KSPACE, 0.01, 500, 1)


class TestPeriodicThermal:
    def test_exact_periodicity(self):
        trace = generate_trace(PERIODIC, 0.01, 4000, 3)
        modes = np.fft.ifft(trace.samples)
        # wrapped continuation alpha(t_n) equals alpha(t_0) because every
        # mode phase advances by an exact multiple of 2 pi over the record
        assert np.sum(modes) == pytest.approx(trace.samples[0], rel=1e-9)

    def test_lag_correlation_matches_kernel(self):
        vals = {50: [], 200: []}
        for t in generate_ensemble(
                BeamModelSpec(family="periodic_thermal", nu=100.0, gamma=1.0),
                0.01, 20000, 19, 300):
            s = t.samples
            for lag in vals:
                vals[lag].append(np.mean(np.conj(s[:-lag]) * s[lag:]).real)
        for lag, v in vals.items():
            v = np.asarray(v)
            target = 25.0 * math.exp(-lag * 0.01 / 2.0)
            sigma = v.std(ddof=1) / math.sqrt(v.size)
            assert abs(v.mean() - target) < 3.0 * sigma


class TestWholeSteps:
    """The one rule that turns durations, lags, spacings, count windows and
    detunings into grid steps."""

    def test_signed_values_within_the_tolerance(self):
        steps = _whole_steps(np.array([0.0, 0.03, -0.03, 0.0100000001, -1e-9]), 0.01, "off")
        assert steps.tolist() == [0.0, 3.0, -3.0, 1.0, 0.0]
        assert steps.dtype == np.float64

    @pytest.mark.parametrize("value", [0.0123, -0.0123, 0.01000002, -0.01000002, 2e-8])
    def test_off_the_grid_raises_the_callers_message(self, value):
        # the tolerance is 1e-6 max(|value|, step): 2e-8 of a 0.01 step is too far
        with pytest.raises(DomainError, match="^the caller's own words$"):
            _whole_steps(value, 0.01, "the caller's own words")

    def test_an_infinite_count_is_left_to_the_caller(self):
        assert _whole_steps(1e300, 1e-300, "off") == math.inf
        assert _whole_steps(np.array([0.0, 1e300]), 0.01, "off")[1] == 1e302


class TestFieldTrace:
    def test_properties(self):
        trace = generate_trace(LASER, 0.01, 2000, 1)
        assert trace.n_samples == 2000
        assert trace.n_samples * trace.dt == pytest.approx(20.0)

    def test_rejects_bad_samples(self):
        with pytest.raises(DomainError):
            FieldTrace(samples=np.array([1.0 + 0j]), dt=0.01, model=LASER, master_seed=0)
        with pytest.raises(DomainError):
            FieldTrace(samples=np.array([1.0, np.nan], dtype=complex), dt=0.01,
                       model=LASER, master_seed=0)
        with pytest.raises(DomainError):
            FieldTrace(samples=np.ones(4, dtype=complex), dt=-0.1, model=LASER, master_seed=0)


class TestLorentzian:
    def test_peak_and_half_max(self):
        assert lorentzian(0.0, 2.0) == 1.0
        assert lorentzian(1.0, 2.0) == pytest.approx(0.5, rel=1e-12)
        assert lorentzian(3.0 - 3.0, 2.0) == 1.0
