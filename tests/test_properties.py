"""Property tests: the chunk rule, .ftrc round trips and corrupt records,
Parseval, the spectrum's linearity in nu, g2 and the stationarity of
constant-modulus beams, filter composition and the grid rule, over
generated inputs.

Examples are derandomized and capped, so every run checks the same few
dozen cases per property and tier-1 grows by seconds at most.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamsim import DomainError, fieldgen, spectral
from beamsim.fieldgen import (
    _MODE_FAMILIES,
    FAMILIES,
    BeamModelSpec,
    FieldTrace,
    _mode_grid,
    generate_ensemble,
    generate_trace,
)
from beamsim.photonics import FilterSpec, apply_filter, filtered_laser_sweep, g2
from beamsim.spectral import _amplitude_transform, _pair_products, _power, spectrum
from beamsim.traceio import trace_from_bytes, trace_to_bytes

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

KIB = 1 << 10


@PROPERTY
@given(n=st.integers(2, 2 * 10**6), workers=st.integers(1, 8))
def test_chunk_rule(n, workers):
    with mock.patch.object(spectral, "_WORKERS", workers):
        per_block, in_flight = spectral._chunking(n)
    with mock.patch.object(spectral, "_WORKERS", 1):
        assert spectral._chunking(n)[0] == per_block   # not the worker count
    block = 16 * n * per_block
    assert per_block >= 1
    assert in_flight >= 1   # a serial scan has one block in flight
    assert block <= 512 * KIB or per_block == 1
    assert block > 256 * KIB   # a block is never under half the budget
    if in_flight >= 2:   # a pooled scan
        assert in_flight <= 2 * workers
        assert in_flight * block <= 8 * 1024 * KIB


@st.composite
def traces(draw):
    """Any trace the generators accept: family, parameters, grid, seed and index."""
    family = draw(st.sampled_from(FAMILIES))
    gamma = draw(st.floats(1e-3, 1e3))
    dt = draw(st.floats(0.5, 1.0)) * 0.01 / gamma
    jitter = {}
    if family == "jittered_laser":
        band = draw(st.one_of(st.just(0.0), st.floats(1.01, 10.0)))   # dt * band <= 0.1
        if band > 0:
            jitter = {"jitter_band": band * gamma,
                      "jitter_corr_time": draw(st.floats(1.01, 100.0)) / gamma}
    model = BeamModelSpec(family=family, nu=draw(st.floats(0.0, 1e6)), gamma=gamma, **jitter)
    least = math.ceil(10.0 / (gamma * dt)) + 1 if family in _MODE_FAMILIES else 2
    n = draw(st.integers(least, least + 500))
    seed, index = draw(st.integers(0, 2**128)), draw(st.integers(0, 2**32))
    return generate_trace(model, dt, n, seed, index)


@PROPERTY
@given(trace=traces())
def test_ftrc_round_trip_is_bit_for_bit(trace):
    data = trace_to_bytes(trace)
    back = trace_from_bytes(data)
    assert back.samples.tobytes() == trace.samples.tobytes()
    assert (back.model, back.dt, back.master_seed, back.trace_index) == (
        trace.model, trace.dt, trace.master_seed, trace.trace_index)
    assert trace_to_bytes(back) == data


# parts too small to square without underflow are zero
parts = st.floats(-1e6, 1e6).map(lambda x: x if abs(x) > 1e-100 else 0.0)


@PROPERTY
@given(block=arrays(np.complex128, st.tuples(st.integers(1, 3), st.integers(1, 128)),
                    elements=st.builds(complex, parts, parts)),
       dt=st.floats(1e-6, 1e3))
def test_parseval(block, dt):
    """sum_l |u~(w_l)|^2 = dt sum_j |alpha_j|^2 for each trace of a block."""
    u = _amplitude_transform(block, dt)
    for u_row, row in zip(u, block):
        assert np.sum(np.abs(u_row) ** 2) == pytest.approx(dt * np.sum(np.abs(row) ** 2),
                                                           rel=1e-10)
    # a bin's power is the real part of its diagonal pair product, bit for
    # bit, and the imaginary part is exactly zero
    n = block.shape[1]
    b = n // 2
    products = _pair_products([(_mode_grid(dt, n)[b],) * 2])(block, dt)
    np.testing.assert_array_equal(products.real, _power(block, dt)[:, b:b + 1])
    assert not np.any(products.imag)


def model_of(family, nu=1.0, gamma=1.0):
    jitter = ({"jitter_band": 5.0 * gamma, "jitter_corr_time": 1.5 / gamma}
              if family == "jittered_laser" else {})
    return BeamModelSpec(family=family, nu=nu, gamma=gamma, **jitter)


@PROPERTY
@given(c=st.floats(1e-6, 1e6))
def test_spectrum_is_linear_in_nu(c):
    """spectrum at nu*c is c times spectrum at nu, values and std_errors, for
    every family at one seed.  kspace_product's mode moduli are fixed, so its
    periodogram has no spread: its std_errors are rounding noise, about 1e-8
    of each value, on both sides."""
    for family in FAMILIES:
        base, scaled = (spectrum(generate_ensemble(model_of(family, nu), 0.01, 2001, 11, 4))
                        for nu in (100.0, 100.0 * c))
        np.testing.assert_allclose(scaled.values, c * base.values, rtol=1e-12, atol=0)
        if family == "kspace_product":
            for est in (base, scaled):
                assert np.all(est.std_errors <= 1e-6 * est.values)
        else:
            np.testing.assert_allclose(scaled.std_errors, c * base.std_errors,
                                       rtol=1e-12, atol=0)


LASER = BeamModelSpec(family="laser", nu=1.0, gamma=1.0)


@PROPERTY
@given(data=st.data(), modulus=st.floats(1e-3, 1e3),
       shape=st.tuples(st.integers(1, 4), st.integers(8, 200)))
def test_g2_of_constant_modulus_is_one(data, modulus, shape):
    phases = data.draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    lags = data.draw(st.lists(st.integers(0, shape[1] - 2), min_size=1, max_size=4))
    dt = 0.01
    ensemble = [FieldTrace(samples=modulus * np.exp(1j * p), dt=dt, model=LASER,
                           master_seed=0, trace_index=r) for r, p in enumerate(phases)]
    est = g2(ensemble, [lag * dt for lag in lags])
    np.testing.assert_allclose(est.values, 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(nu=st.floats(-3.0, 12.0).map(lambda e: 10.0**e), gamma=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**128), jitter=st.one_of(st.none(), st.tuples(
           st.floats(1.01, 10.0), st.floats(1.01, 100.0))))   # dt * band <= 0.1
def test_constant_modulus_beams_are_stationary(nu, gamma, seed, jitter):
    """A laser's window means are constant up to rounding, jittered or not,
    so stationarity_test finds no evidence against stationarity."""
    family, extra = "laser", {}
    if jitter is not None:
        family, extra = "jittered_laser", {"jitter_band": jitter[0] * gamma,
                                           "jitter_corr_time": jitter[1] / gamma}
    model = BeamModelSpec(family=family, nu=nu, gamma=gamma, **extra)
    W = spectral.windowed_mean_intensities(
        generate_ensemble(model, 0.01 / gamma, 2000, seed, 20), 8)
    assert spectral.stationarity_test(W, n_permutations=99).p_value == 1.0


NYQUIST = math.pi / 0.01   # rad/s, at dt = 0.01
filters = st.builds(FilterSpec, st.floats(-NYQUIST, NYQUIST),
                    st.floats(0.0, NYQUIST, exclude_min=True, exclude_max=True,
                              allow_subnormal=False))


@PROPERTY
@given(n=st.integers(16, 4096), seed=st.integers(0, 2**32), f=filters, g=filters)
def test_filters_compose(n, seed, f, g):
    """apply_filter by f then g equals g then f, and one pass with the product
    response f*g, within 1e-12 of max|alpha|; and since |t| <= 1, filtering
    never raises sum |alpha|^2."""
    trace = generate_trace(BeamModelSpec(family="thermal", nu=100.0, gamma=1.0), 0.01, n, seed)
    by_f, by_g = apply_filter(trace, f), apply_filter(trace, g)
    fg = apply_filter(by_f, g).samples
    gf = apply_filter(by_g, f).samples
    once = np.fft.fft(np.fft.ifft(trace.samples) * f.response(0.01, n) * g.response(0.01, n))
    tol = 1e-12 * np.abs(trace.samples).max()
    assert np.abs(fg - gf).max() <= tol
    assert np.abs(fg - once).max() <= tol
    for h in (f, g):
        assert np.abs(h.response(0.01, n)).max() <= 1.0 + 1e-15
    power = np.sum(np.abs(trace.samples) ** 2)
    for filtered in (by_f.samples, by_g.samples, fg):
        assert np.sum(np.abs(filtered) ** 2) <= power * (1.0 + 1e-12)


@PROPERTY
@given(gamma=st.floats(1e-3, 1e3), coarser=st.floats(1.000001, 100.0), n=st.integers(2, 10**6))
def test_every_family_rejects_a_coarse_dt_with_one_message(gamma, coarser, n):
    dt = coarser * 0.01 / gamma
    messages = set()
    for family in FAMILIES:
        with pytest.raises(DomainError, match="too coarse") as exc:
            generate_ensemble(BeamModelSpec(family=family, nu=1.0, gamma=gamma), dt, n, 0, 1)
        messages.add(str(exc.value))
    assert len(messages) == 1


def no_draws(*args):
    raise AssertionError("a trace was drawn")


@pytest.mark.parametrize("dt, n, message", [
    (-0.01, 2000, "dt must be finite and > 0"),
    (-2.5e-4, 2000, "dt must be finite and > 0"),
    (0.0, 2000, "dt must be finite and > 0"),
    (math.nan, 2000, "dt must be finite and > 0"),
    (math.inf, 2000, "dt must be finite and > 0"),
    (0.001, 0, "n must be an integer >= 2"),
    (0.001, 1, "n must be an integer >= 2"),
    (0.001, -5, "n must be an integer >= 2"),
    (0.001, 2000.0, "n must be an integer >= 2"),
])
@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_rejects_a_bad_grid_before_any_draw(monkeypatch, family, dt, n, message):
    """The grid rule speaks before any trace is drawn, through the ensemble
    and through the sweep, ahead of the sweep's own filter checks."""
    monkeypatch.setattr(fieldgen, "trace_rng", no_draws)
    model = model_of(family)
    with pytest.raises(DomainError, match=message):
        next(generate_ensemble(model, dt, n, 0, 1))
    with pytest.raises(DomainError, match=message):
        filtered_laser_sweep(model, [10.0], dt, n, 0, 1)


@PROPERTY
@given(trace=traces(), data=st.data())
def test_corrupt_record_decodes_or_is_rejected(trace, data):
    """A valid record cut short, or with one byte changed, decodes to a
    FieldTrace or raises DomainError, and never anything else."""
    record = bytearray(trace_to_bytes(trace))
    hlen = int.from_bytes(record[8:12], "little")
    # half the changes fall in the JSON header, and half the bytes written are printable
    at = data.draw(st.one_of(st.integers(12, 11 + hlen), st.integers(0, len(record) - 1)))
    if data.draw(st.booleans()):
        del record[at:]
    else:
        byte = data.draw(st.one_of(st.integers(32, 126), st.integers(0, 255)))
        assume(byte != record[at])
        record[at] = byte
    try:
        decoded = trace_from_bytes(bytes(record))
    except DomainError:
        return
    assert isinstance(decoded, FieldTrace)
