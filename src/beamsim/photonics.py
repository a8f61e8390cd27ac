"""Filtering of single traces, intensity correlations, and photon counting.

A filter (fieldgen.FilterSpec) multiplies a trace's DFT modes, as a filtered
ensemble does, by a causal single-pole amplitude response whose squared
modulus is exactly the unit-peak Lorentzian power transmission.  That is a
circular convolution, so a leading margin of ~10/fwhm should be discarded
from any analysis of filtered traces (g2 and intensity_samples take burn_in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .fieldgen import (
    BeamModelSpec,
    FieldTrace,
    FilterSpec,
    generate_ensemble,
    trace_rng,
    _CHANNEL_COUNTS,
    _filtered,
    _whole_steps,
)
from .spectral import _ordered_map, _scan


def apply_filter(trace: FieldTrace, filt: FilterSpec) -> FieldTrace:
    """Multiply the trace's frequency components by the filter's amplitude response."""
    return replace(trace, samples=_filtered(trace.samples, filt.response(trace.dt, trace.n_samples)))


@dataclass(frozen=True)
class G2Estimate:
    """Normalized intensity autocorrelation on a lag grid."""

    tau: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    ensemble_size: int


def _check_burn_in(burn_in: float) -> None:
    if not (math.isfinite(burn_in) and burn_in >= 0):
        raise DomainError(f"burn_in must be finite and >= 0, got {burn_in!r}")


def _burn_in_samples(dt: float, n: int, burn_in: float) -> int:
    skip = int(round(min(burn_in / dt, n)))   # a huge burn-in would overflow an int
    if skip >= n - 1:
        raise DomainError("burn_in leaves no samples to analyse")
    return skip


def _ratio_estimate(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pooled ratio mean(x) / mean(y)^2 over traces and its delta-method
    standard error from the per-trace scatter of x and y (zero for one trace).
    The mean flux y must not be zero: g2 of a dark beam is undefined."""
    count = x.size
    xbar, ybar = x.mean(), y.mean()
    if ybar == 0:
        raise DomainError("zero mean flux (nu = 0?): g2 is undefined")
    if count < 2:
        return xbar / ybar**2, 0.0
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow gives inf or NaN
        var_x = np.var(x, ddof=1) / count
        var_y = np.var(y, ddof=1) / count
        cov_xy = np.cov(x, y, ddof=1)[0, 1] / count
        var_g = (var_x / ybar**4
                 + 4.0 * xbar**2 / ybar**6 * var_y
                 - 4.0 * xbar / ybar**5 * cov_xy)
        return xbar / ybar**2, math.sqrt(max(var_g, 0.0))


def g2(traces: Iterable[FieldTrace], tau_grid: Sequence[float],
       burn_in: float = 0.0) -> G2Estimate:
    """g2(tau) = <I(t) I(t+tau)> / <I>^2 averaged over time and ensemble, of
    the traces as given: a filtered source gives g2 of filtered light.

    The ratio is pooled (ensemble-mean numerator over squared ensemble-mean
    flux); standard errors come from the per-trace scatter via the delta
    method.  Each tau must be a whole number of dt steps (see _whole_steps).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not np.all(np.isfinite(tau_grid)) or np.any(tau_grid < 0):
        raise DomainError("tau_grid values must be finite and >= 0")
    _check_burn_in(burn_in)
    off_grid = "each tau must be a multiple of dt"

    def row(block, dt):
        n = block.shape[1]
        skip = _burn_in_samples(dt, n, burn_in)
        steps = _whole_steps(tau_grid, dt, off_grid)
        if np.max(steps, initial=0) >= n - skip:   # in float, before the cast to int
            raise DomainError("tau exceeds the analysable trace length")
        # time-mean intensity, then the time-mean of I(t) I(t+tau) per lag
        out = np.empty((len(block), 1 + len(steps)))
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow gives inf or NaN
            intensity = (block.real**2 + block.imag**2)[:, skip:]
            out[:, 0] = intensity.mean(axis=1)
            for j, lag in enumerate(steps.astype(int), 1):
                product = (intensity * intensity if lag == 0
                           else intensity[:, :-lag] * intensity[:, lag:])
                out[:, j] = product.mean(axis=1)
        return out

    dt, count, rows = _scan(traces, row)
    estimates = [_ratio_estimate(x, rows[:, 0]) for x in rows[:, 1:].T]
    values, std_errors = np.array(estimates, dtype=float).reshape(-1, 2).T
    return G2Estimate(tau=_whole_steps(tau_grid, dt, off_grid) * dt, values=values,
                      std_errors=std_errors, ensemble_size=count)


def fano_factor(counts) -> float:
    """Sample variance over sample mean of a count sequence (mean > 0)."""
    counts = np.asarray(counts, dtype=float)
    if counts.size < 2:
        raise DomainError("need at least 2 count windows")
    if not (np.all(np.isfinite(counts)) and np.all(counts >= 0)):
        raise DomainError("counts must be finite and >= 0")
    mean = counts.mean()
    if mean <= 0:
        raise DomainError("zero mean count; Fano factor undefined")
    return float(np.var(counts, ddof=1) / mean)


def photon_counts(trace: FieldTrace, window_T: float) -> np.ndarray:
    """Partition the trace into windows and draw Poisson counts with per-window
    mean equal to the trapezoidal integral of |alpha|^2, from the trace's
    counting stream trace_rng(master_seed, trace_index, _CHANNEL_COUNTS) alone.
    """
    if not (math.isfinite(window_T) and window_T > 0):
        raise DomainError(f"window_T must be finite and > 0, got {window_T!r}")
    if trace.duration < 10.0 * window_T:
        raise DomainError("trace must be at least 10 windows long")
    w = int(_whole_steps(window_T, trace.dt, "window_T must be an integer multiple of dt"))
    if w < 1:
        raise DomainError(f"window_T {window_T!r} is below one dt step")
    intensity = trace.intensity()
    n_windows = (trace.n_samples - 1) // w
    idx = np.arange(n_windows + 1) * w
    cum = np.concatenate([[0.0], np.cumsum((intensity[1:] + intensity[:-1]) * (trace.dt / 2.0))])
    means = cum[idx[1:]] - cum[idx[:-1]]
    return trace_rng(trace.master_seed, trace.trace_index, _CHANNEL_COUNTS).poisson(means)


def intensity_samples(traces: Iterable[FieldTrace], spacing: float,
                      burn_in: float = 0.0) -> np.ndarray:
    """Instantaneous intensities every `spacing` seconds (one or more whole dt
    steps, and at least one per trace) past burn_in, pooled over the ensemble."""
    if not (math.isfinite(spacing) and spacing > 0):
        raise DomainError(f"spacing must be finite and > 0, got {spacing!r}")
    _check_burn_in(burn_in)

    def row(block, dt):
        n = block.shape[1]
        skip = _burn_in_samples(dt, n, burn_in)
        step = int(min(_whole_steps(spacing, dt, "spacing must be a multiple of dt"), n))
        if step < 1:
            raise DomainError(f"spacing {spacing!r} is below one dt step")
        sampled = block[:, skip::step]
        return sampled.real**2 + sampled.imag**2

    return _scan(traces, row)[2].ravel()


@dataclass(frozen=True)
class SweepRow:
    fwhm: float
    g2_zero: float
    std_error: float
    ensemble_size: int


def filtered_laser_sweep(model: BeamModelSpec, fwhm_list: Sequence[float],
                         dt: float, n: int, master_seed: int, n_traces: int,
                         center_detuning: float = 0.0) -> list[SweepRow]:
    """g2(0) of the filtered beam for each filter width, sharing one ensemble.

    Each trace is made in the calling thread and transformed once; its
    filters reuse the transform on the pool, one per worker.  The per-filter
    burn-in is max(10/fwhm, 10/Gamma) and must leave at least half of the
    trace for analysis.
    """
    if len(fwhm_list) == 0:
        raise DomainError("need at least one filter fwhm")
    traces = generate_ensemble(model, dt, n, master_seed, n_traces)
    filters = [FilterSpec(center_detuning=center_detuning, fwhm=f) for f in fwhm_list]
    responses = []   # (amplitude response, burn-in samples) per filter
    for f in filters:
        response, burn = f.response(dt, n), max(f.suggested_burn_in(), 10.0 / model.gamma)
        if burn > 0.5 * n * dt:
            raise ConfigurationError(
                f"trace too short for fwhm={f.fwhm:g}: burn-in {burn:g} exceeds half the duration"
            )
        responses.append((response, _burn_in_samples(dt, n, burn)))

    def moments(branch):
        # time-mean intensity and time-mean squared intensity past the
        # burn-in, computed in the buffer of the filtered modes
        filtered, skip = branch
        np.fft.fft(filtered, out=filtered)
        re, im = filtered.real[skip:], filtered.imag[skip:]
        np.square(re, out=re)
        np.square(im, out=im)
        re += im
        mean = re.mean()
        np.square(re, out=re)
        return mean, re.mean()

    def row(trace):
        # the trace and its modes are freed before the next trace is made
        modes = np.fft.ifft(trace.samples)
        # each product is allocated here, one branch at a time, as it is pulled
        branches = ((modes * response, skip) for response, skip in responses)
        return [m for pair in _ordered_map(moments, branches) for m in pair]

    rows = np.array(list(map(row, traces)))
    sweep = []
    for slot, f in enumerate(filters):
        value, err = _ratio_estimate(rows[:, 2 * slot + 1], rows[:, 2 * slot])
        sweep.append(SweepRow(fwhm=f.fwhm, g2_zero=float(value),
                              std_error=err, ensemble_size=len(rows)))
    return sweep
