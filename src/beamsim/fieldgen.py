"""Stochastic coherent-amplitude beam generators (rotating frame).

All traces are complex amplitudes alpha(t) sampled on a uniform grid, in a
frame rotating at the carrier frequency; spectra are detunings from the
carrier.  |alpha|^2 has units of photon flux (photons per second) and its
stationary mean is nu * Gamma / 4 for every CW model.

Families
--------
thermal          complex Ornstein-Uhlenbeck process (exact discretization)
laser            constant modulus, Wiener phase diffusion at rate Gamma
jittered_laser   phase diffusion plus a slowly wandering OU detuning
kspace_product   independent fixed-modulus, random-phase frequency modes
periodic_thermal independent complex-Gaussian frequency modes (exactly periodic)
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

FAMILIES = ("thermal", "laser", "jittered_laser", "kspace_product", "periodic_thermal")
_MODE_FAMILIES = ("kspace_product", "periodic_thermal")

# RNG channel ids; the jitter detuning uses its own channel so that a
# jittered trace with zero band reproduces the plain laser trace bit for bit.
_CHANNEL_FIELD = 0
_CHANNEL_JITTER = 1
_CHANNEL_COUNTS = 2


def trace_rng(master_seed: int, trace_index: int, channel: int = _CHANNEL_FIELD) -> np.random.Generator:
    """Per-trace RNG stream: PCG64 seeded by SeedSequence(master_seed,
    spawn_key=(trace_index, channel)).  Pure function of its arguments."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trace_index, channel))
    return np.random.Generator(np.random.PCG64(ss))


def lorentzian(omega, fwhm: float):
    """Unit-peak Lorentzian (fwhm/2)^2 / ((fwhm/2)^2 + omega^2)."""
    half = fwhm / 2.0
    return half**2 / (half**2 + np.asarray(omega, dtype=float) ** 2)


def _mode_grid(dt: float, n: int) -> np.ndarray:
    """DFT detuning grid, spacing 2 pi / duration (numpy fft ordering)."""
    return math.tau * np.fft.fftfreq(n, d=dt)


def _whole_steps(values, step: float, message: str) -> np.ndarray:
    """The one whole-step rule: `values` as float counts of `step`, each within
    1e-6 max(|value|, step) of a whole count, or DomainError(message); inf is the caller's."""
    with np.errstate(over="ignore"):   # a huge value would overflow an int
        steps = np.rint(values / step)
    off = np.abs(steps * step - values) > 1e-6 * np.maximum(np.abs(values), step)
    if np.any(off & np.isfinite(steps)):
        raise DomainError(message)
    return steps


@dataclass(frozen=True)
class FilterSpec:
    """Single-pole Lorentzian filter: center detuning and FWHM of |t(w)|^2."""

    center_detuning: float   # rad/s
    fwhm: float              # rad/s

    def __post_init__(self):
        # the response divides by fwhm/2: its reciprocal must be finite too
        if not (0 < self.fwhm < math.inf and math.isfinite(2.0 / self.fwhm)):
            raise DomainError(f"fwhm must be finite and > 0 with 2/fwhm finite, got {self.fwhm!r}")
        if not math.isfinite(self.center_detuning):
            raise DomainError("center_detuning must be finite")

    def response(self, dt: float, n: int) -> np.ndarray:
        """t(w) = (d/2) / ((d/2) - i (w - w_f)) on the DFT grid of (dt, n), in
        numpy fft ordering; |t|^2 is Lorentzian of FWHM d.  A filter too wide
        for the grid (fwhm >= pi/dt) is rejected."""
        if self.fwhm >= math.pi / dt:
            raise DomainError(
                f"filter fwhm {self.fwhm:g} not resolvable on a grid with dt={dt:g} "
                f"(need fwhm < pi/dt = {math.pi / dt:g})"
            )
        half = self.fwhm / 2.0
        return half / (half - 1j * (_mode_grid(dt, n) - self.center_detuning))

    def suggested_burn_in(self) -> float:
        """Analysis margin covering the filter transient, 10/fwhm seconds."""
        return 10.0 / self.fwhm


def _filtered(samples: np.ndarray, response: np.ndarray) -> np.ndarray:
    """The one filter rule: each trace (last axis) filtered by `response` in its modes' buffer."""
    modes = np.fft.ifft(samples, axis=-1)
    return np.fft.fft(np.multiply(modes, response, out=modes), axis=-1, out=modes)


@dataclass(frozen=True)
class BeamModelSpec:
    """Beam model family and its physical parameters."""

    family: str
    nu: float                                   # photons per coherence time
    gamma: float                                # linewidth, 1/s
    jitter_band: float = 0.0                    # Delta omega, rad/s (jittered only)
    jitter_corr_time: Optional[float] = None    # s (jittered only)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown model family {self.family!r}; expected one of {FAMILIES}")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise DomainError(f"nu must be finite and >= 0, got {self.nu!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError(f"gamma must be finite and > 0, got {self.gamma!r}")
        if self.family != "jittered_laser":
            if self.jitter_band != 0 or self.jitter_corr_time is not None:
                raise DomainError(f"jitter_band and jitter_corr_time apply only to "
                                  f"jittered_laser, not {self.family!r}")
        elif self.jitter_band < 0 or not math.isfinite(self.jitter_band):
            raise DomainError("jitter_band must be finite and >= 0")
        elif 0 < self.jitter_band <= self.gamma:
            raise DomainError(
                "jittered_laser requires jitter_band > gamma (or exactly 0 for the degenerate case)"
            )
        elif self.jitter_band > 0 or self.jitter_corr_time is not None:
            if self.jitter_corr_time is None or not 1.0 / self.gamma < self.jitter_corr_time < math.inf:
                raise DomainError("jittered_laser requires a finite jitter_corr_time > 1/gamma")

    @property
    def mean_flux(self) -> float:
        """Stationary mean photon flux nu * Gamma / 4."""
        return self.nu * self.gamma / 4.0


@dataclass(frozen=True)
class FieldTrace:
    """One realization of a beam's coherent amplitude on a uniform time grid."""

    samples: np.ndarray          # complex128, units sqrt(photons/s)
    dt: float
    model: BeamModelSpec
    master_seed: int
    trace_index: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise DomainError(f"dt must be finite and > 0, got {self.dt!r}")
        if samples.ndim != 1 or samples.size < 2:
            raise DomainError("trace must hold at least 2 samples")
        _check_finite(samples)

    @property
    def n_samples(self) -> int:
        return self.samples.size

    def intensity(self) -> np.ndarray:
        """Instantaneous photon flux |alpha|^2."""
        return self.samples.real**2 + self.samples.imag**2


def _check_finite(samples: np.ndarray) -> None:
    if not np.all(np.isfinite(samples.view(np.float64))):
        raise DomainError("trace contains non-finite samples")


def _check_grid(model: BeamModelSpec, dt: float, n: int) -> None:
    """The one grid rule: a finite dt > 0 and an integer n >= 2;
    dt <= 0.01/gamma for every family, and for the two frequency-mode
    families, whose traces are periodic in their duration, duration >
    10/gamma.  The exact discretizations of the time-domain families are
    valid at any duration."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
    bound = 0.01 / model.gamma
    if dt > bound * (1.0 + 1e-12):
        raise DomainError(
            f"dt={dt:g} too coarse for gamma={model.gamma:g}; require dt <= 0.01/gamma = {bound:g}"
        )
    if model.family in _MODE_FAMILIES and n * dt <= 10.0 / model.gamma:
        raise DomainError(
            f"duration {n * dt:g} too short; require duration > 10/gamma = {10.0 / model.gamma:g}"
        )


def _ou_step_coefficients(nu: float, gamma: float, dt: float) -> tuple[float, float]:
    """Exact one-step update for the complex OU field: decay factor a and total
    complex noise variance sigma^2 per step (stationary E|alpha|^2 = nu gamma / 4)."""
    a = math.exp(-gamma * dt / 2.0)
    sigma2 = (nu * gamma / 4.0) * (1.0 - a * a)
    return a, sigma2


# Every samples function below takes a range of consecutive trace indices and
# returns a (len(indices), n) block whose row r holds trace indices[r], drawn
# from trace_rng(master_seed, indices[r], channel) alone and in the same order
# for any block.  The recursions, FFTs and exponentials then run once over the
# whole block; each row comes out bit for bit as it does in a block of one.

def _normal_draws(master_seed: int, indices: range, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n real then n imaginary unit normals per trace, as two contiguous real blocks."""
    re = np.empty((len(indices), n))
    im = np.empty((len(indices), n))
    for r, index in enumerate(indices):
        rng = trace_rng(master_seed, index)
        rng.standard_normal(out=re[r])
        rng.standard_normal(out=im[r])
    return re, im


def _complex_normals(master_seed: int, indices: range, n: int) -> np.ndarray:
    """n unit-variance complex normals per trace: each part's draws times
    1/sqrt(2), written into the .real and .imag views of one complex block
    (numpy divides a complex by a real scalar as this multiply, bit for bit)."""
    out = np.empty((len(indices), n), dtype=np.complex128)
    for part, view in zip(_normal_draws(master_seed, indices, n), (out.real, out.imag)):
        np.multiply(part, 1.0 / math.sqrt(2.0), out=view)
    return out


def _thermal(model: BeamModelSpec, dt: float, n: int, master_seed: int,
             indices: range) -> np.ndarray:
    """Exact-discretization complex OU process with kernel exp(-Gamma tau / 2).

    The decay factor is real, so each part is scaled and filtered as its own
    contiguous real block, then written into its view of the field: bit for
    bit the complex recursion on (re + 1j im) / sqrt(2)."""
    from scipy.signal import lfilter   # on first use: scipy.signal takes most of a second
    a, sigma2 = _ou_step_coefficients(model.nu, model.gamma, dt)
    field = np.empty((len(indices), n), dtype=np.complex128)
    for part, view in zip(_normal_draws(master_seed, indices, n), (field.real, field.imag)):
        part *= 1.0 / math.sqrt(2.0)
        x0 = part[:, 0] * math.sqrt(model.mean_flux)  # stationary initial sample
        part *= math.sqrt(sigma2)
        part[:, 0] = x0
        view[...] = lfilter([1.0], [1.0, -a], part, axis=1)
    return field


def _unit_phasors(phi: np.ndarray) -> np.ndarray:
    """exp(i phi) as cos phi and sin phi written into the views of one complex
    block: bit for bit np.exp(1j * phi) without its complex temporary."""
    out = np.empty(phi.shape, dtype=np.complex128)
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    return out


def _laser(model: BeamModelSpec, dt: float, n: int, master_seed: int,
           indices: range) -> np.ndarray:
    """Constant-modulus field with phase phi_0 uniform on [0, 2pi), then
    phi_{j+1} = phi_j + sqrt(Gamma dt) g_j.

    With jitter_band > 0 (jittered_laser) each phase increment also gets
    detuning_j * dt, where the detuning is a real OU process with stationary
    standard deviation jitter_band/2 and the given correlation time, drawn on
    its own channel.  At zero band the trace is the plain laser's bit for bit.
    The field is cos phi and sin phi written into its views (_unit_phasors),
    then scaled in place.
    """
    k = len(indices)
    phi0 = np.empty(k)
    inc = np.empty((k, n - 1))
    for r, index in enumerate(indices):
        rng = trace_rng(master_seed, index)
        phi0[r] = rng.uniform(0.0, math.tau)
        rng.standard_normal(out=inc[r])
    inc *= math.sqrt(model.gamma * dt)
    if model.jitter_band > 0:
        from scipy.signal import lfilter
        s = model.jitter_band / 2.0
        aj = math.exp(-dt / model.jitter_corr_time)
        h = np.empty((k, n - 1))
        h0 = np.empty(k)
        for r, index in enumerate(indices):
            jrng = trace_rng(master_seed, index, _CHANNEL_JITTER)
            jrng.standard_normal(out=h[r])
            h0[r] = jrng.standard_normal()
        h *= s * math.sqrt(1.0 - aj * aj)
        h[:, 0] = h0 * s  # stationary start (consumes one extra draw)
        inc += lfilter([1.0], [1.0, -aj], h, axis=1) * dt
    phi = np.empty((k, n))
    phi[:, 0] = phi0
    np.cumsum(inc, axis=1, out=phi[:, 1:])
    phi[:, 1:] += phi0[:, np.newaxis]
    field = _unit_phasors(phi)
    del phi   # the phases go before the field is scaled, in place
    field *= math.sqrt(model.mean_flux)
    return field


def _from_modes(model: BeamModelSpec, dt: float, n: int, unit: np.ndarray) -> np.ndarray:
    """alpha_j = sum_l A_l exp(-i omega_l t_j) with A_l = unit_l sqrt(nu f(omega_l) / duration),
    so that E|A_l|^2 = nu f(omega_l) / duration and the mean flux is ~ nu Gamma / 4.
    Computed in the buffer of `unit`."""
    mean_photons = model.nu * lorentzian(_mode_grid(dt, n), model.gamma) / (n * dt)
    unit *= np.sqrt(mean_photons)
    return np.fft.fft(unit, axis=1, out=unit)


def _kspace_product(model: BeamModelSpec, dt: float, n: int, master_seed: int,
                    indices: range) -> np.ndarray:
    """Per-frequency-mode product of laser states: deterministic moduli and
    independent uniform phases."""
    theta = np.empty((len(indices), n))
    for r, index in enumerate(indices):
        theta[r] = trace_rng(master_seed, index).uniform(0.0, math.tau, n)
    unit = _unit_phasors(theta)
    del theta
    return _from_modes(model, dt, n, unit)


def _periodic_thermal(model: BeamModelSpec, dt: float, n: int, master_seed: int,
                      indices: range) -> np.ndarray:
    """Exactly periodic thermal realization: independent complex-Gaussian modes."""
    return _from_modes(model, dt, n, _complex_normals(master_seed, indices, n))


_GENERATORS = {
    "thermal": _thermal,
    "laser": _laser,
    "jittered_laser": _laser,
    "kspace_product": _kspace_product,
    "periodic_thermal": _periodic_thermal,
}


class Ensemble:
    """Iterator over the traces `indices` of the model on the grid (dt, n),
    in order, filtered by `filt` if given: each is made as a block of one and
    finite-checked once, by FieldTrace.  The grid and the filter are checked,
    and a coarse jitter step (dt * jitter_band > 0.1) is warned about, here,
    once, before any trace is made.

    Each trace depends only on its index, so a consumer may instead take the
    indices not yet pulled (`take_rest`) and make them itself, on any thread
    and in any order, a range of consecutive indices at once with
    `make_block`.
    """

    def __init__(self, model: BeamModelSpec, dt: float, n: int, master_seed: int,
                 indices: range, filt: Optional[FilterSpec] = None):
        _check_grid(model, dt, n)
        self._response = None if filt is None else filt.response(dt, n)
        if model.jitter_band * dt > 0.1:
            level = 2   # the first frame outside this module: the line that built the ensemble
            while sys._getframe(level - 1).f_globals["__name__"] == __name__:
                level += 1
            warnings.warn(f"dt*jitter_band = {model.jitter_band * dt:.3g} > 0.1; "
                          "jitter phase steps are coarse", stacklevel=level)
        self.model, self.dt, self.n, self.master_seed = model, dt, n, master_seed
        self._rest = indices

    def __iter__(self) -> "Ensemble":
        return self

    def _rows(self, indices: range) -> np.ndarray:
        block = _GENERATORS[self.model.family](self.model, self.dt, self.n, self.master_seed,
                                               indices)
        return block if self._response is None else _filtered(block, self._response)

    def __next__(self) -> FieldTrace:
        if not self._rest:
            raise StopIteration
        index, self._rest = self._rest[0], self._rest[1:]
        return FieldTrace(samples=self._rows(range(index, index + 1))[0], dt=self.dt,
                          model=self.model, master_seed=self.master_seed, trace_index=index)

    def make_block(self, indices: range) -> np.ndarray:
        """The samples of traces `indices` (consecutive) as the rows of a
        (len(indices), n) block, finite-checked; row r equals the samples of
        trace indices[r] made alone."""
        block = self._rows(indices)
        _check_finite(block)
        return block

    def take_rest(self) -> range:
        """The indices not yet pulled; the iterator is exhausted afterwards."""
        rest, self._rest = self._rest, self._rest[:0]
        return rest


def generate_trace(model: BeamModelSpec, dt: float, n: int, master_seed: int,
                   trace_index: int = 0) -> FieldTrace:
    """One trace of the model's family on the grid (dt, n): an Ensemble of
    one.  Its draws come only from trace_rng(master_seed, trace_index, channel)."""
    return next(Ensemble(model, dt, n, master_seed, range(trace_index, trace_index + 1)))


def generate_ensemble(model: BeamModelSpec, dt: float, n: int, master_seed: int,
                      n_traces: int, filt: Optional[FilterSpec] = None) -> Ensemble:
    """Lazily generate n_traces independent traces, trace indices 0 to
    n_traces - 1, filtered by `filt` if given.  The trace count and (by the
    Ensemble) the grid and the filter are checked here, before any trace is made."""
    if n_traces < 1:
        raise DomainError("n_traces must be >= 1")
    return Ensemble(model, dt, n, master_seed, range(n_traces), filt)
