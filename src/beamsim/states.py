"""Single-mode thermal and laser state models.

A thermal mode has a geometric photon-number distribution with mean nbar
(equivalently a zero-mean complex-Gaussian mixture of coherent states);
a laser mode has a Poissonian photon-number distribution with mean mu
(equivalently a fixed-modulus, uniform-phase mixture of coherent states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

TWO_PI = 2.0 * math.pi


def _check_mean(mean: float) -> None:
    if not (isinstance(mean, (int, float)) and math.isfinite(mean) and mean >= 0):
        raise DomainError(f"mean photon number must be finite and >= 0, got {mean!r}")


def _number_pmf(mean: float, n, log_mass) -> np.ndarray | float:
    """The mass at photon numbers n of a law with the given mean: the vacuum
    at mean 0, else exp(log_mass(n)) for n as an integer array."""
    _check_mean(mean)
    n_arr = np.asarray(n)
    if not np.issubdtype(n_arr.dtype, np.integer) or np.any(n_arr < 0):
        raise DomainError("n must be a non-negative integer (or array thereof)")
    out = np.where(n_arr == 0, 1.0, 0.0) if mean == 0 else np.exp(log_mass(n_arr))
    return out if out.ndim else float(out)


def thermal_pmf(nbar: float, n) -> np.ndarray | float:
    """Geometric photon-number distribution [1/(1+nbar)] [nbar/(nbar+1)]^n.

    Evaluated in log space so nbar up to ~1e12 stays finite.
    """
    # log p = -log(1+nbar) + n [log nbar - log(1+nbar)]
    return _number_pmf(nbar, n, lambda k: -math.log1p(nbar)
                       + k * (math.log(nbar) - math.log1p(nbar)))


def poisson_pmf(mu: float, n) -> np.ndarray | float:
    """Poisson mass e^-mu mu^n / n!, computed in log space for large mu."""
    return _number_pmf(mu, n, lambda k: -mu + k * math.log(mu) - gammaln(k + 1.0))


@dataclass(frozen=True)
class SingleModeState:
    """A single optical mode in either a thermal or a laser mixed state."""

    kind: str                # "thermal" | "laser"
    mean_photons: float      # nbar for thermal, mu for laser

    def __post_init__(self):
        if self.kind not in ("thermal", "laser"):
            raise DomainError(f"kind must be 'thermal' or 'laser', got {self.kind!r}")
        _check_mean(self.mean_photons)

    def pmf(self, n) -> np.ndarray | float:
        if self.kind == "thermal":
            return thermal_pmf(self.mean_photons, n)
        return poisson_pmf(self.mean_photons, n)

    def truncation_bound(self) -> int:
        """Smallest n beyond which tail mass is negligible: mean + 20 stddev."""
        var = photon_number_variance(self)
        return int(math.ceil(self.mean_photons + 20.0 * math.sqrt(var) + 20.0))


def photon_number_variance(state: SingleModeState) -> float:
    """nbar^2 + nbar for thermal modes, mu for laser modes."""
    m = state.mean_photons
    return m * m + m if state.kind == "thermal" else m


def sample_coherent_amplitude(state: SingleModeState, rng: np.random.Generator, size=None):
    """Draw coherent-state amplitudes from the state's phase-space mixture.

    Thermal: alpha is complex Gaussian with independent components and
    E|alpha|^2 = nbar.  Laser: |alpha| = sqrt(mu) exactly, phase uniform
    on [0, 2 pi).
    """
    m = state.mean_photons
    if state.kind == "thermal":
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        return math.sqrt(m / 2.0) * (re + 1j * im)
    phi = rng.uniform(0.0, TWO_PI, size)
    return math.sqrt(m) * np.exp(1j * phi)


def sample_photon_count(state: SingleModeState, rng: np.random.Generator, size=None):
    """Draw photon counts from the state's number distribution."""
    m = state.mean_photons
    if state.kind == "thermal":
        # geometric on {0, 1, ...} with success prob 1/(1+nbar)
        if m == 0:
            return 0 if size is None else np.zeros(size, dtype=np.int64)
        return rng.geometric(1.0 / (1.0 + m), size) - 1
    return rng.poisson(m, size)
