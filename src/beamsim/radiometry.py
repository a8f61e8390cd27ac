"""Closed-form radiometry for thermal sources and collimated/filtered beams.

All quantities are SI.  Temperatures produced by the inverse relations
(``temperature_for_collimated_power``, ``temperature_for_filtered_power``)
are the equivalent blackbody temperatures a filament would need to deliver
the requested beam power after collimation, respectively after collimation
plus Lorentzian spectral filtering.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError


# CODATA 2018 values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K
C = 299792458.0         # m / s
# Dimensionless root locating the peak of the spectral power distribution
# (Wien displacement), x ~ 4.965.
WIEN_X = 4.965
# pi^2 k_B^4 / (60 c^2 hbar^3), W m^-2 K^-4.
STEFAN_BOLTZMANN_SIGMA = math.pi**2 * K_B**4 / (60.0 * C**2 * HBAR**3)
# Displacement constant 2 pi hbar c / (x k_B), m K.
WIEN_B = 2.0 * math.pi * HBAR * C / (WIEN_X * K_B)


def _require_positive(**kwargs) -> None:
    for name, v in kwargs.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise DomainError(f"{name} must be a finite positive number, got {v!r}")


def mean_occupation(omega: float, T: float) -> float:
    """Planck mean photon number 1/(exp(hbar omega / k_B T) - 1)."""
    _require_positive(omega=omega, T=T)
    x = HBAR * omega / (K_B * T)
    # expm1 keeps the Rayleigh-Jeans limit accurate for x -> 0.
    return 1.0 / math.expm1(x)


def radiated_power(A: float, T: float) -> float:
    """Total radiated power of a blackbody of area A at temperature T (Stefan-Boltzmann)."""
    _require_positive(A=A, T=T)
    return STEFAN_BOLTZMANN_SIGMA * A * T**4


def wien_peak(T: float) -> float:
    """Wavelength of maximum spectral power, lambda_max = 2 pi hbar c / (x k_B T)."""
    _require_positive(T=T)
    return WIEN_B / T


def filament_area(P: float, lambda_max: float) -> float:
    """Radiating area implied by total power and peak wavelength, A = 2.37 P lambda_max^4 / (c^2 hbar)."""
    _require_positive(P=P, lambda_max=lambda_max)
    return 2.37 * P * lambda_max**4 / (C**2 * HBAR)


def collimated_power(T: float) -> float:
    """Power in an ideally collimated, polarized single-transverse-mode thermal beam,
    (pi/12) (k_B T)^2 / hbar."""
    _require_positive(T=T)
    return (math.pi / 12.0) * (K_B * T) ** 2 / HBAR


def temperature_for_collimated_power(P: float) -> float:
    """Source temperature whose collimated beam carries power P (inverse of collimated_power)."""
    _require_positive(P=P)
    return math.sqrt(12.0 * HBAR * P / math.pi) / K_B


def filtered_power(nu: float, omega0: float, Gamma: float) -> float:
    """Power surviving a Lorentzian filter of FWHM Gamma on a beam with nu photons
    per coherence time: nu hbar omega0 Gamma / 4.  Valid for Gamma << omega0."""
    if not (isinstance(nu, (int, float)) and math.isfinite(nu) and nu >= 0):
        raise DomainError(f"nu must be finite and non-negative, got {nu!r}")
    _require_positive(omega0=omega0, Gamma=Gamma)
    if Gamma > omega0 / 100.0:
        warnings.warn(
            f"filtered_power assumes Gamma << omega0; got Gamma/omega0 = {Gamma / omega0:.3g}",
            stacklevel=2,
        )
    return nu * HBAR * omega0 * Gamma / 4.0


def temperature_for_filtered_power(P: float, Gamma: float) -> float:
    """High-temperature-limit source temperature for a filtered beam of power P:
    T'' = 4 P / (k_B Gamma)."""
    _require_positive(P=P, Gamma=Gamma)
    return 4.0 * P / (K_B * Gamma)


def photons_per_coherence_time(P: float, lambda0: float, Gamma: float) -> float:
    """Dimensionless beam brightness nu = 4 P / (hbar omega0 Gamma)."""
    _require_positive(P=P, lambda0=lambda0, Gamma=Gamma)
    omega0 = 2.0 * math.pi * C / lambda0
    return 4.0 * P / (HBAR * omega0 * Gamma)


@dataclass(frozen=True)
class CollimationEfficiency:
    """Fraction of the radiated power that survives ideal collimation."""

    approximate: float      # lambda'_max^2 / A
    exact: float            # P_coll / P_total at the same T'
    temperature: float      # T', K
    lambda_max: float       # Wien peak at T', m


def collimation_efficiency(P: float, A: float) -> CollimationEfficiency:
    """Collimation efficiency for a beam of power P from a filament of area A.

    The simple ratio lambda'_max^2 / A approximates the exact power ratio
    remarkably well (a numerical coincidence); both are returned.
    """
    _require_positive(P=P, A=A)
    T_prime = temperature_for_collimated_power(P)
    lam = wien_peak(T_prime)
    approx = lam**2 / A
    exact = collimated_power(T_prime) / radiated_power(A, T_prime)
    return CollimationEfficiency(approximate=approx, exact=exact, temperature=T_prime, lambda_max=lam)


@dataclass(frozen=True)
class FilteringEfficiency:
    """Order-of-magnitude breakdown of the collimation+filtering power efficiency.

    total is the efficiency evaluated via the equivalent temperature T''
    (peak-wavelength ratio times linewidth ratio at T'').  product is the
    equivalent rewrite in terms of the laser's own carrier, geometric *
    spectral * brightness; the two differ by exactly wien_x**3 because the
    rewrite drops the Wien factor relating omega_max'' to nu * omega0.
    """

    total: float        # (lambda''_max^2 / A) * (Gamma / omega''_max)
    geometric: float    # lambda0^2 / A
    spectral: float     # Gamma / omega0
    brightness: float   # nu^-3
    nu: float
    product: float      # geometric * spectral * brightness
    temperature: float  # T'', K

    @property
    def log10_total(self) -> float:
        return math.log10(self.total)

    @property
    def log10_product(self) -> float:
        return math.log10(self.product)


def filtering_efficiency(P: float, A: float, Gamma: float,
                         lambda0: float) -> FilteringEfficiency:
    """Fraction of radiated power surviving collimation plus a Gamma-wide Lorentzian
    filter, with its geometric / spectral / brightness factor breakdown.

    All returned values are order-of-magnitude quantities (order-unity
    factors deliberately dropped).
    """
    _require_positive(P=P, A=A, Gamma=Gamma, lambda0=lambda0)
    omega0 = 2.0 * math.pi * C / lambda0
    nu = photons_per_coherence_time(P, lambda0, Gamma)
    T_pp = temperature_for_filtered_power(P, Gamma)
    lam_pp = wien_peak(T_pp)
    omega_pp = 2.0 * math.pi * C / lam_pp
    total = (lam_pp**2 / A) * (Gamma / omega_pp)
    geometric = lambda0**2 / A
    spectral = Gamma / omega0
    brightness = nu**-3
    return FilteringEfficiency(
        total=total,
        geometric=geometric,
        spectral=spectral,
        brightness=brightness,
        nu=nu,
        product=geometric * spectral * brightness,
        temperature=T_pp,
    )
