"""Phonon-mediated orbital relaxation of a ground-state doublet.

Single-phonon absorption/emission between the two orbital branches and the
elastic two-phonon (Raman) channel.  The splitting is specified in ordinary
frequency (GHz) and every thermal argument uses h*delta -- the single
conversion point is :func:`thermal_exponent`.  Rates come out in MHz of
ordinary frequency by default; the ``angular`` convention multiplies every
reported rate by exactly 2*pi and changes nothing else.

Coupling strengths enter only through the products chi*rho (units
MHz/GHz^3, so that 2*pi*chi_rho*delta^3 is a rate in MHz) and
(chi*rho)^2 -> chi_rho_sq (units MHz/GHz^5); the factors are never
identifiable separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, NumericalError

RATE_CONVENTIONS = ("plain_frequency", "angular")

#: Planck and Boltzmann constants, exact in the 2019 SI (J s and J/K).
PLANCK_H = 6.62607015e-34
BOLTZMANN_K = 1.380649e-23

#: k_B/h in GHz per kelvin: thermal energy expressed as ordinary frequency.
KB_OVER_H_GHZ_PER_K = BOLTZMANN_K / PLANCK_H / 1e9


def thermal_exponent(delta_ghz: float, temperature_k: float) -> float:
    """The dimensionless ratio h*delta / (k_B * T)."""
    return delta_ghz / (KB_OVER_H_GHZ_PER_K * temperature_k)


@dataclass(frozen=True)
class OrbitalSystem:
    """Orbital doublet of the emitter ground state."""

    delta_gs_ghz: float

    def __post_init__(self):
        if not (math.isfinite(self.delta_gs_ghz) and self.delta_gs_ghz > 0):
            raise InvalidParameterError(
                f"orbital splitting must be positive, got {self.delta_gs_ghz}"
            )
        try:
            self.delta_gs_ghz**3  # the one-phonon rates scale as delta^3
        except OverflowError:
            raise InvalidParameterError(
                f"orbital splitting {self.delta_gs_ghz:g} GHz is too large: "
                "its cube overflows"
            ) from None


@dataclass(frozen=True)
class RateModel:
    """Effective phonon-coupling products and the reporting convention."""

    chi_rho: float = 0.0
    chi_rho_sq: float = 0.0
    rate_unit_convention: str = "plain_frequency"

    def __post_init__(self):
        if not (math.isfinite(self.chi_rho) and self.chi_rho >= 0):
            raise InvalidParameterError(f"chi_rho must be >= 0, got {self.chi_rho}")
        if not (math.isfinite(self.chi_rho_sq) and self.chi_rho_sq >= 0):
            raise InvalidParameterError(
                f"chi_rho_sq must be >= 0, got {self.chi_rho_sq}"
            )
        if self.rate_unit_convention not in RATE_CONVENTIONS:
            raise InvalidParameterError(
                f"unknown rate convention {self.rate_unit_convention!r}; "
                f"choose from {RATE_CONVENTIONS}"
            )

    @property
    def scale(self) -> float:
        return 2.0 * math.pi if self.rate_unit_convention == "angular" else 1.0


@dataclass(frozen=True)
class RateSet:
    """Relaxation channels at one temperature (MHz, chosen convention)."""

    temperature_k: float
    gamma_up_mhz: float
    gamma_down_mhz: float
    gamma_raman_mhz: float

    @property
    def total_mhz(self) -> float:
        """Orbital decay rate: both one-phonon directions plus the elastic
        two-phonon channel acting on either branch."""
        return self.gamma_up_mhz + self.gamma_down_mhz + 2.0 * self.gamma_raman_mhz

    @property
    def t1_ns(self) -> float:
        """Single-phonon orbital lifetime 1/(gamma_up + gamma_down)."""
        denom = self.gamma_up_mhz + self.gamma_down_mhz
        return math.inf if denom == 0 else 1e3 / denom


def _check_temperature(temperature_k: float) -> None:
    if not (math.isfinite(temperature_k) and temperature_k >= 0):
        raise InvalidParameterError(
            f"temperature must be >= 0 K, got {temperature_k}"
        )


def _check_finite(value: float, what: str, temperature_k: float) -> float:
    """``value``, or ``InvalidParameterError`` if it overflowed."""
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"temperature {temperature_k:g} K is too high: the {what} "
            "overflows"
        )
    return value


def _check_coupling(
    rate: float, what: str, coupling: str, value: float, temperature_k: float
) -> float:
    """``rate``, or ``InvalidParameterError`` naming the coupling if it
    overflowed; callers check the thermal factor first, so a finite factor
    times this coupling is what overflowed."""
    if not math.isfinite(rate):
        raise InvalidParameterError(
            f"coupling {coupling} = {value:g} is too large: the {what} "
            f"overflows at {temperature_k:g} K"
        )
    return rate


def bose_occupation(delta_ghz: float, temperature_k: float) -> float:
    """Thermal occupation of a mode at ``delta_ghz``; exactly 0 at T = 0."""
    if not (math.isfinite(delta_ghz) and delta_ghz > 0):
        raise InvalidParameterError(f"delta must be positive, got {delta_ghz}")
    _check_temperature(temperature_k)
    if temperature_k == 0:
        return 0.0
    # The exponent underflows to 0 once k_B*T/h overflows.
    x = thermal_exponent(delta_ghz, temperature_k)
    try:
        occupation = 1.0 / math.expm1(x) if x > 0 else math.inf
    except OverflowError:
        # expm1 overflows past x ~ 709.8, where 1/expm1(x) has underflowed.
        return 0.0
    return _check_finite(occupation, "thermal occupation", temperature_k)


def single_phonon_rates(
    system: OrbitalSystem, model: RateModel, temperature_k: float
) -> tuple[float, float]:
    """Absorption (up) and emission (down) rates in MHz.

    gamma_up = 2*pi*chi_rho*delta^3 * n and gamma_down the same with n + 1,
    so detailed balance gamma_down/gamma_up = exp(h*delta/k_B*T) is exact.
    """
    n = bose_occupation(system.delta_gs_ghz, temperature_k)
    base = 2.0 * math.pi * model.chi_rho * system.delta_gs_ghz**3 * model.scale
    # Emission is the larger rate, so it overflows whenever absorption does.
    down = _check_coupling(base * (n + 1.0), "one-phonon emission rate",
                           "chi_rho", model.chi_rho, temperature_k)
    return base * n, down


def raman_rate(
    system: OrbitalSystem, model: RateModel, temperature_k: float
) -> float:
    """Elastic two-phonon rate in MHz; scales exactly as T^3.

    The closed form integrates n(n+1) f^2 over all phonon frequencies
    analytically (the integral of x^2 e^x/(e^x - 1)^2 is pi^2/3).
    """
    _check_temperature(temperature_k)
    if temperature_k == 0:
        return 0.0
    theta = KB_OVER_H_GHZ_PER_K * temperature_k  # thermal frequency in GHz
    prefactor = (
        2.0 * math.pi * model.chi_rho_sq * system.delta_gs_ghz**2 * model.scale
    )
    try:
        theta_cubed = theta**3
    except OverflowError:
        theta_cubed = math.inf
    _check_finite(theta_cubed, "Raman rate", temperature_k)
    return _check_coupling(
        prefactor * (math.pi**2 / 3.0) * theta_cubed, "Raman rate",
        "chi_rho_sq", model.chi_rho_sq, temperature_k,
    )


def total_relaxation(
    system: OrbitalSystem, model: RateModel, temperature_k: float
) -> RateSet:
    """All relaxation channels evaluated at one temperature."""
    up, down = single_phonon_rates(system, model, temperature_k)
    raman = raman_rate(system, model, temperature_k)
    return RateSet(temperature_k, up, down, raman)


def crossover_temperature(system: OrbitalSystem, model: RateModel) -> float:
    """Temperature where the Raman contribution overtakes the one-phonon sum.

    Solves 2*gamma_raman(T) = gamma_up(T) + gamma_down(T) between 1 and
    100 K; independent of the unit convention since both sides scale
    identically.
    """
    # Imported here: only scripts and tests call this, and scipy.optimize
    # at module level would slow every start of the package.
    from scipy.optimize import brentq

    if model.chi_rho == 0 or model.chi_rho_sq == 0:
        raise InvalidParameterError(
            "crossover needs both one- and two-phonon couplings to be nonzero"
        )

    def imbalance(t_k: float) -> float:
        rates = total_relaxation(system, model, t_k)
        return 2.0 * rates.gamma_raman_mhz - (
            rates.gamma_up_mhz + rates.gamma_down_mhz
        )

    lo, hi = 1.0, 100.0
    f_lo, f_hi = imbalance(lo), imbalance(hi)
    if f_lo * f_hi > 0:
        raise NumericalError(
            f"no crossover inside [{lo}, {hi}] K: imbalance is "
            f"{f_lo:.3g} and {f_hi:.3g} MHz at the endpoints"
        )
    return float(brentq(imbalance, lo, hi, xtol=1e-10, rtol=1e-12))
