"""Weighted power-law fits of temperature-dependent relaxation rates.

Competing models A + B*T^p (p in {1, 3, 5, 7}) are fitted by closed-form
weighted linear least squares and ranked by weighted residual sum of
squares.  Weights are 1/sigma^2 from the per-point uncertainties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InvalidParameterError

SUPPORTED_EXPONENTS = (1, 3, 5, 7)


@dataclass(frozen=True)
class RateSeries:
    """Relaxation rates vs temperature with one uncertainty per point.

    Points are sorted by temperature on construction, so fits do not depend
    on input order; duplicate temperatures are rejected.
    """

    temperatures_k: np.ndarray
    rates_mhz: np.ndarray
    sigmas_mhz: np.ndarray

    def __init__(self, temperatures_k, rates_mhz, sigmas_mhz):
        temps = np.asarray(temperatures_k, dtype=float)
        rates = np.asarray(rates_mhz, dtype=float)
        sigmas = np.asarray(sigmas_mhz, dtype=float)
        if not (temps.shape == rates.shape == sigmas.shape) or temps.ndim != 1:
            raise InvalidParameterError(
                "temperatures, rates, and uncertainties must be 1-D arrays "
                "of equal length"
            )
        if temps.size < 3:
            raise InvalidParameterError(
                f"need at least 3 points, got {temps.size}"
            )
        if np.any(sigmas <= 0) or not np.all(np.isfinite(sigmas)):
            raise InvalidParameterError("uncertainties must be positive")
        if not np.all(np.isfinite(temps)) or not np.all(np.isfinite(rates)):
            raise InvalidParameterError("temperatures and rates must be finite")
        if np.any(temps < 0):
            raise InvalidParameterError(
                f"temperatures must be >= 0 K, got {temps.min()}"
            )
        order = np.argsort(temps, kind="stable")
        temps, rates, sigmas = temps[order], rates[order], sigmas[order]
        if np.any(np.diff(temps) <= 0):
            raise InvalidParameterError(
                "temperatures must be distinct (strictly increasing after sort)"
            )
        object.__setattr__(self, "temperatures_k", temps)
        object.__setattr__(self, "rates_mhz", rates)
        object.__setattr__(self, "sigmas_mhz", sigmas)

    def __len__(self) -> int:
        return self.temperatures_k.size

    def restrict(self, t_max_k: float) -> "RateSeries":
        """Keep only points at or below ``t_max_k`` (e.g. a linear regime)."""
        mask = self.temperatures_k <= t_max_k
        if mask.sum() < 3:
            raise InvalidParameterError(
                f"fewer than 3 points at or below {t_max_k} K"
            )
        return RateSeries(
            self.temperatures_k[mask],
            self.rates_mhz[mask],
            self.sigmas_mhz[mask],
        )


@dataclass(frozen=True)
class FitResult:
    """A weighted fit of rate = A + B * T^exponent.

    A is in MHz, B in MHz/K^exponent.  Standard errors come from the
    inverse weighted normal matrix (uncertainties taken as absolute).
    A negative offset A is allowed but flagged as unphysical.
    """

    exponent: int
    a_mhz: float
    b_mhz: float
    a_err_mhz: float
    b_err_mhz: float
    wrss: float
    dof: int

    def __post_init__(self):
        if self.a_err_mhz < 0 or self.b_err_mhz < 0:
            raise InvalidParameterError("standard errors must be >= 0")

    @property
    def unphysical(self) -> bool:
        return self.a_mhz < 0

    def predict(self, temperature_k) -> np.ndarray | float:
        t = np.asarray(temperature_k, dtype=float)
        out = self.a_mhz + self.b_mhz * t**self.exponent
        return float(out) if out.ndim == 0 else out


def fit_power_model(data: RateSeries, exponent: int) -> FitResult:
    """Closed-form weighted least squares in the basis {1, T^exponent}."""
    if exponent not in SUPPORTED_EXPONENTS:
        raise InvalidParameterError(
            f"exponent must be one of {SUPPORTED_EXPONENTS}, got {exponent}"
        )
    temps = data.temperatures_k
    weights = 1.0 / data.sigmas_mhz**2
    design = np.stack([np.ones_like(temps), temps ** float(exponent)], axis=1)
    normal = design.T @ (weights[:, None] * design)
    moment = design.T @ (weights * data.rates_mhz)
    # Equilibrate before judging conditioning: the T^p column dwarfs the
    # constant column for large p, which is a scaling artifact, not rank
    # deficiency.
    scale = np.sqrt(np.diag(normal))
    if not np.all(np.isfinite(normal)) or np.any(scale == 0):
        raise FitError(f"degenerate design for exponent {exponent}")
    balanced = normal / np.outer(scale, scale)
    if np.linalg.cond(balanced) > 1e12:
        raise FitError(
            f"rank-deficient design for exponent {exponent}; temperatures "
            "do not constrain both parameters"
        )
    params = np.linalg.solve(balanced, moment / scale) / scale
    cov = np.linalg.inv(balanced) / np.outer(scale, scale)
    resid = (data.rates_mhz - design @ params) / data.sigmas_mhz
    return FitResult(
        exponent=exponent,
        a_mhz=float(params[0]),
        b_mhz=float(params[1]),
        a_err_mhz=float(math.sqrt(max(cov[0, 0], 0.0))),
        b_err_mhz=float(math.sqrt(max(cov[1, 1], 0.0))),
        wrss=float(resid @ resid),
        dof=len(data) - 2,
    )


def select_model(data: RateSeries, exponents=SUPPORTED_EXPONENTS):
    """Fit every candidate exponent and rank by weighted residual sum."""
    exponents = tuple(exponents)
    if not exponents:
        raise InvalidParameterError("need at least one candidate exponent")
    if len(set(exponents)) < len(exponents):
        raise InvalidParameterError(
            f"candidate exponents must be distinct, got {exponents}"
        )
    fits = [fit_power_model(data, p) for p in exponents]
    return sorted(fits, key=lambda fit: fit.wrss)


@dataclass(frozen=True)
class CrossingReport:
    """Rates of two fitted models evaluated at their own temperatures."""

    bulk_rate_mhz: float
    pnc_rate_mhz: float
    t_ref_k: float
    t_elevated_k: float

    @property
    def ratio(self) -> float:
        return self.pnc_rate_mhz / self.bulk_rate_mhz


def crossing_report(
    bulk_fit: FitResult,
    pnc_fit: FitResult,
    t_ref_k: float,
    t_elevated_k: float,
) -> CrossingReport:
    """Compare the structured sample at an elevated temperature against the
    unstructured reference at its own (lower) operating temperature."""
    if t_ref_k <= 0 or t_elevated_k <= 0:
        raise InvalidParameterError("temperatures must be positive")
    return CrossingReport(
        bulk_rate_mhz=float(bulk_fit.predict(t_ref_k)),
        pnc_rate_mhz=float(pnc_fit.predict(t_elevated_k)),
        t_ref_k=t_ref_k,
        t_elevated_k=t_elevated_k,
    )
