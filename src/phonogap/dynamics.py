"""Two-pulse pump-probe simulation on a three-level emitter.

The model keeps two ground orbitals and one excited state.  A resonant pump
couples the lower orbital |1> to the excited state |e>, which decays at
Gamma_opt and branches into the shelved orbital |2> with probability beta.
The orbital bath exchanges |1> and |2> at gamma_up / gamma_down, so the
fluorescence recovery between two pump pulses measures the orbital lifetime
T1 = 1/(gamma_up + gamma_down).

Rates are in MHz, times in ns throughout (1 MHz = 1e-3 / ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConfigError,
    ExtractionError,
    InvalidParameterError,
    NumericalError,
)

DEFAULT_OPTICAL_DECAY_MHZ = 1.0e3 / 1.7  # ~588 MHz, a typical excited-state decay
MHZ_PER_INV_NS = 1.0e3

CONSERVATION_TOL = 1e-9


@dataclass(frozen=True)
class LevelSystem:
    """Rates of the three-level pump-probe model (all in MHz)."""

    omega_mhz: float = 200.0
    gamma_opt_mhz: float = DEFAULT_OPTICAL_DECAY_MHZ
    beta: float = 0.5
    gamma_up_mhz: float = 0.0
    gamma_down_mhz: float = 0.0
    initial_populations: tuple[float, float, float] | None = None

    def __post_init__(self):
        for name in ("omega_mhz", "gamma_opt_mhz", "gamma_up_mhz", "gamma_down_mhz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidParameterError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidParameterError(
                f"branching fraction must lie in [0, 1], got {self.beta}"
            )
        if self.initial_populations is not None:
            p = np.asarray(self.initial_populations, dtype=float)
            if p.shape != (3,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
                raise InvalidParameterError(
                    "initial populations must be 3 non-negative values summing to 1"
                )

    @property
    def t1_ns(self) -> float:
        total = self.gamma_up_mhz + self.gamma_down_mhz
        return math.inf if total == 0 else MHZ_PER_INV_NS / total

    def thermal_populations(self) -> np.ndarray:
        """Pump-off steady state: orbital equilibrium, empty excited state."""
        total = self.gamma_up_mhz + self.gamma_down_mhz
        if total == 0:
            return np.array([0.5, 0.5, 0.0])
        return np.array(
            [self.gamma_down_mhz / total, self.gamma_up_mhz / total, 0.0]
        )


@dataclass(frozen=True)
class PulseSequence:
    """Two square pump pulses separated by a recovery delay."""

    delay_ns: float
    width_ns: float = 300.0
    gap_ns: float = 300.0
    ramp_ns: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.width_ns) and self.width_ns > 0):
            raise InvalidParameterError("pulse width must be positive")
        if not (math.isfinite(self.delay_ns) and self.delay_ns >= 0):
            raise InvalidParameterError("pulse delay must be >= 0")
        if self.gap_ns < 0 or self.ramp_ns < 0:
            raise InvalidParameterError("gap and ramp must be >= 0")
        if self.ramp_ns >= self.width_ns:
            raise InvalidParameterError("ramp cannot exceed the pulse width")

    def pulse_starts(self) -> tuple[float, float]:
        return 0.0, self.width_ns + self.delay_ns


@dataclass(eq=False)
class FluorescenceTrace:
    """Sampled fluorescence (proportional to Gamma_opt * p_e)."""

    times_ns: np.ndarray
    signal: np.ndarray
    populations: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.any(self.signal < 0):
            raise NumericalError("fluorescence signal went negative")


def generator(system: LevelSystem, pump_fraction: float = 1.0) -> np.ndarray:
    """Rate matrix in 1/ns over (p1, p2, pe); columns sum to zero."""
    omega = pump_fraction * system.omega_mhz / MHZ_PER_INV_NS
    gamma = system.gamma_opt_mhz / MHZ_PER_INV_NS
    up = system.gamma_up_mhz / MHZ_PER_INV_NS
    down = system.gamma_down_mhz / MHZ_PER_INV_NS
    beta = system.beta
    return np.array(
        [
            [-omega - up, down, omega + (1.0 - beta) * gamma],
            [up, -down, beta * gamma],
            [omega, 0.0, -omega - gamma],
        ]
    )


def evolve_populations(
    system: LevelSystem,
    populations,
    duration_ns: float,
    pump_fraction: float = 0.0,
) -> np.ndarray:
    """Propagate populations exactly over one constant-drive interval."""
    p = np.asarray(populations, dtype=float)
    return sla.expm(generator(system, pump_fraction) * duration_ns) @ p


def _max_rate_per_ns(system: LevelSystem) -> float:
    return float(np.max(np.abs(np.diag(generator(system, 1.0)))))


def simulate_sequence(
    system: LevelSystem,
    sequence: PulseSequence,
    dt_ns: float | None = None,
) -> FluorescenceTrace:
    """Integrate the rate equations piecewise over the two-pulse sequence.

    Each constant-drive segment advances with a cached matrix exponential, so
    the stepping is exact for any step size; the step bound (0.1 of the
    fastest rate's timescale) keeps the *sampled* trace fine enough for
    edge-window extraction.
    """
    max_rate = _max_rate_per_ns(system)
    if dt_ns is None:
        dt_ns = min(1.0, 0.1 / max_rate) if max_rate > 0 else 1.0
    if dt_ns <= 0:
        raise ConfigError("time step must be positive")
    if max_rate > 0 and dt_ns > 0.1 / max_rate:
        raise ConfigError(
            f"time step {dt_ns} ns does not resolve the fastest rate; "
            f"need dt <= {0.1 / max_rate:.4g} ns"
        )

    segments: list[tuple[float, float]] = []  # (duration, pump fraction)
    for pulse in range(2):
        if sequence.ramp_ns > 0:
            n_ramp = max(int(math.ceil(sequence.ramp_ns / dt_ns)), 4)
            ramp_step = sequence.ramp_ns / n_ramp
            for j in range(n_ramp):
                segments.append((ramp_step, (j + 0.5) / n_ramp))
            segments.append((sequence.width_ns - sequence.ramp_ns, 1.0))
        else:
            segments.append((sequence.width_ns, 1.0))
        off = sequence.delay_ns if pulse == 0 else sequence.gap_ns
        if off > 0:
            segments.append((off, 0.0))

    propagators: dict[tuple[float, float], np.ndarray] = {}
    times = [0.0]
    pops = [
        np.asarray(system.initial_populations, dtype=float)
        if system.initial_populations is not None
        else system.thermal_populations()
    ]
    fractions = [0.0]
    now = 0.0
    for duration, fraction in segments:
        n_steps = max(int(math.ceil(duration / dt_ns - 1e-12)), 1)
        step = duration / n_steps
        key = (step, fraction)
        if key not in propagators:
            propagators[key] = sla.expm(generator(system, fraction) * step)
        prop = propagators[key]
        p = pops[-1]
        for _ in range(n_steps):
            p = prop @ p
            now += step
            times.append(now)
            pops.append(p)
            fractions.append(fraction)

    populations = np.stack(pops)
    drift = np.abs(populations.sum(axis=1) - 1.0)
    if np.max(drift) > CONSERVATION_TOL:
        raise NumericalError(
            f"population conservation violated by {np.max(drift):.2e}"
        )
    signal = system.gamma_opt_mhz * np.clip(populations[:, 2], 0.0, None)
    return FluorescenceTrace(np.asarray(times), signal, populations)


def _window_mean(trace: FluorescenceTrace, start: float, stop: float) -> float:
    mask = (trace.times_ns >= start - 1e-9) & (trace.times_ns <= stop + 1e-9)
    if not mask.any():
        raise ExtractionError(
            f"no samples inside the window [{start:.1f}, {stop:.1f}] ns"
        )
    return float(trace.signal[mask].mean())


def _detect_pulses(trace: FluorescenceTrace) -> tuple[tuple[float, float], ...]:
    """Hysteresis edge detection: pulses rise through 50% of the signal
    range and are considered over once the signal falls to the dark level
    (2% of range), which survives the in-pulse decay toward the low
    stationary fluorescence."""
    signal = trace.signal
    lo, hi = float(signal.min()), float(signal.max())
    if hi <= lo:
        raise ExtractionError("flat trace; no pulses to detect")
    high = lo + 0.5 * (hi - lo)
    low = lo + 0.02 * (hi - lo)
    bounds = []
    inside = False
    start = 0
    for i, value in enumerate(signal):
        if not inside and value > high:
            inside = True
            start = i
        elif inside and value < low:
            inside = False
            bounds.append((start, i))
    if inside:
        bounds.append((start, signal.size - 1))
    if len(bounds) != 2:
        raise ExtractionError(
            f"expected 2 pulses, detected {len(bounds)}"
        )
    t = trace.times_ns
    return tuple((float(t[a]), float(t[b])) for a, b in bounds)


def extract_peak_ratio(
    trace: FluorescenceTrace,
    window_ns: float = 10.0,
    sequence: PulseSequence | None = None,
    settle_ns: float = 5.0,
) -> float:
    """Baseline-subtracted ratio of the two leading-edge fluorescence peaks.

    For each pulse the leading-edge window and a late stationary window are
    averaged; the ratio (peak2 - stat2) / (peak1 - stat1) isolates the
    recovered population and maps to 1 - exp(-delay/T1).

    The leading window opens ``settle_ns`` after the pulse edge (a few
    optical lifetimes) so the turn-on rise, which is not proportional to
    the recovered population, has settled; the slower in-pulse decay then
    cancels between the two pulses.
    """
    if window_ns <= 0 or settle_ns < 0:
        raise InvalidParameterError("window must be positive and settle >= 0")
    if sequence is not None:
        width = sequence.width_ns
        bounds = [
            (start, start + width) for start in sequence.pulse_starts()
        ]
        trailing_guard = 0.0
    else:
        bounds = list(_detect_pulses(trace))
        # A detected pulse end sits a few ns into the dark decay; back the
        # stationary window off by one window width to stay inside the pulse.
        trailing_guard = window_ns
    if any(
        stop - start < settle_ns + 2 * window_ns + trailing_guard
        for start, stop in bounds
    ):
        raise ExtractionError("pulses are too short for the chosen window")
    levels = []
    for start, stop in bounds:
        peak = _window_mean(
            trace, start + settle_ns, start + settle_ns + window_ns
        )
        stationary = _window_mean(
            trace, stop - trailing_guard - window_ns, stop - trailing_guard
        )
        levels.append((peak, stationary))
    (peak1, stat1), (peak2, stat2) = levels
    denom = peak1 - stat1
    if denom <= 0:
        raise ExtractionError(
            "first pulse shows no leading-edge transient; cannot normalize"
        )
    return (peak2 - stat2) / denom


def thermalization_curve(
    system: LevelSystem,
    taus_ns,
    width_ns: float = 300.0,
    window_ns: float = 10.0,
    noise: float = 0.0,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Recovery ratio versus pump-probe delay, with optional shot noise."""
    taus = np.asarray(taus_ns, dtype=float)
    if taus.size == 0:
        raise InvalidParameterError("need at least one delay")
    if noise < 0:
        raise InvalidParameterError("noise level must be >= 0")
    ratios = np.empty(taus.size)
    for i, tau in enumerate(taus):
        sequence = PulseSequence(delay_ns=float(tau), width_ns=width_ns)
        trace = simulate_sequence(system, sequence)
        ratios[i] = extract_peak_ratio(trace, window_ns, sequence)
    if noise > 0:
        rng = np.random.default_rng(seed)
        ratios = ratios + rng.normal(0.0, noise, ratios.size)
    return taus, ratios
