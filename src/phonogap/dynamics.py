"""Two-pulse pump-probe simulation on a three-level emitter.

The model keeps two ground orbitals and one excited state.  A resonant pump
couples the lower orbital |1> to the excited state |e>, which decays at
Gamma_opt and branches into the shelved orbital |2> with probability beta.
The orbital bath exchanges |1> and |2> at gamma_up / gamma_down, so the
fluorescence recovery between two pump pulses measures the orbital lifetime
T1 = 1/(gamma_up + gamma_down).

A sequence is a chain of constant-drive segments, each sampled on a uniform
step with an exact one-step propagator P.  The recovery ratio needs only the
means of four sample windows, and on one segment the samples are P^j q, so
``extract_peak_ratio`` sums each window in closed form from one power of the
block matrix [[P, I], [0, I]].  ``simulate_sequence`` steps the same samples
one by one; it serves trace dumps and is the tests' reference.

Rates are in MHz, times in ns throughout (1 MHz = 1e-3 / ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ExtractionError, InvalidParameterError, NumericalError

#: Excited-state decay Gamma_opt, ~588 MHz (a 1.7 ns optical lifetime).
OPTICAL_DECAY_MHZ = 1.0e3 / 1.7
MHZ_PER_INV_NS = 1.0e3

PULSE_WIDTH_NS = 300.0
WINDOW_NS = 10.0
#: Dark time after the second pulse.
TAIL_NS = 300.0
#: Delay from a pulse edge to its leading-edge window (``extract_peak_ratio``).
SETTLE_NS = 5.0

CONSERVATION_TOL = 1e-9


@dataclass(frozen=True)
class LevelSystem:
    """Rates of the three-level pump-probe model (all in MHz); the excited
    state decays at ``OPTICAL_DECAY_MHZ``."""

    omega_mhz: float = 200.0
    beta: float = 0.5
    gamma_up_mhz: float = 0.0
    gamma_down_mhz: float = 0.0
    initial_populations: tuple[float, float, float] | None = None

    def __post_init__(self):
        for name in ("omega_mhz", "gamma_up_mhz", "gamma_down_mhz"):
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
    """Two square pump pulses separated by a recovery delay and followed
    by ``TAIL_NS`` of dark time."""

    delay_ns: float
    width_ns: float = PULSE_WIDTH_NS

    def __post_init__(self):
        if not (math.isfinite(self.width_ns) and self.width_ns > 0):
            raise InvalidParameterError("pulse width must be positive")
        if not (math.isfinite(self.delay_ns) and self.delay_ns >= 0):
            raise InvalidParameterError("pulse delay must be >= 0")

    def pulse_starts(self) -> tuple[float, float]:
        return 0.0, self.width_ns + self.delay_ns


@dataclass(eq=False)
class FluorescenceTrace:
    """Sampled fluorescence (proportional to Gamma_opt * p_e)."""

    times_ns: np.ndarray
    signal: np.ndarray
    populations: np.ndarray = field(repr=False)


def generator(system: LevelSystem, pump_fraction: float = 1.0) -> np.ndarray:
    """Rate matrix in 1/ns over (p1, p2, pe); columns sum to zero."""
    omega = pump_fraction * system.omega_mhz / MHZ_PER_INV_NS
    gamma = OPTICAL_DECAY_MHZ / MHZ_PER_INV_NS
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


def _initial_populations(system: LevelSystem) -> np.ndarray:
    if system.initial_populations is not None:
        return np.asarray(system.initial_populations, dtype=float)
    return system.thermal_populations()


def _check_conservation(populations: np.ndarray) -> None:
    drift = float(np.max(np.abs(np.sum(populations, axis=-1) - 1.0)))
    if drift > CONSERVATION_TOL:
        raise NumericalError(f"population conservation violated by {drift:.2e}")


def _segments(
    system: LevelSystem, sequence: PulseSequence
) -> list[tuple[float, int, np.ndarray]]:
    """(step, step count, one-step propagator) of each constant-drive segment.

    A segment splits evenly into steps no longer than 0.1 of the fastest
    rate's timescale (and 1 ns).  The propagator is the exact matrix
    exponential over one step, so the step only sets how finely the
    fluorescence is sampled for the edge windows.
    """
    max_rate = float(np.max(np.abs(np.diag(generator(system, 1.0)))))
    dt_ns = min(1.0, 0.1 / max_rate) if max_rate > 0 else 1.0
    drives = []  # (duration, pump fraction)
    for off in (sequence.delay_ns, TAIL_NS):
        drives.append((sequence.width_ns, 1.0))
        if off > 0:
            drives.append((off, 0.0))
    propagators: dict[tuple[float, float], np.ndarray] = {}
    segments = []
    for duration, fraction in drives:
        count = max(int(math.ceil(duration / dt_ns - 1e-12)), 1)
        step = duration / count
        key = (step, fraction)
        if key not in propagators:
            propagators[key] = sla.expm(generator(system, fraction) * step)
        segments.append((step, count, propagators[key]))
    return segments


def _sample_times(segments) -> np.ndarray:
    """Sample times from t = 0, accumulated step by step in sequence order."""
    steps = [np.full(count, step) for step, count, _ in segments]
    return np.cumsum(np.concatenate([[0.0], *steps]))


def simulate_sequence(
    system: LevelSystem, sequence: PulseSequence
) -> FluorescenceTrace:
    """Step the rate equations sample by sample over the two-pulse sequence.

    Each constant-drive segment advances with its cached exact one-step
    propagator.  The stepped trace serves trace dumps and is the reference
    for the closed-form window sums of ``extract_peak_ratio``.
    """
    segments = _segments(system, sequence)
    pops = [_initial_populations(system)]
    for _, count, prop in segments:
        p = pops[-1]
        for _ in range(count):
            p = prop @ p
            pops.append(p)
    populations = np.stack(pops)
    _check_conservation(populations)
    excited = populations[:, 2]
    if excited.min() < -CONSERVATION_TOL:
        raise NumericalError(
            f"excited-state population went negative ({excited.min():.2e})"
        )
    # Only round-off below zero is left; clip it so the signal is >= 0.
    signal = OPTICAL_DECAY_MHZ * np.clip(excited, 0.0, None)
    return FluorescenceTrace(_sample_times(segments), signal, populations)


def _window_populations(
    system: LevelSystem, sequence: PulseSequence, windows
) -> np.ndarray:
    """Mean populations over the samples of each (start, stop) window.

    The samples are those of ``simulate_sequence`` that lie within 1e-9 ns
    of the window.  Segment s holds P^j q_s for j = 1..n_s after its start
    state q_s, and the first segment also holds the t = 0 sample (j = 0).
    Samples j0..j0+L-1 of a segment sum to S(L) P^j0 q_s, where
    S(L) = sum_{m<L} P^m is the upper-right block of [[P, I], [0, I]]^L.
    """
    segments = _segments(system, sequence)
    times = _sample_times(segments)
    states = [_initial_populations(system)]
    for _, count, prop in segments:
        states.append(np.linalg.matrix_power(prop, count) @ states[-1])
    _check_conservation(np.stack(states))

    eye, zero = np.eye(3), np.zeros((3, 3))
    means = []
    for start, stop in windows:
        first = int(np.searchsorted(times, start - 1e-9, side="left"))
        last = int(np.searchsorted(times, stop + 1e-9, side="right")) - 1
        if last < first:
            raise ExtractionError(
                f"no samples inside the window [{start:.1f}, {stop:.1f}] ns"
            )
        total = np.zeros(3)
        origin = 0  # index of the sample each segment starts from
        for (_, count, prop), state in zip(segments, states):
            lo = max(first, origin + 1 if origin else 0)
            hi = min(last, origin + count)
            if lo <= hi:
                block = np.block([[prop, eye], [zero, eye]])
                partial = np.linalg.matrix_power(block, hi - lo + 1)[:3, 3:]
                total += partial @ (
                    np.linalg.matrix_power(prop, lo - origin) @ state
                )
            origin += count
        means.append(total / (last - first + 1))
    means = np.stack(means)
    _check_conservation(means)
    return means


def extract_peak_ratio(
    system: LevelSystem, sequence: PulseSequence, window_ns: float = WINDOW_NS
) -> float:
    """Baseline-subtracted ratio of the two leading-edge fluorescence peaks.

    For each pulse the leading-edge window and a late stationary window are
    averaged; the ratio (peak2 - stat2) / (peak1 - stat1) isolates the
    recovered population and maps to 1 - exp(-delay/T1).

    The leading window opens ``SETTLE_NS`` after the pulse edge (a few
    optical lifetimes) so the turn-on rise, which is not proportional to
    the recovered population, has settled; the slower in-pulse decay then
    cancels between the two pulses.  The window then sees the populations
    after the pump has acted for ``SETTLE_NS``, not the recovered population
    at the edge, so the 5 ns settle window sets a bias: noiseless ratios at
    T1 = 34 ns sit up to 0.014 off 1 - exp(-delay/T1), and their fit returns
    T1 = 34.67 ns (+2%).  With no settle time the rise makes it 37.8 ns.

    Each window mean averages the samples that ``simulate_sequence`` takes
    inside it, summed in closed form per segment, so no trace is stepped.
    """
    if not (math.isfinite(window_ns) and window_ns > 0):
        raise InvalidParameterError(f"window must be positive, got {window_ns}")
    if sequence.width_ns < SETTLE_NS + 2 * window_ns:
        raise InvalidParameterError(
            f"pulses of {sequence.width_ns:g} ns are too short for the chosen "
            f"window: need at least {SETTLE_NS + 2 * window_ns:g} ns "
            f"({SETTLE_NS:g} ns settle plus two {window_ns:g} ns windows)"
        )
    windows = []
    for start in sequence.pulse_starts():
        stop = start + sequence.width_ns
        windows.append((start + SETTLE_NS, start + SETTLE_NS + window_ns))
        windows.append((stop - window_ns, stop))
    means = _window_populations(system, sequence, windows)
    peak1, stat1, peak2, stat2 = OPTICAL_DECAY_MHZ * means[:, 2]
    denom = peak1 - stat1
    if denom <= 0:
        raise ExtractionError(
            "first pulse shows no leading-edge transient; cannot normalize"
        )
    return float((peak2 - stat2) / denom)


def thermalization_curve(
    system: LevelSystem,
    taus_ns,
    width_ns: float = PULSE_WIDTH_NS,
    window_ns: float = WINDOW_NS,
    noise: float = 0.0,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Recovery ratio versus pump-probe delay, with optional shot noise.

    Each delay's ratio is ``extract_peak_ratio`` on a two-pulse sequence of
    pulse width ``width_ns``; the noise is Gaussian, added to the ratios.
    """
    taus = np.asarray(taus_ns, dtype=float)
    if taus.size == 0:
        raise InvalidParameterError("need at least one delay")
    if not (math.isfinite(noise) and noise >= 0):
        raise InvalidParameterError(f"noise level must be finite and >= 0, got {noise}")
    ratios = np.empty(taus.size)
    for i, tau in enumerate(taus):
        sequence = PulseSequence(delay_ns=float(tau), width_ns=width_ns)
        ratios[i] = extract_peak_ratio(system, sequence, window_ns)
    if noise > 0:
        rng = np.random.default_rng(seed)
        ratios = ratios + rng.normal(0.0, noise, ratios.size)
    return taus, ratios
