"""Two-pulse pump-probe simulation on a three-level emitter.

The model keeps two ground orbitals and one excited state.  A resonant pump
couples the lower orbital |1> to the excited state |e>, which decays at
Gamma_opt and branches into the shelved orbital |2> with probability beta.
The orbital bath exchanges |1> and |2> at gamma_up / gamma_down, so the
fluorescence recovery between two pump pulses measures the orbital lifetime
T1 = 1/(gamma_up + gamma_down).

A sequence is a chain of constant-drive segments, each sampled on a uniform
step with an exact one-step propagator P = exp(G step), summed as a Taylor
series to below double round-off.  The recovery ratio needs only the
means of four sample windows.  Both pulses share their step, sample count
and window offsets, and the delay changes only the dark segment between
them, so a curve builds each window's mean operator once, from powers of P
and of the block matrix [[P, I], [0, I]], and each delay adds one power of
its dark propagator.  ``simulate_sequence`` steps the same samples one by
one; it serves trace dumps and is the tests' reference.

Rates are in MHz, times in ns throughout (1 MHz = 1e-3 / ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

#: Degree of the one-step propagator's Taylor sum, and the largest
#: ||G step||_1 it accepts.  The step rule keeps ||G step||_1 at 0.2: a
#: generator's column 1-norm is twice its largest |diagonal|, and the step is
#: at most 0.1 over that.  The guard leaves room for round-off and the step
#: rule's 1e-12 count slack; at 0.25 the dropped tail, sum over k > 12 of
#: 0.25^k / k!, is below 3e-18.
TAYLOR_DEGREE = 12
TAYLOR_NORM_MAX = 0.25

#: Most samples a pulse sequence may take, t = 0 included.  The committed
#: tests, goldens and benchmark workloads reach at most about 109,000 (a
#: 4000 ns delay between 450 ns pulses at a 1500 MHz drive); past the bound
#: a sequence raises ``InvalidParameterError`` before it is sampled.
MAX_SAMPLES = 5_000_000


@dataclass(frozen=True)
class LevelSystem:
    """Rates of the three-level pump-probe model (all in MHz); the excited
    state decays at ``OPTICAL_DECAY_MHZ``."""

    omega_mhz: float = 200.0
    beta: float = 0.5
    gamma_up_mhz: float = 0.0
    gamma_down_mhz: float = 0.0

    def __post_init__(self):
        for name in ("omega_mhz", "gamma_up_mhz", "gamma_down_mhz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidParameterError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidParameterError(
                f"branching fraction must lie in [0, 1], got {self.beta}"
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


def _check_conservation(populations: np.ndarray) -> None:
    drift = float(np.abs(populations.sum(axis=-1) - 1.0).max())
    if drift > CONSERVATION_TOL:
        raise NumericalError(f"population conservation violated by {drift:.2e}")


def _propagator(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix, or of each in a stack, as its Taylor sum to
    degree ``TAYLOR_DEGREE`` in Horner form I + a(I + a/2(I + ... (I + a/12))),
    in the dtype of ``a``.

    Raises ``NumericalError`` when a 1-norm ||a||_1 exceeds
    ``TAYLOR_NORM_MAX``, where the truncated sum would no longer be exact to
    round-off.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    if not norm <= TAYLOR_NORM_MAX:
        raise NumericalError(
            f"propagator argument has 1-norm {norm:.3g}, above the "
            f"{TAYLOR_NORM_MAX:g} its degree-{TAYLOR_DEGREE} Taylor sum "
            "resolves"
        )
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    p = eye
    for j in range(TAYLOR_DEGREE, 0, -1):
        p = eye + (a @ p) / j
    return p


def _segment_steps(
    system: LevelSystem, sequence: PulseSequence
) -> list[tuple[float, int, float]]:
    """(step, step count, pump fraction) of each constant-drive segment.

    A segment splits evenly into steps no longer than 0.1 of the fastest
    rate's timescale (and 1 ns).  The propagator is the matrix exponential
    over one step (``_propagator``), so the step only sets how finely the
    fluorescence is sampled for the edge windows.  A sequence of more than
    ``MAX_SAMPLES`` samples raises ``InvalidParameterError``.
    """
    max_rate = float(np.max(np.abs(np.diag(generator(system, 1.0)))))
    dt_ns = min(1.0, 0.1 / max_rate) if max_rate > 0 else 1.0
    drives = []  # (duration, pump fraction)
    for off in (sequence.delay_ns, TAIL_NS):
        drives.append((sequence.width_ns, 1.0))
        if off > 0:
            drives.append((off, 0.0))
    # Counted in floats, where an overlong sequence reads inf, not an
    # integer overflow.
    with np.errstate(over="ignore"):
        counts = np.maximum(np.ceil(np.array(drives)[:, 0] / dt_ns - 1e-12), 1.0)
    if 1.0 + counts.sum() > MAX_SAMPLES:
        raise InvalidParameterError(
            f"the pulse sequence needs {1.0 + counts.sum():.3g} samples at its "
            f"{dt_ns:.3g} ns step, more than {MAX_SAMPLES:,}; shorten the "
            "sequence or slow its rates"
        )
    counts = counts.astype(int).tolist()
    return [(duration / count, count, fraction)
            for (duration, fraction), count in zip(drives, counts)]


def _segments(
    system: LevelSystem, sequence: PulseSequence
) -> list[tuple[float, int, np.ndarray]]:
    """(step, step count, one-step propagator) of each segment of
    ``_segment_steps``, the propagators from one batched Taylor sum."""
    segments = _segment_steps(system, sequence)
    propagators = _propagator(np.stack([
        generator(system, fraction) * step for step, _, fraction in segments
    ]))
    return [(step, count, prop)
            for (step, count, _), prop in zip(segments, propagators)]


def simulate_sequence(
    system: LevelSystem, sequence: PulseSequence
) -> FluorescenceTrace:
    """Step the rate equations sample by sample over the two-pulse sequence.

    Each constant-drive segment advances with its exact one-step propagator
    from ``_segments``, and sample j of a segment sits at the segment's
    origin plus j steps.  The stepped trace serves trace dumps and is the
    reference for the closed-form window means of ``extract_peak_ratio``.
    """
    segments = _segments(system, sequence)
    populations = np.empty((1 + sum(count for _, count, _ in segments), 3))
    populations[0] = system.thermal_populations()
    times = [np.zeros(1)]
    start, origin = 0, 0.0
    for step, count, prop in segments:
        for i in range(start, start + count):
            populations[i + 1] = prop @ populations[i]
        # From the origin, not a running sum, whose round-off grows with the
        # sample count past the windows' 1e-9 ns tolerance.
        times.append(origin + step * np.arange(1, count + 1))
        start, origin = start + count, origin + step * count
    _check_conservation(populations)
    excited = populations[:, 2]
    if excited.min() < -CONSERVATION_TOL:
        raise NumericalError(
            f"excited-state population went negative ({excited.min():.2e})"
        )
    # Only round-off below zero is left; clip it so the signal is >= 0.
    signal = OPTICAL_DECAY_MHZ * np.clip(excited, 0.0, None)
    return FluorescenceTrace(np.concatenate(times), signal, populations)


def _ratio_windows(sequence: PulseSequence, window_ns: float) -> list:
    """Leading-edge and stationary (start, stop) windows of a pulse, in ns
    from its start; both pulses take the same two."""
    if not (math.isfinite(window_ns) and window_ns > 0):
        raise InvalidParameterError(f"window must be positive, got {window_ns}")
    if sequence.width_ns < SETTLE_NS + 2 * window_ns:
        raise InvalidParameterError(
            f"pulses of {sequence.width_ns:g} ns are too short for the chosen "
            f"window: need at least {SETTLE_NS + 2 * window_ns:g} ns "
            f"({SETTLE_NS:g} ns settle plus two {window_ns:g} ns windows)"
        )
    return [(SETTLE_NS, SETTLE_NS + window_ns),
            (sequence.width_ns - window_ns, sequence.width_ns)]


def _peak_ratios(
    system: LevelSystem, taus_ns, width_ns: float, window_ns: float
) -> np.ndarray:
    """``extract_peak_ratio`` of the two-pulse sequence at each delay.

    Every delay's inputs are checked first, in delay order: the sequence,
    its windows and its sample bound.  Both pulses share one step, count
    and pair of windows; the delay changes only the dark segment between
    them.  A pulse from state q holds the samples P^j q, so the samples
    lo..lo+L-1 of a window average to M q with M = S(L) P^lo / L and
    S(L) = sum_{m<L} P^m, the top-right block of [[P, I], [0, I]]^L.  With
    s1 = P^n q0 the first pulse's end, the second pulse starts from
    q2 = D^k s1 (D the dark step's propagator, k its count), and the ratio
    is the leading-minus-stationary excited mean of M q2 over that of M q0.
    """
    darks = []  # (step, count) of each delay's dark segment
    for tau in taus_ns:
        sequence = PulseSequence(delay_ns=float(tau), width_ns=width_ns)
        windows = _ratio_windows(sequence, window_ns)
        segments = _segment_steps(system, sequence)
        darks.append(segments[1][:2] if len(segments) == 4 else (0.0, 0))
    step, count, _ = segments[0]

    pulse = _propagator(generator(system, 1.0) * step)
    eye = np.eye(3)
    block = np.block([[pulse, eye], [np.zeros((3, 3)), eye]])
    # The pulse's own sample times, j steps from its start.
    times = step * np.arange(count + 1)
    operators = []
    for start, stop in windows:
        lo = int(np.searchsorted(times, start - 1e-9, side="left"))
        size = int(np.searchsorted(times, stop + 1e-9, side="right")) - lo
        if size < 1:
            bounds = ", ".join(repr(float(t)) for t in (start, stop))
            raise ExtractionError(
                f"no samples inside the window [{bounds}] ns; the pulse is "
                f"sampled every {float(step)!r} ns")
        operators.append(np.linalg.matrix_power(block, size)[:3, 3:]
                         @ np.linalg.matrix_power(pulse, lo) / size)
    operators = np.stack(operators)

    q0 = system.thermal_populations()
    s1 = np.linalg.matrix_power(pulse, count) @ q0
    _check_conservation(s1)
    means = operators @ q0
    _check_conservation(means)
    denom = means[0, 2] - means[1, 2]
    if denom <= 0:
        raise ExtractionError(
            "first pulse shows no leading-edge transient; cannot normalize"
        )
    dark = generator(system, 0.0)
    ratios = np.empty(len(darks))
    for k, (dark_step, dark_count) in enumerate(darks):
        q2 = s1
        if dark_count:
            q2 = np.linalg.matrix_power(
                _propagator(dark * dark_step), dark_count) @ s1
            _check_conservation(q2)
        means = operators @ q2
        _check_conservation(means)
        ratios[k] = (means[0, 2] - means[1, 2]) / denom
    return ratios


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

    Each window mean averages the samples of its own pulse that
    ``simulate_sequence`` takes inside it, in closed form (``_peak_ratios``),
    so no trace is stepped.
    """
    return float(_peak_ratios(
        system, [sequence.delay_ns], sequence.width_ns, window_ns)[0])


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
    pulse width ``width_ns``, all delays sharing one set of window
    operators; the noise is Gaussian, added to the ratios.
    """
    taus = np.asarray(taus_ns, dtype=float)
    if taus.ndim != 1:
        raise InvalidParameterError(
            f"delays must be a 1-D sequence, got shape {taus.shape}")
    if taus.size == 0:
        raise InvalidParameterError("need at least one delay")
    if not (math.isfinite(noise) and noise >= 0):
        raise InvalidParameterError(f"noise level must be finite and >= 0, got {noise}")
    ratios = _peak_ratios(system, taus, width_ns, window_ns)
    if noise > 0:
        rng = np.random.default_rng(seed)
        ratios = ratios + rng.normal(0.0, noise, ratios.size)
    return taus, ratios
