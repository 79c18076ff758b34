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
means of four sample windows, and on one segment the samples are P^j q, so
each window sums in closed form from powers of the block matrix
[[P, I], [0, I]].  ``thermalization_curve`` sums the windows of all its
delays in one batch: one Taylor sum for every segment, one binary powering
for every start state, window offset and window sum.  ``extract_peak_ratio``
is the same batch of one delay.  ``simulate_sequence`` steps the same
samples one by one; it serves trace dumps and is the tests' reference.

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
#: tests, goldens and benchmark workloads reach at most 46,508; past the
#: bound a sequence raises ``InvalidParameterError`` before it is sampled.
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
    drift = float(np.max(np.abs(np.sum(populations, axis=-1) - 1.0)))
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
    populations = np.empty((1 + sum(count for _, count, _ in segments), 3))
    populations[0] = system.thermal_populations()
    start = 0
    for _, count, prop in segments:
        for i in range(start, start + count):
            populations[i + 1] = prop @ populations[i]
        start += count
    _check_conservation(populations)
    excited = populations[:, 2]
    if excited.min() < -CONSERVATION_TOL:
        raise NumericalError(
            f"excited-state population went negative ({excited.min():.2e})"
        )
    # Only round-off below zero is left; clip it so the signal is >= 0.
    signal = OPTICAL_DECAY_MHZ * np.clip(excited, 0.0, None)
    return FluorescenceTrace(_sample_times(segments), signal, populations)


def _power_sums(
    props: np.ndarray, which: np.ndarray, exponents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P^n and S(n) = sum_{m<n} P^m for each P = props[which[k]] and
    n = exponents[k] >= 0.

    Both are blocks of B^n = [[P^n, S(n)], [0, I]] for B = [[P, I], [0, I]],
    raised by one binary powering of the whole stack: each round multiplies
    the powers whose exponent has the round's bit set by their B^(2^bit), in
    increasing bit order as ``np.linalg.matrix_power`` does, then squares
    every B.
    """
    size = props.shape[-1]
    base = np.zeros((len(props), 2 * size, 2 * size))
    base[:, :size, :size] = props
    base[:, :size, size:] = base[:, size:, size:] = np.eye(size)
    power = np.tile(np.eye(2 * size), (len(which), 1, 1))
    exponents = np.asarray(exponents)
    while True:
        odd = np.flatnonzero(exponents & 1)
        power[odd] = power[odd] @ base[which[odd]]
        exponents = exponents >> 1
        if not exponents.any():
            return power[:, :size, :size], power[:, :size, size:]
        base = base @ base


def _window_means(system: LevelSystem, jobs) -> list:
    """Mean populations over sample windows of a batch of sequences.

    Each job is a (sequence, windows) pair, a window a (start, stop) in ns,
    or an exception, which passes through.  A window keeps the samples of
    ``simulate_sequence`` within 1e-9 ns of it, found on the sequence's own
    sample times; each sequence's times are built and dropped in turn.
    Segment s holds P^j q_s for j = 1..n_s after its start state q_s, and the
    first segment also holds the t = 0 sample (j = 0).  Samples j0..j0+L-1 of
    a segment sum to S(L) P^j0 q_s, so every start state, window offset and
    window sum of the batch comes from one ``_propagator`` call and one
    ``_power_sums`` call.

    Returns, in job order, each sequence's (n_windows, 3) means, or the
    exception of the first check it fails, in the order: sample bound,
    Taylor bound, conservation of the segment start states, an empty window
    (``ExtractionError``), conservation of the window means.
    """
    results = [job if isinstance(job, Exception) else None for job in jobs]
    rows = []  # (job index, segment steps, windows, first and last samples)
    for i, job in enumerate(jobs):
        if results[i] is not None:
            continue
        sequence, windows = job
        try:
            segments = _segment_steps(system, sequence)
        except InvalidParameterError as error:
            results[i] = error
            continue
        times = _sample_times(segments)
        spans = np.asarray(windows, dtype=float).reshape(-1, 2)
        first = np.searchsorted(times, spans[:, 0] - 1e-9, side="left")
        last = np.searchsorted(times, spans[:, 1] + 1e-9, side="right") - 1
        rows.append((i, segments, spans, first, last))
    if not rows:
        return results

    def fail(row: int, error: Exception) -> None:
        # A sequence keeps the first check it fails.
        i = rows[row][0]
        if results[i] is None:
            results[i] = error

    def check(row: int, guard, *args) -> None:
        # A row the batch flags meets the single-sequence check itself.
        try:
            guard(*args)
        except NumericalError as error:
            fail(row, error)

    # Segments padded to the batch's longest sequence with empty ones: no
    # samples, identity propagator.
    n_seg = max(len(segments) for _, segments, *_ in rows)
    table = np.array([segments + [(0.0, 0, 0.0)] * (n_seg - len(segments))
                      for _, segments, *_ in rows])
    steps, counts = table[..., 0], table[..., 1].astype(int)
    drives = {f: generator(system, f) for f in set(table[..., 2].flat)}
    args = np.stack([drives[f] for f in table[..., 2].flat]).reshape(
        *steps.shape, 3, 3) * steps[..., None, None]
    norms = np.abs(args).sum(axis=-2).max(axis=(-2, -1))
    for row in np.flatnonzero(~(norms <= TAYLOR_NORM_MAX)):
        check(row, _propagator, args[row])
        args[row] = 0.0
    props = _propagator(args).reshape(-1, 3, 3)

    # Per window (flattened over the batch) and segment: the samples lo..hi
    # it keeps, counted from the segment's start sample.
    window_row = np.repeat(np.arange(len(rows)), [len(r[2]) for r in rows])
    spans = np.concatenate([r[2] for r in rows])
    first = np.concatenate([r[3] for r in rows])
    last = np.concatenate([r[4] for r in rows])
    origin = (np.cumsum(counts, axis=1) - counts)[window_row]
    lo = np.maximum(first[:, None], origin + (origin > 0))
    hi = np.minimum(last[:, None], origin + counts[window_row])
    window, seg = np.nonzero(lo <= hi)
    lo, hi, origin = lo[window, seg], hi[window, seg], origin[window, seg]
    segment = window_row[window] * n_seg + seg
    powers, sums = _power_sums(
        props,
        np.concatenate([np.arange(counts.size), segment, segment]),
        np.concatenate([counts.ravel(), lo - origin, hi - lo + 1]),
    )
    n_terms = len(segment)
    ends = powers[:counts.size].reshape(*counts.shape, 3, 3)
    offsets = powers[counts.size:counts.size + n_terms]
    partials = sums[counts.size + n_terms:]

    states = np.empty((len(rows), n_seg + 1, 3))
    states[:, 0] = system.thermal_populations()
    for s in range(n_seg):
        states[:, s + 1] = (ends[:, s] @ states[:, s, :, None])[..., 0]
    drift = np.max(np.abs(states.sum(axis=-1) - 1.0), axis=-1)
    for row in np.flatnonzero(drift > CONSERVATION_TOL):
        check(row, _check_conservation, states[row])
    sizes = last - first + 1
    for w in np.flatnonzero(sizes < 1):
        fail(window_row[w], ExtractionError(
            f"no samples inside the window [{spans[w, 0]:.1f}, "
            f"{spans[w, 1]:.1f}] ns"))

    start_states = states[:, :-1].reshape(-1, 3)[segment]
    terms = (partials @ (offsets @ start_states[..., None]))[..., 0]
    totals = np.zeros((len(spans), 3))
    np.add.at(totals, window, terms)
    # An empty window has failed its sequence above; 1 keeps its mean finite.
    means = totals / np.maximum(sizes, 1)[:, None]
    drift = np.abs(means.sum(axis=-1) - 1.0)
    for row in set(window_row[drift > CONSERVATION_TOL]):
        check(row, _check_conservation, means[window_row == row])
    per_row = np.split(means, np.cumsum([len(r[2]) for r in rows])[:-1])
    for (i, *_), row_means in zip(rows, per_row):
        if results[i] is None:
            results[i] = row_means
    return results


def _ratio_windows(sequence: PulseSequence, window_ns: float) -> list:
    """Leading-edge and stationary (start, stop) windows of both pulses."""
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
    return windows


def _peak_ratios(
    system: LevelSystem, taus_ns, width_ns: float, window_ns: float
) -> np.ndarray:
    """``extract_peak_ratio`` of the two-pulse sequence at each delay, with
    the windows of all delays summed in one ``_window_means`` batch.

    Each delay meets the checks of a single call in the same order; the
    first delay to fail one, in delay order, raises it.
    """
    jobs = []
    for tau in taus_ns:
        try:
            sequence = PulseSequence(delay_ns=float(tau), width_ns=width_ns)
            jobs.append((sequence, _ratio_windows(sequence, window_ns)))
        except InvalidParameterError as error:
            jobs.append(error)
    ratios = np.empty(len(jobs))
    for k, means in enumerate(_window_means(system, jobs)):
        if isinstance(means, Exception):
            raise means
        peak1, stat1, peak2, stat2 = OPTICAL_DECAY_MHZ * means[:, 2]
        denom = peak1 - stat1
        if denom <= 0:
            raise ExtractionError(
                "first pulse shows no leading-edge transient; cannot normalize"
            )
        ratios[k] = (peak2 - stat2) / denom
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

    Each window mean averages the samples that ``simulate_sequence`` takes
    inside it, summed in closed form per segment (``_window_means``), so no
    trace is stepped.
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
    pulse width ``width_ns``, all delays summed in one batch; the noise is
    Gaussian, added to the ratios.
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
