"""Pump-probe simulation, peak-ratio extraction, and lifetime roundtrips."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from phonogap import dynamics, fitkit, rates
from phonogap.dynamics import LevelSystem, PulseSequence
from phonogap.errors import ExtractionError, InvalidParameterError, NumericalError


def bath_system(t1_ns, up_fraction=0.3):
    total = 1.0e3 / t1_ns
    return LevelSystem(
        gamma_up_mhz=up_fraction * total,
        gamma_down_mhz=(1.0 - up_fraction) * total,
    )


def window_mean(trace, start, stop):
    """Mean signal of a stepped trace's samples within 1e-9 ns of
    [start, stop]."""
    t = trace.times_ns
    return trace.signal[(t >= start - 1e-9) & (t <= stop + 1e-9)].mean()


def stepped_levels(trace, seq, window_ns=10.0, settle_ns=5.0):
    """(leading, stationary) window means of each pulse of a stepped
    trace."""
    levels = []
    for start in seq.pulse_starts():
        stop = start + seq.width_ns
        levels.append((window_mean(trace, start + settle_ns,
                                   start + settle_ns + window_ns),
                       window_mean(trace, stop - window_ns, stop)))
    return levels


def stepped_ratio(system, seq, window_ns=10.0, settle_ns=5.0):
    """Peak ratio from window means of the stepped trace: the reference."""
    trace = dynamics.simulate_sequence(system, seq)
    (peak1, stat1), (peak2, stat2) = stepped_levels(trace, seq, window_ns,
                                                    settle_ns)
    return (peak2 - stat2) / (peak1 - stat1)


#: (system, pulse width, delay) where sample times summed step by step
#: drifted past the 1e-9 ns window tolerance, so the second pulse's windows
#: took other samples than the first's: the ratio read 0.98855 and 0.99360
#: against 1.00000 and 0.99085 with each sample at its segment origin plus
#: whole steps.
DRIFT_INPUTS = [
    (LevelSystem(omega_mhz=1111.0, beta=0.935, gamma_up_mhz=33.56,
                 gamma_down_mhz=17.147), 111.0, 3864.78),
    (LevelSystem(omega_mhz=1445.0, beta=0.574, gamma_up_mhz=1.194,
                 gamma_down_mhz=0.663), 333.0, 2529.3),
]


class TestLevelSystem:
    def test_rejects_negative_rates(self):
        with pytest.raises(InvalidParameterError):
            LevelSystem(omega_mhz=-1.0)
        with pytest.raises(InvalidParameterError):
            LevelSystem(gamma_up_mhz=-0.5)

    def test_rejects_bad_branching(self):
        with pytest.raises(InvalidParameterError):
            LevelSystem(beta=1.5)
        with pytest.raises(InvalidParameterError):
            LevelSystem(beta=-0.1)

    def test_lifetime_property(self):
        assert LevelSystem().t1_ns == math.inf
        system = LevelSystem(gamma_up_mhz=10.0, gamma_down_mhz=30.0)
        assert abs(system.t1_ns - 25.0) < 1e-12

    def test_thermal_populations(self):
        assert np.allclose(
            LevelSystem().thermal_populations(), [0.5, 0.5, 0.0]
        )
        system = LevelSystem(gamma_up_mhz=5.0, gamma_down_mhz=15.0)
        assert np.allclose(
            system.thermal_populations(), [0.75, 0.25, 0.0]
        )


class TestGenerator:
    @given(
        omega=st.floats(0.0, 2000.0),
        up=st.floats(0.0, 50.0),
        down=st.floats(0.0, 50.0),
        beta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_columns_sum_to_zero(self, omega, up, down, beta):
        system = LevelSystem(
            omega_mhz=omega, beta=beta, gamma_up_mhz=up, gamma_down_mhz=down
        )
        mat = dynamics.generator(system, 1.0)
        assert np.max(np.abs(mat.sum(axis=0))) < 1e-15

    def test_pump_off_removes_drive(self):
        system = LevelSystem(omega_mhz=500.0, gamma_up_mhz=3.0,
                             gamma_down_mhz=9.0)
        mat = dynamics.generator(system, 0.0)
        assert mat[2, 0] == 0.0

    def test_dark_relaxation_reaches_detailed_balance(self):
        system = LevelSystem(gamma_up_mhz=7.0, gamma_down_mhz=19.0)
        dark = dynamics.generator(system, 0.0) * 20.0 * system.t1_ns
        final = sla.expm(dark) @ np.array([1.0, 0.0, 0.0])
        assert abs(final[1] / final[0] - 7.0 / 19.0) < 1e-6


class TestPropagator:
    """The one-step propagators: a Taylor sum exact to round-off."""

    @given(
        omega=st.floats(0.0, 2000.0),
        beta=st.floats(0.0, 1.0),
        up=st.floats(0.0, 500.0),
        down=st.floats(0.0, 500.0),
        delay=st.floats(0.0, 400.0),
        width=st.floats(0.5, 400.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_segments_match_expm(self, omega, beta, up, down, delay, width):
        system = LevelSystem(omega_mhz=omega, beta=beta, gamma_up_mhz=up,
                             gamma_down_mhz=down)
        segments = dynamics._segments(
            system, PulseSequence(delay_ns=delay, width_ns=width))
        # Pulse, dark delay (if any), pulse, dark tail.
        fractions = [1.0, *([0.0] if delay > 0 else []), 1.0, 0.0]
        assert len(segments) == len(fractions)
        for (step, _, prop), fraction in zip(segments, fractions):
            arg = dynamics.generator(system, fraction) * step
            # The step rule's bound, up to its 1e-12 count slack.
            assert np.abs(arg).sum(axis=0).max() <= 0.2 * (1.0 + 2e-12)
            assert np.max(np.abs(prop - sla.expm(arg))) <= 1e-15
            assert np.max(np.abs(prop.sum(axis=0) - 1.0)) <= dynamics.CONSERVATION_TOL

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs extended-precision long double")
    @pytest.mark.parametrize("norm", [0.1, 0.2, dynamics.TAYLOR_NORM_MAX])
    def test_truncation_below_double_round_off(self, norm):
        # A two-state rate matrix a = -norm * pi (pi a projector) has
        # exp(a) = I - (1 - e^-norm) pi.  In extended precision the sum's
        # own error shows: its tail past degree 12 is below 1.2e-18 here,
        # while its degree-12 term alone reaches 4.3e-18 at norm 0.2.
        rate = np.longdouble(norm) / 2
        a = np.array([[-rate, rate], [rate, -rate]])
        decay = -np.expm1(-np.longdouble(norm)) / 2
        exact = np.array([[1 - decay, decay], [decay, 1 - decay]])
        prop = dynamics._propagator(a)
        assert prop.dtype == np.longdouble
        assert np.max(np.abs(prop - exact)) <= 3e-18

    @pytest.mark.parametrize("scale", [1.26, 1e3, math.nan])
    def test_rejects_argument_above_bound(self, scale):
        # 1-norm 0.2 * 1.26 = 0.252 just exceeds the 0.25 the sum resolves.
        system = bath_system(34.0)
        arg = dynamics.generator(system, 1.0)
        arg = arg * (0.2 / np.abs(arg).sum(axis=0).max()) * scale
        with pytest.raises(NumericalError, match="1-norm"):
            dynamics._propagator(arg)

    def test_stack_names_its_first_argument_above_bound(self):
        system = bath_system(34.0)
        arg = dynamics.generator(system, 1.0)
        arg = arg / np.abs(arg).sum(axis=0).max()
        stack = np.stack([0.2 * arg, 0.3 * arg, 0.5 * arg])
        with pytest.raises(NumericalError, match="1-norm 0.3,"):
            dynamics._propagator(stack)


class TestSimulateSequence:
    @pytest.mark.parametrize("delay_ns", [1e12, 1e308])
    def test_overlong_sequence_raises_before_stepping(self, delay_ns):
        # Stepped one by one, 1e12 ns would take ~1e13 samples.
        with pytest.raises(InvalidParameterError, match="samples"):
            dynamics.simulate_sequence(bath_system(34.0),
                                       PulseSequence(delay_ns=delay_ns))

    def test_sample_bound_is_exact(self, monkeypatch):
        system, sequence = bath_system(34.0), PulseSequence(delay_ns=50.0)
        samples = dynamics.simulate_sequence(system, sequence).times_ns.size
        monkeypatch.setattr(dynamics, "MAX_SAMPLES", samples)
        assert dynamics.extract_peak_ratio(system, sequence) > 0
        monkeypatch.setattr(dynamics, "MAX_SAMPLES", samples - 1)
        with pytest.raises(InvalidParameterError, match="samples"):
            dynamics.extract_peak_ratio(system, sequence)

    def test_second_pulse_ends_on_its_sample(self):
        seq = PulseSequence(delay_ns=1715.0, width_ns=300.0)
        trace = dynamics.simulate_sequence(bath_system(34.0), seq)
        end = seq.pulse_starts()[1] + seq.width_ns
        assert np.min(np.abs(trace.times_ns - end)) < 1e-12

    def test_no_drive_means_no_fluorescence(self):
        system = LevelSystem(omega_mhz=0.0, gamma_up_mhz=5.0,
                             gamma_down_mhz=10.0)
        trace = dynamics.simulate_sequence(
            system, PulseSequence(delay_ns=100.0)
        )
        assert np.all(trace.signal == 0.0)

    def test_population_conservation(self):
        trace = dynamics.simulate_sequence(
            bath_system(34.0), PulseSequence(delay_ns=50.0)
        )
        drift = np.abs(trace.populations.sum(axis=1) - 1.0)
        assert np.max(drift) < 1e-9
        assert np.all(trace.signal >= 0.0)

    def test_signal_tracks_excited_population(self):
        system = bath_system(34.0)
        trace = dynamics.simulate_sequence(
            system, PulseSequence(delay_ns=20.0)
        )
        expected = dynamics.OPTICAL_DECAY_MHZ * trace.populations[:, 2]
        assert np.allclose(trace.signal, expected)

    def test_deterministic(self):
        system = bath_system(100.0)
        seq = PulseSequence(delay_ns=75.0)
        a = dynamics.simulate_sequence(system, seq)
        b = dynamics.simulate_sequence(system, seq)
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.times_ns, b.times_ns)

    @given(
        omega=st.floats(10.0, 1500.0),
        up=st.floats(0.1, 40.0),
        down=st.floats(0.1, 40.0),
        tau=st.floats(0.0, 400.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_conservation_across_parameters(self, omega, up, down, tau):
        system = LevelSystem(
            omega_mhz=omega, gamma_up_mhz=up, gamma_down_mhz=down
        )
        trace = dynamics.simulate_sequence(
            system, PulseSequence(delay_ns=tau)
        )
        assert np.max(np.abs(trace.populations.sum(axis=1) - 1.0)) < 1e-9

    @staticmethod
    def leaky_propagator(leak):
        # Moves ``leak`` of |2> into the excited state per step; the columns
        # still sum to one, so population conservation cannot see a
        # negative ``leak`` drive p_e below zero.
        return np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0 - leak, 0.0], [0.0, leak, 1.0]]
        )

    def test_negative_excited_population_raises(self, monkeypatch):
        prop = self.leaky_propagator(-1e-6)
        monkeypatch.setattr(dynamics, "_segments",
                            lambda system, sequence: [(1.0, 3, prop)])
        system = LevelSystem()
        with pytest.raises(NumericalError, match="went negative"):
            dynamics.simulate_sequence(system, PulseSequence(delay_ns=10.0))

    def test_round_off_below_zero_is_clipped(self, monkeypatch):
        prop = self.leaky_propagator(-2e-16)
        monkeypatch.setattr(dynamics, "_segments",
                            lambda system, sequence: [(1.0, 1, prop)])
        system = LevelSystem()
        trace = dynamics.simulate_sequence(system, PulseSequence(delay_ns=10.0))
        assert trace.populations[1, 2] == pytest.approx(-1e-16, rel=1e-6)
        np.testing.assert_array_equal(trace.signal, [0.0, 0.0])


class TestExtractPeakRatio:
    def test_full_thermalization_limit(self):
        system = bath_system(34.0)
        seq = PulseSequence(delay_ns=12.0 * 34.0)
        assert dynamics.extract_peak_ratio(system, seq, 10.0) > 0.999

    def test_zero_delay_gives_no_recovery(self):
        system = bath_system(34.0)
        seq = PulseSequence(delay_ns=0.0)
        assert abs(dynamics.extract_peak_ratio(system, seq, 10.0)) < 1e-9

    def test_half_recovery_at_log_two_delay(self):
        system = bath_system(34.0)
        seq = PulseSequence(delay_ns=34.0 * math.log(2.0))
        ratio = dynamics.extract_peak_ratio(system, seq, 10.0)
        assert abs(ratio - 0.5) / 0.5 < 0.03

    def test_frozen_bath_shows_no_recovery(self):
        frozen = LevelSystem(gamma_up_mhz=0.0, gamma_down_mhz=0.0, beta=1.0)
        ratios = [
            dynamics.extract_peak_ratio(frozen, PulseSequence(delay_ns=tau))
            for tau in (50.0, 5000.0)
        ]
        assert abs(ratios[0]) < 1e-12
        assert abs(ratios[0] - ratios[1]) < 1e-15

    def test_frozen_bath_second_edge_continues_first_tail(self):
        frozen = LevelSystem(gamma_up_mhz=0.0, gamma_down_mhz=0.0, beta=1.0)
        seq = PulseSequence(delay_ns=100.0, width_ns=900.0)
        trace = dynamics.simulate_sequence(frozen, seq)
        peak1 = window_mean(trace, 5.0, 15.0)
        tail1 = window_mean(trace, 890.0, 900.0)
        lead2 = window_mean(trace, 1005.0, 1015.0)
        assert abs(lead2 - tail1) < 1e-6 * peak1

    def test_window_larger_than_pulse_rejected(self):
        system = bath_system(34.0)
        seq = PulseSequence(delay_ns=50.0, width_ns=60.0)
        with pytest.raises(InvalidParameterError, match="too short"):
            dynamics.extract_peak_ratio(system, seq, 40.0)
        # The settle time and both windows fit exactly.
        dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=50.0, width_ns=85.0), 40.0)

    def test_window_between_samples_rejected(self):
        # Samples are ~0.127 ns apart; [5, 5.001] ns holds none of them.
        system = bath_system(34.0)
        with pytest.raises(ExtractionError,
                           match=r"no samples inside the window \[5\.0, 5\.001\] "
                                 r"ns; the pulse is sampled every 0\.12\d* ns"):
            dynamics.extract_peak_ratio(
                system, PulseSequence(delay_ns=50.0), 1e-3
            )

    def test_undriven_emitter_has_no_transient(self):
        system = LevelSystem(omega_mhz=0.0, gamma_up_mhz=5.0,
                             gamma_down_mhz=10.0)
        with pytest.raises(ExtractionError, match="transient"):
            dynamics.extract_peak_ratio(system, PulseSequence(delay_ns=50.0))

    def test_invalid_window(self):
        system = bath_system(34.0)
        seq = PulseSequence(delay_ns=50.0)
        with pytest.raises(InvalidParameterError):
            dynamics.extract_peak_ratio(system, seq, -1.0)


class TestClosedFormWindows:
    """The closed-form window sums against the stepped trace."""

    @pytest.mark.parametrize("variant", ["bath", "frozen"])
    @pytest.mark.parametrize("width", [300.0, 60.0])
    @pytest.mark.parametrize("delay_t1", [0.0, 0.7, 5.0])
    @pytest.mark.parametrize("t1", [34.0, 486.0])
    def test_ratio_matches_stepped_trace(self, t1, delay_t1, width, variant):
        if variant == "frozen":
            system = LevelSystem(beta=1.0)
        else:
            system = bath_system(t1)
        seq = PulseSequence(delay_ns=delay_t1 * t1, width_ns=width)
        closed = dynamics.extract_peak_ratio(system, seq, 10.0)
        assert abs(closed - stepped_ratio(system, seq)) < 1e-12

    @given(
        omega=st.floats(10.0, 1500.0),
        # Without shelving (beta = 0) there is no transient to normalize by.
        beta=st.floats(0.2, 1.0),
        up=st.floats(0.1, 40.0),
        down=st.floats(0.1, 40.0),
        width=st.floats(60.0, 450.0),
        # Below 1e-9 ns the dark delay's one sample lies within the window
        # tolerance of the first pulse's end, and the stepped reference
        # counts it in that pulse's stationary window;
        # ``test_sub_tolerance_delay_leaves_the_first_pulse_alone`` covers it.
        tau=st.one_of(st.just(0.0), st.floats(1e-8, 4000.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_long_delays_match_stepped_trace(self, omega, beta, up, down,
                                             width, tau):
        system = LevelSystem(omega_mhz=omega, beta=beta, gamma_up_mhz=up,
                             gamma_down_mhz=down)
        seq = PulseSequence(delay_ns=tau, width_ns=width)
        closed = dynamics.extract_peak_ratio(system, seq)
        trace = dynamics.simulate_sequence(system, seq)
        (peak1, stat1), (peak2, stat2) = stepped_levels(trace, seq)
        stepped = (peak2 - stat2) / (peak1 - stat1)
        # Stepping and binary powering both round off in proportion to the
        # step count, relative to the signal, and the ratio divides that by
        # the transient, which a weak pump makes small.
        round_off = trace.times_ns.size * np.finfo(float).eps
        tol = max(1e-12, round_off) * max(1.0, peak1 / (peak1 - stat1))
        assert abs(closed - stepped) < tol

    @pytest.mark.parametrize("system,width,delay", DRIFT_INPUTS)
    def test_drift_inputs_match_stepped_trace(self, system, width, delay):
        seq = PulseSequence(delay_ns=delay, width_ns=width)
        closed = dynamics.extract_peak_ratio(system, seq)
        assert abs(closed - stepped_ratio(system, seq)) < 1e-12

    @pytest.mark.parametrize("system,width,delay", DRIFT_INPUTS)
    def test_both_pulses_take_the_same_window_samples(self, system, width,
                                                       delay):
        seq = PulseSequence(delay_ns=delay, width_ns=width)
        trace = dynamics.simulate_sequence(system, seq)
        offsets = []
        for start in seq.pulse_starts():
            t = trace.times_ns - start
            offsets.append(np.concatenate([
                t[(t >= lo - 1e-9) & (t <= hi + 1e-9)]
                for lo, hi in [(5.0, 15.0), (width - 10.0, width)]]))
        assert offsets[0].shape == offsets[1].shape
        assert np.max(np.abs(offsets[0] - offsets[1])) < 1e-12

    def test_full_recovery_after_a_long_delay(self):
        # T1 = 19.7 ns, so after 3865 ns both pulses start thermal.
        system, width, delay = DRIFT_INPUTS[0]
        ratio = dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=delay, width_ns=width))
        assert abs(ratio - 1.0) < 1e-9

    def test_sub_tolerance_delay_leaves_the_first_pulse_alone(self):
        # A window takes only its own pulse's samples, so a delay below the
        # 1e-9 ns window tolerance moves the ratio by O(delay), not by the
        # dark sample a time window would add to the first pulse.
        system = LevelSystem(omega_mhz=10.0, gamma_up_mhz=5.0,
                             gamma_down_mhz=10.0)
        ratios = [dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=tau, width_ns=60.0))
            for tau in (0.0, 5e-324, 1e-10, 1e-9)]
        assert ratios[1] == ratios[0]
        assert np.max(np.abs(np.diff(ratios))) < 1e-9

    @given(
        omega=st.floats(10.0, 1500.0),
        up=st.floats(0.1, 40.0),
        down=st.floats(0.1, 40.0),
        tau=st.floats(0.0, 400.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_window_sums_conserve_population(self, omega, up, down, tau):
        # The guard sees s1, both window means of the first pulse, the
        # second pulse's start state (after a delay) and its window means.
        system = LevelSystem(
            omega_mhz=omega, gamma_up_mhz=up, gamma_down_mhz=down
        )
        checked = []
        guard = dynamics._check_conservation

        def spy(populations):
            checked.append(np.reshape(populations, (-1, 3)))
            guard(populations)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_check_conservation", spy)
            dynamics.extract_peak_ratio(system, PulseSequence(delay_ns=tau))
        states = np.concatenate(checked)
        assert len(states) == (6 if tau > 0 else 5)
        assert np.max(np.abs(states.sum(axis=1) - 1.0)) < 1e-9


def raised(call, *args):
    """The exception ``call(*args)`` raises."""
    with pytest.raises(Exception) as info:
        call(*args)
    return info.value


class TestBatchedWindows:
    """All delays of a curve summed in one batch, checked delay by delay."""

    def test_mixed_batch_matches_single_calls_and_stepped_trace(self):
        system = bath_system(34.0)
        dt_ns = dynamics._max_step(system)
        step = dynamics._segment_steps(PulseSequence(delay_ns=0.0), dt_ns)[0][0]
        # No dark segment, a dark segment one step long, and a long delay.
        taus = [0.0, 0.9 * step, 12.0 * 34.0, 45.0]
        segments = [dynamics._segment_steps(PulseSequence(tau), dt_ns)
                    for tau in taus]
        assert [len(s) for s in segments] == [3, 4, 4, 4]
        assert segments[1][1][1] == 1
        batch = dynamics._peak_ratios(system, taus, 300.0, 10.0)
        single = [dynamics.extract_peak_ratio(system, PulseSequence(tau))
                  for tau in taus]
        np.testing.assert_array_equal(batch, single)
        for tau, ratio in zip(taus, batch):
            assert abs(ratio - stepped_ratio(system, PulseSequence(tau))) < 1e-12

    def test_batch_of_windows_matches_single_jobs(self):
        # Narrow pulses and wide windows, shared by every delay of the batch.
        system = bath_system(34.0)
        taus = [0.0, 40.0, 900.0]
        _, batch = dynamics.thermalization_curve(system, taus, 60.0, 20.0)
        single = [dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=tau, width_ns=60.0), 20.0)
            for tau in taus]
        np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("taus,failing", [
        ([20.0, 1e12, 50.0], 1e12),
        ([20.0, -1.0, 1e12], -1.0),
        ([1e12, -1.0], 1e12),
    ])
    def test_first_failing_delay_raises_its_single_call_error(self, taus, failing):
        system = bath_system(34.0)
        single = raised(lambda: dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=failing)))
        batch = raised(dynamics.thermalization_curve, system, taus)
        assert type(batch) is type(single) is InvalidParameterError
        assert str(batch) == str(single)

    def test_earlier_delay_failing_a_later_check_raises_first(self):
        # Every delay's inputs are checked before any numerics: the second
        # delay's sample bound raises before the undriven emitter's
        # normalization fails.
        undriven = LevelSystem(omega_mhz=0.0, gamma_up_mhz=5.0,
                               gamma_down_mhz=10.0)
        with pytest.raises(InvalidParameterError, match="samples"):
            dynamics.thermalization_curve(undriven, [50.0, 1e12])
        with pytest.raises(ExtractionError, match="transient"):
            dynamics.thermalization_curve(undriven, [50.0, 60.0])
        with pytest.raises(InvalidParameterError, match="samples"):
            dynamics.thermalization_curve(undriven, [1e12, 50.0])

    def test_mid_batch_sample_bound_matches_single_call(self, monkeypatch):
        system = bath_system(34.0)
        taus = [10.0, 200.0, 20.0]
        samples = dynamics.simulate_sequence(
            system, PulseSequence(delay_ns=taus[1])).times_ns.size
        monkeypatch.setattr(dynamics, "MAX_SAMPLES", samples - 1)
        single = raised(lambda: dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=taus[1])))
        batch = raised(dynamics.thermalization_curve, system, taus)
        assert type(batch) is type(single) is InvalidParameterError
        assert str(batch) == str(single)

    @pytest.mark.parametrize("guard,bound,match", [
        ("TAYLOR_NORM_MAX", 0.1, "1-norm"),
        ("CONSERVATION_TOL", 0.0, "conservation"),
    ])
    def test_numerical_guards_raise_their_single_call_error(
            self, monkeypatch, guard, bound, match):
        monkeypatch.setattr(dynamics, guard, bound)
        system = bath_system(34.0)
        single = raised(lambda: dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=20.0)))
        batch = raised(dynamics.thermalization_curve, system, [20.0, 50.0])
        assert type(batch) is type(single) is NumericalError
        assert match in str(batch) and str(batch) == str(single)

    def test_first_dark_step_above_the_norm_bound_raises_its_own_error(
            self, monkeypatch):
        # A dark step's 1-norm stays below the pulse step's, so twice the
        # dark generator stands in for one that is not: its steps of 0.9
        # and 0.99 of the pulse step reach 1-norms 0.269 and 0.296, above
        # the 0.25 bound, and its step of 0.75 reaches 0.224.
        system = bath_system(34.0)
        generator = dynamics.generator
        monkeypatch.setattr(dynamics, "generator", lambda system, fraction=1.0: (
            generator(system, fraction) * (2.0 if fraction == 0.0 else 1.0)))
        dt_ns = dynamics._max_step(system)
        taus = [1.5 * dt_ns, 8.1 * dt_ns, 6.93 * dt_ns]
        single = [raised(lambda: dynamics.extract_peak_ratio(
            system, PulseSequence(delay_ns=tau))) for tau in taus[1:]]
        batch = raised(dynamics.thermalization_curve, system, taus)
        assert type(batch) is type(single[0]) is NumericalError
        assert "1-norm 0.269," in str(batch) and str(batch) == str(single[0])
        assert "1-norm 0.296," in str(single[1])
        dynamics.thermalization_curve(system, taus[:1])


class TestThermalizationCurve:
    def test_noiseless_curve_matches_exponential_recovery(self):
        t1 = 34.0
        taus = np.linspace(0.0, 5.0 * t1, 18)
        _, ratios = dynamics.thermalization_curve(bath_system(t1), taus)
        ideal = 1.0 - np.exp(-taus / t1)
        assert np.max(np.abs(ratios - ideal)) < 0.03

    def test_slow_bath_tracks_exponential_tightly(self):
        t1 = 486.0
        taus = np.linspace(0.0, 5.0 * t1, 14)
        _, ratios = dynamics.thermalization_curve(bath_system(t1), taus)
        ideal = 1.0 - np.exp(-taus / t1)
        assert np.max(np.abs(ratios - ideal)) < 0.01

    @pytest.mark.parametrize("t1,seed", [(34.0, 4), (486.0, 6)])
    def test_lifetime_roundtrip_through_fit(self, t1, seed):
        system = bath_system(t1, up_fraction=0.35)
        taus = np.linspace(2.0, 5.0 * t1, 16)
        _, clean = dynamics.thermalization_curve(system, taus)
        noiseless = fitkit.fit_recovery(taus, clean)
        assert abs(noiseless["t1"] - t1) / t1 < 0.03
        _, noisy = dynamics.thermalization_curve(
            system, taus, noise=0.02, seed=seed
        )
        fitted = fitkit.fit_recovery(taus, noisy)
        assert abs(fitted["t1"] - t1) / t1 < 0.05

    def test_detailed_balance_rates_preserve_lifetime(self):
        # Split a fixed total rate by the thermal occupation, as the phonon
        # bath would, and check the full pipeline returns the same T1.
        occupation = rates.bose_occupation(60.0, 4.4)
        total_mhz = 25.0
        system = LevelSystem(
            gamma_up_mhz=total_mhz * occupation / (2 * occupation + 1),
            gamma_down_mhz=total_mhz * (occupation + 1) / (2 * occupation + 1),
        )
        t1 = system.t1_ns
        taus = np.linspace(2.0, 5.0 * t1, 14)
        _, ratios = dynamics.thermalization_curve(system, taus)
        fitted = fitkit.fit_recovery(taus, ratios)
        assert abs(fitted["t1"] - t1) / t1 < 0.03

    def test_seeded_noise_reproducible(self):
        system = bath_system(50.0)
        taus = np.linspace(5.0, 150.0, 6)
        _, a = dynamics.thermalization_curve(system, taus, noise=0.05, seed=9)
        _, b = dynamics.thermalization_curve(system, taus, noise=0.05, seed=9)
        _, c = dynamics.thermalization_curve(system, taus, noise=0.05, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_inputs(self):
        system = bath_system(50.0)
        with pytest.raises(InvalidParameterError):
            dynamics.thermalization_curve(system, [])
        with pytest.raises(InvalidParameterError):
            dynamics.thermalization_curve(system, [10.0], noise=-0.1)

    @pytest.mark.parametrize("taus", [[[10.0, 20.0], [30.0, 40.0]], 10.0])
    def test_delays_must_be_one_dimensional(self, taus):
        with pytest.raises(InvalidParameterError, match="1-D"):
            dynamics.thermalization_curve(bath_system(50.0), taus)
