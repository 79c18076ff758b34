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


def bath_system(t1_ns, up_fraction=0.3, **kwargs):
    total = 1.0e3 / t1_ns
    return LevelSystem(
        gamma_up_mhz=up_fraction * total,
        gamma_down_mhz=(1.0 - up_fraction) * total,
        **kwargs,
    )


def window_mean(trace, start, stop, values=None):
    """Mean of a stepped trace's samples within 1e-9 ns of [start, stop]."""
    t = trace.times_ns
    mask = (t >= start - 1e-9) & (t <= stop + 1e-9)
    values = trace.signal if values is None else values
    return values[mask].mean(axis=0)


def stepped_ratio(system, seq, window_ns=10.0, settle_ns=5.0):
    """Peak ratio from window means of the stepped trace: the reference."""
    trace = dynamics.simulate_sequence(system, seq)
    levels = []
    for start in seq.pulse_starts():
        stop = start + seq.width_ns
        peak = window_mean(trace, start + settle_ns,
                           start + settle_ns + window_ns)
        levels.append(peak - window_mean(trace, stop - window_ns, stop))
    return levels[1] / levels[0]


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

    def test_rejects_bad_initial_populations(self):
        with pytest.raises(InvalidParameterError):
            LevelSystem(initial_populations=(0.5, 0.6, 0.0))
        with pytest.raises(InvalidParameterError):
            LevelSystem(initial_populations=(1.2, -0.2, 0.0))

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


class TestSimulateSequence:
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

    def test_initial_populations_honored(self):
        system = LevelSystem(
            omega_mhz=0.0,
            gamma_up_mhz=0.0,
            gamma_down_mhz=0.0,
            initial_populations=(0.2, 0.8, 0.0),
        )
        trace = dynamics.simulate_sequence(
            system, PulseSequence(delay_ns=10.0)
        )
        assert np.allclose(trace.populations[-1], [0.2, 0.8, 0.0])

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
        system = LevelSystem(initial_populations=(0.5, 0.5, 0.0))
        with pytest.raises(NumericalError, match="went negative"):
            dynamics.simulate_sequence(system, PulseSequence(delay_ns=10.0))

    def test_round_off_below_zero_is_clipped(self, monkeypatch):
        prop = self.leaky_propagator(-2e-16)
        monkeypatch.setattr(dynamics, "_segments",
                            lambda system, sequence: [(1.0, 1, prop)])
        system = LevelSystem(initial_populations=(0.5, 0.5, 0.0))
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
        with pytest.raises(ExtractionError, match="no samples"):
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

    @pytest.mark.parametrize("variant", ["bath", "frozen", "initial"])
    @pytest.mark.parametrize("width", [300.0, 60.0])
    @pytest.mark.parametrize("delay_t1", [0.0, 0.7, 5.0])
    @pytest.mark.parametrize("t1", [34.0, 486.0])
    def test_ratio_matches_stepped_trace(self, t1, delay_t1, width, variant):
        if variant == "frozen":
            system = LevelSystem(beta=1.0)
        elif variant == "initial":
            system = bath_system(t1, initial_populations=(0.6, 0.3, 0.1))
        else:
            system = bath_system(t1)
        seq = PulseSequence(delay_ns=delay_t1 * t1, width_ns=width)
        closed = dynamics.extract_peak_ratio(system, seq, 10.0)
        assert abs(closed - stepped_ratio(system, seq)) < 1e-12

    def test_windows_across_segments_match_stepped_means(self):
        # Windows from t = 0, across every segment edge, and ending exactly
        # on one; the ratio windows never cross an edge.
        system = bath_system(34.0, initial_populations=(0.1, 0.2, 0.7))
        seq = PulseSequence(delay_ns=40.0, width_ns=60.0)
        trace = dynamics.simulate_sequence(system, seq)
        end = float(trace.times_ns[-1])
        windows = [(0.0, 10.0), (0.0, end), (55.0, 105.0), (50.0, 100.0),
                   (100.0, 160.0), (159.9, end)]
        closed = dynamics._window_populations(system, seq, windows)
        for (start, stop), means in zip(windows, closed):
            stepped = window_mean(trace, start, stop, trace.populations)
            assert np.max(np.abs(means - stepped)) < 1e-12

    @given(
        omega=st.floats(10.0, 1500.0),
        up=st.floats(0.1, 40.0),
        down=st.floats(0.1, 40.0),
        tau=st.floats(0.0, 400.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_window_sums_conserve_population(self, omega, up, down, tau):
        system = LevelSystem(
            omega_mhz=omega, gamma_up_mhz=up, gamma_down_mhz=down
        )
        seq = PulseSequence(delay_ns=tau)
        second = 300.0 + tau
        windows = [(5.0, 15.0), (290.0, 300.0), (second + 5.0, second + 15.0),
                   (second + 290.0, second + 300.0), (0.0, second + 600.0)]
        means = dynamics._window_populations(system, seq, windows)
        assert np.max(np.abs(means.sum(axis=1) - 1.0)) < 1e-9


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
