"""Rate-model tests: occupation oracles, detailed balance, asymptotics,
closed-form Raman against a quadrature oracle, and the crossover
construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import h, k
from scipy.integrate import quad

from phonogap.errors import InvalidParameterError, NumericalError
from phonogap.rates import (
    BOLTZMANN_K,
    KB_OVER_H_GHZ_PER_K,
    PLANCK_H,
    OrbitalSystem,
    RateModel,
    RateSet,
    bose_occupation,
    crossover_temperature,
    raman_rate,
    single_phonon_rates,
    thermal_exponent,
    total_relaxation,
)


def test_constants_equal_scipy_codata():
    # Exact in the 2019 SI, so rates match those built on scipy.constants.
    assert (PLANCK_H, BOLTZMANN_K) == (h, k)


class TestBoseOccupation:
    def test_zero_temperature(self):
        assert bose_occupation(60.0, 0.0) == 0.0

    def test_unity_at_log_two(self):
        # n = 1 exactly when h*delta/k_B*T = ln 2.
        delta = 60.0
        t_k = h * delta * 1e9 / (k * math.log(2.0))
        assert bose_occupation(delta, t_k) == pytest.approx(1.0, rel=1e-12)

    def test_reference_point(self):
        # Direct CODATA evaluation at 60 GHz and 4.4 K.
        x = h * 60e9 / (k * 4.4)
        expected = 1.0 / math.expm1(x)
        value = bose_occupation(60.0, 4.4)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.08, abs=0.005)

    @pytest.mark.parametrize("delta,t_k", [(0.0, 4.0), (-5.0, 4.0), (60.0, -1.0),
                                           (math.nan, 4.0), (60.0, math.inf)])
    def test_invalid_arguments(self, delta, t_k):
        with pytest.raises(InvalidParameterError):
            bose_occupation(delta, t_k)

    def test_overflowing_temperature_rejected(self):
        # k_B*T/h overflows past ~9e306 K: the exponent underflows to 0.
        assert math.isfinite(bose_occupation(46.0, 1e300))
        with pytest.raises(InvalidParameterError, match="1e\\+308 K is too high"):
            bose_occupation(46.0, 1e308)

    def test_underflowing_occupation_is_zero(self):
        # expm1 overflows past h*delta/k_B*T ~ 709.8: at 4 K, 1e5 GHz is
        # ~1200.  Just below, the occupation is the plain 1/expm1.
        assert bose_occupation(1e5, 4.0) == 0.0
        x = thermal_exponent(5.9e4, 4.0)
        assert 700 < x < 709
        assert bose_occupation(5.9e4, 4.0) == 1.0 / math.expm1(x) > 0

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.0, 40.0, 81)
        occ = [bose_occupation(60.0, t) for t in temps]
        assert all(b >= a for a, b in zip(occ, occ[1:]))


class TestSinglePhonon:
    SYSTEM = OrbitalSystem(delta_gs_ghz=60.0)
    MODEL = RateModel(chi_rho=3.4e-7)

    def test_zero_temperature_spontaneous_only(self):
        up, down = single_phonon_rates(self.SYSTEM, self.MODEL, 0.0)
        assert up == 0.0
        assert down == pytest.approx(
            2.0 * math.pi * self.MODEL.chi_rho * 60.0**3, rel=1e-12
        )

    @pytest.mark.parametrize("t_k", [0.0, 4.0])
    def test_overflowing_coupling_rejected(self, t_k):
        # 2*pi*chi_rho*delta^3 overflows by itself at chi_rho = 1e306.
        system = OrbitalSystem(delta_gs_ghz=46.0)
        assert math.isfinite(
            single_phonon_rates(system, RateModel(chi_rho=1e300), t_k)[1])
        with pytest.raises(InvalidParameterError,
                           match="coupling chi_rho = 1e\\+306 is too large"):
            single_phonon_rates(system, RateModel(chi_rho=1e306), t_k)

    def test_overflowing_splitting_rejected(self):
        # delta^3 overflows past ~5.6e102 GHz.
        system = OrbitalSystem(delta_gs_ghz=5e102)
        assert math.isfinite(
            single_phonon_rates(system, RateModel(chi_rho=1e-9), 4.0)[1])
        with pytest.raises(InvalidParameterError,
                           match="splitting 1e\\+103 GHz is too large"):
            OrbitalSystem(delta_gs_ghz=1e103)

    @settings(max_examples=150, deadline=None)
    @given(
        delta=st.floats(1.0, 200.0),
        t_k=st.floats(0.05, 100.0),
        chi_rho=st.floats(1e-10, 1e-3),
    )
    def test_detailed_balance(self, delta, t_k, chi_rho):
        system = OrbitalSystem(delta_gs_ghz=delta)
        up, down = single_phonon_rates(system, RateModel(chi_rho=chi_rho), t_k)
        assert down > up > 0
        balance = math.exp(h * delta * 1e9 / (k * t_k))
        assert down / up == pytest.approx(balance, rel=1e-12)

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.0, 60.0, 121)
        rates = [single_phonon_rates(self.SYSTEM, self.MODEL, t) for t in temps]
        ups, downs = zip(*rates)
        assert all(b >= a for a, b in zip(ups, ups[1:]))
        assert all(b >= a for a, b in zip(downs, downs[1:]))

    def test_high_temperature_linear_form(self):
        # At k_B*T = 50*h*delta both rates sit within 1% of the linear
        # asymptote 2*pi*chi_rho*delta^2*(k_B*T/h).
        delta = 60.0
        t_k = 50.0 * h * delta * 1e9 / k
        up, down = single_phonon_rates(self.SYSTEM, self.MODEL, t_k)
        linear = (
            2.0 * math.pi * self.MODEL.chi_rho * delta**2
            * KB_OVER_H_GHZ_PER_K * t_k
        )
        assert math.isclose(up, linear, rel_tol=1e-2)
        assert math.isclose(down, linear, rel_tol=1e-2)

    def test_asymptote_approached_monotonically(self):
        delta = 60.0
        ratios = []
        for factor in (5.0, 10.0, 20.0, 50.0, 100.0):
            t_k = factor * h * delta * 1e9 / k
            _, down = single_phonon_rates(self.SYSTEM, self.MODEL, t_k)
            linear = (
                2.0 * math.pi * self.MODEL.chi_rho * delta**2
                * KB_OVER_H_GHZ_PER_K * t_k
            )
            ratios.append(down / linear)
        diffs = [abs(r - 1.0) for r in ratios]
        assert diffs == sorted(diffs, reverse=True)
        assert diffs[-1] < 6e-3


#: Upper quadrature cutoff for the Raman integral, in units of k_B*T/h.
RAMAN_CUTOFF = 50.0


def raman_quadrature(system, model, temperature_k):
    """The Raman rate by adaptive quadrature of n(n+1) f^2 over phonon
    frequencies: the oracle of the closed form in ``raman_rate``."""
    if temperature_k == 0:
        return 0.0
    theta = KB_OVER_H_GHZ_PER_K * temperature_k  # thermal frequency in GHz
    prefactor = (
        2.0 * math.pi * model.chi_rho_sq * system.delta_gs_ghz**2 * model.scale
    )

    def occupation_weight(f_ghz):
        x = f_ghz / theta
        return f_ghz**2 / (4.0 * math.sinh(0.5 * x) ** 2)

    result = quad(occupation_weight, 0.0, RAMAN_CUTOFF * theta, epsabs=0.0,
                  epsrel=1e-9, limit=200, full_output=1)
    assert len(result) == 3, f"Raman quadrature did not converge: {result[3]}"
    return prefactor * result[0]


class TestRaman:
    SYSTEM = OrbitalSystem(delta_gs_ghz=60.0)
    MODEL = RateModel(chi_rho_sq=1e-5)

    def test_zero_temperature_both_modes(self):
        assert raman_rate(self.SYSTEM, self.MODEL, 0.0) == 0.0
        assert raman_quadrature(self.SYSTEM, self.MODEL, 0.0) == 0.0

    @pytest.mark.parametrize("t_k", [2.0, 4.4, 12.0, 20.0])
    def test_quadrature_matches_closed_form(self, t_k):
        closed = raman_rate(self.SYSTEM, self.MODEL, t_k)
        numeric = raman_quadrature(self.SYSTEM, self.MODEL, t_k)
        assert numeric == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("model", [MODEL, RateModel()])
    def test_overflowing_temperature_rejected(self, model):
        # T^3 overflows past ~3e101 K, even with no two-phonon coupling.
        assert math.isfinite(raman_rate(self.SYSTEM, model, 1e100))
        with pytest.raises(InvalidParameterError, match="Raman rate"):
            raman_rate(self.SYSTEM, model, 1e300)

    def test_overflowing_coupling_rejected(self):
        # A finite T^3 at 4 K times chi_rho_sq = 1e300 overflows: the
        # coupling is named, not the temperature.
        system = OrbitalSystem(delta_gs_ghz=46.0)
        assert math.isfinite(raman_rate(system, RateModel(chi_rho_sq=1e290), 4.0))
        with pytest.raises(InvalidParameterError) as info:
            raman_rate(system, RateModel(chi_rho_sq=1e300), 4.0)
        assert "coupling chi_rho_sq = 1e+300 is too large" in str(info.value)
        assert "temperature" not in str(info.value)

    def test_exact_cubic_scaling(self):
        low = raman_rate(self.SYSTEM, self.MODEL, 3.7)
        high = raman_rate(self.SYSTEM, self.MODEL, 7.4)
        assert high / low == pytest.approx(8.0, rel=1e-12)


class TestConvention:
    def test_angular_rescales_everything_by_two_pi(self):
        system = OrbitalSystem(delta_gs_ghz=46.0)
        plain = RateModel(chi_rho=2e-7, chi_rho_sq=3e-6)
        angular = RateModel(
            chi_rho=2e-7, chi_rho_sq=3e-6, rate_unit_convention="angular"
        )
        t_k = 4.4
        rp = total_relaxation(system, plain, t_k)
        ra = total_relaxation(system, angular, t_k)
        two_pi = 2.0 * math.pi
        assert ra.gamma_up_mhz == pytest.approx(two_pi * rp.gamma_up_mhz, rel=1e-15)
        assert ra.gamma_down_mhz == pytest.approx(
            two_pi * rp.gamma_down_mhz, rel=1e-15
        )
        assert ra.gamma_raman_mhz == pytest.approx(
            two_pi * rp.gamma_raman_mhz, rel=1e-15
        )
        assert ra.t1_ns == pytest.approx(rp.t1_ns / two_pi, rel=1e-15)

    def test_crossover_invariant_under_convention(self):
        system = OrbitalSystem(delta_gs_ghz=60.0)
        t_plain = crossover_temperature(
            system, RateModel(chi_rho=4e-7, chi_rho_sq=1e-12)
        )
        t_angular = crossover_temperature(
            system,
            RateModel(chi_rho=4e-7, chi_rho_sq=1e-12,
                      rate_unit_convention="angular"),
        )
        assert t_angular == pytest.approx(t_plain, rel=1e-12)

    def test_unknown_convention_rejected(self):
        with pytest.raises(InvalidParameterError):
            RateModel(rate_unit_convention="radians")


class TestTotalRelaxation:
    def test_pure_raman_reports_infinite_lifetime(self):
        system = OrbitalSystem(delta_gs_ghz=60.0)
        rates = total_relaxation(system, RateModel(chi_rho_sq=1e-6), 4.4)
        assert rates.gamma_up_mhz == 0.0
        assert rates.gamma_down_mhz == 0.0
        assert math.isinf(rates.t1_ns)
        assert rates.total_mhz == pytest.approx(2.0 * rates.gamma_raman_mhz)

    def test_pure_single_phonon(self):
        system = OrbitalSystem(delta_gs_ghz=60.0)
        model = RateModel(chi_rho=3e-7)
        rates = total_relaxation(system, model, 4.4)
        up, down = single_phonon_rates(system, model, 4.4)
        assert rates.gamma_raman_mhz == 0.0
        assert rates.total_mhz == pytest.approx(up + down, rel=1e-15)
        assert rates.t1_ns == pytest.approx(1e3 / (up + down), rel=1e-15)

    def test_emission_never_slower_than_absorption(self):
        system = OrbitalSystem(delta_gs_ghz=47.0)
        model = RateModel(chi_rho=1e-7, chi_rho_sq=1e-7)
        for t_k in (0.5, 2.0, 10.0, 40.0):
            rates = total_relaxation(system, model, t_k)
            assert rates.gamma_down_mhz >= rates.gamma_up_mhz >= 0

    def test_rate_set_arithmetic(self):
        rs = RateSet(4.0, 1.0, 3.0, 0.5)
        assert rs.total_mhz == 5.0
        assert rs.t1_ns == pytest.approx(250.0)


class TestCrossover:
    def test_crossover_from_cubic_fit_parameters(self):
        # Reconstruct couplings the way the temperature-series analysis does:
        # the cubic coefficient fixes the two-phonon product, and an
        # inverse-variance weighted fit of C*coth(h*delta/2*k_B*T) to the
        # below-crossover rates (the sub-13 K measurement range, relative
        # error bars) fixes the one-phonon product.  The crossover of the
        # resulting model must land where the full series deviates from its
        # low-temperature trend.
        delta = 60.0
        a_mhz, b_mhz_per_k3 = 0.52, 6.3e-4
        temps = np.linspace(4.4, 13.0, 18)
        measured = a_mhz + b_mhz_per_k3 * temps**3

        half_x = np.array(
            [0.5 * h * delta * 1e9 / (k * t) for t in temps]
        )
        coth = 1.0 / np.tanh(half_x)
        weights = 1.0 / (0.1 * measured) ** 2
        c_fit = float(
            np.dot(weights * measured, coth) / np.dot(weights * coth, coth)
        )
        chi_rho = c_fit / (2.0 * math.pi * delta**3)
        chi_rho_sq = b_mhz_per_k3 / (
            2.0 * (2.0 * math.pi**3 / 3.0) * delta**2 * KB_OVER_H_GHZ_PER_K**3
        )

        system = OrbitalSystem(delta_gs_ghz=delta)
        model = RateModel(chi_rho=chi_rho, chi_rho_sq=chi_rho_sq)
        t_cross = crossover_temperature(system, model)
        assert 10.0 < t_cross < 14.0

        # At the solution the two channels balance exactly.
        rates = total_relaxation(system, model, t_cross)
        assert 2.0 * rates.gamma_raman_mhz == pytest.approx(
            rates.gamma_up_mhz + rates.gamma_down_mhz, rel=1e-8
        )

    def test_needs_both_channels(self):
        system = OrbitalSystem(delta_gs_ghz=60.0)
        with pytest.raises(InvalidParameterError):
            crossover_temperature(system, RateModel(chi_rho=1e-7))

    def test_no_sign_change_detected(self):
        system = OrbitalSystem(delta_gs_ghz=60.0)
        model = RateModel(chi_rho=1e-7, chi_rho_sq=1e-20)
        with pytest.raises(NumericalError):
            crossover_temperature(system, model)


class TestValidation:
    def test_orbital_system_requires_positive_splitting(self):
        with pytest.raises(InvalidParameterError):
            OrbitalSystem(delta_gs_ghz=0.0)

    def test_rate_model_rejects_negative_couplings(self):
        with pytest.raises(InvalidParameterError):
            RateModel(chi_rho=-1e-9)
        with pytest.raises(InvalidParameterError):
            RateModel(chi_rho_sq=-1e-9)
