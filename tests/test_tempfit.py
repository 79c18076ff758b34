import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonogap.errors import FitError, InvalidParameterError
from phonogap.tempfit import (
    CrossingReport,
    FitResult,
    RateSeries,
    crossing_report,
    fit_power_model,
    select_model,
)

BULK_OFFSET = 1.47
BULK_SLOPE = 0.68
PNC_OFFSET = 0.52
PNC_CUBIC = 6.3e-4


def bulk_series(seed, n=10, frac=0.05):
    rng = np.random.default_rng(seed)
    temps = np.linspace(4.4, 30.0, n)
    truth = BULK_OFFSET + BULK_SLOPE * temps
    sigmas = frac * truth
    return RateSeries(temps, truth + rng.normal(0.0, sigmas), sigmas)


def pnc_series(seed, n=12, frac=0.08):
    rng = np.random.default_rng(seed)
    temps = np.linspace(4.4, 26.0, n)
    truth = PNC_OFFSET + PNC_CUBIC * temps**3
    sigmas = frac * truth
    return RateSeries(temps, truth + rng.normal(0.0, sigmas), sigmas)


def grid_search_wls(data, exponent, a_range, b_range, rounds=6, n=41):
    """Brute-force zooming grid minimizer of the weighted residual sum."""
    basis = data.temperatures_k ** float(exponent)
    a_lo, a_hi = a_range
    b_lo, b_hi = b_range
    best = (np.inf, None, None)
    for _ in range(rounds):
        a_grid = np.linspace(a_lo, a_hi, n)
        b_grid = np.linspace(b_lo, b_hi, n)
        resid = (
            data.rates_mhz[None, None, :]
            - a_grid[:, None, None]
            - b_grid[None, :, None] * basis[None, None, :]
        ) / data.sigmas_mhz[None, None, :]
        wrss = np.sum(resid**2, axis=-1)
        i, j = np.unravel_index(np.argmin(wrss), wrss.shape)
        best = (wrss[i, j], a_grid[i], b_grid[j])
        da = (a_hi - a_lo) / (n - 1)
        db = (b_hi - b_lo) / (n - 1)
        a_lo, a_hi = a_grid[i] - 2 * da, a_grid[i] + 2 * da
        b_lo, b_hi = b_grid[j] - 2 * db, b_grid[j] + 2 * db
    return best


class TestRateSeries:
    def test_sorts_by_temperature(self):
        data = RateSeries([10.0, 4.4, 7.0], [3.0, 1.0, 2.0], [0.1, 0.2, 0.3])
        assert np.array_equal(data.temperatures_k, [4.4, 7.0, 10.0])
        assert np.array_equal(data.rates_mhz, [1.0, 2.0, 3.0])
        assert np.array_equal(data.sigmas_mhz, [0.2, 0.3, 0.1])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidParameterError, match="equal length"):
            RateSeries([1.0, 2.0, 3.0], [1.0, 2.0], [0.1, 0.1, 0.1])

    def test_rejects_too_few_points(self):
        with pytest.raises(InvalidParameterError, match="at least 3"):
            RateSeries([1.0, 2.0], [1.0, 2.0], [0.1, 0.1])

    def test_rejects_nonpositive_uncertainty(self):
        with pytest.raises(InvalidParameterError, match="positive"):
            RateSeries([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.1, 0.0, 0.1])

    def test_rejects_duplicate_temperatures(self):
        with pytest.raises(InvalidParameterError, match="distinct"):
            RateSeries([4.4, 4.4, 9.0], [1.0, 1.1, 2.0], [0.1, 0.1, 0.1])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            RateSeries([1.0, 2.0, 3.0], [1.0, np.nan, 3.0], [0.1, 0.1, 0.1])

    def test_rejects_negative_temperature(self):
        with pytest.raises(InvalidParameterError, match=">= 0 K"):
            RateSeries([-5.0, -2.0, 3.0, 8.0], [1.0, 1.2, 2.0, 3.0], [0.1] * 4)

    def test_accepts_zero_temperature(self):
        data = RateSeries([0.0, 4.0, 8.0], [1.0, 2.0, 3.0], [0.1] * 3)
        assert data.temperatures_k[0] == 0.0

    def test_restrict_keeps_low_temperatures(self):
        data = RateSeries(
            [4.0, 8.0, 12.0, 16.0, 20.0],
            [1.0, 2.0, 3.0, 9.0, 20.0],
            [0.1] * 5,
        )
        low = data.restrict(13.0)
        assert len(low) == 3
        assert low.temperatures_k.max() == 12.0

    def test_restrict_needs_three_points(self):
        data = RateSeries(
            [4.0, 8.0, 12.0, 16.0], [1.0, 2.0, 3.0, 9.0], [0.1] * 4
        )
        with pytest.raises(InvalidParameterError, match="fewer than 3"):
            data.restrict(9.0)


class TestFitPowerModel:
    def test_exact_collinear_points_interpolate(self):
        temps = np.array([5.0, 11.0, 23.0])
        rates = 1.3 + 0.42 * temps
        fit = fit_power_model(RateSeries(temps, rates, [0.2, 0.2, 0.2]), 1)
        assert math.isclose(fit.a_mhz, 1.3, rel_tol=1e-12)
        assert math.isclose(fit.b_mhz, 0.42, rel_tol=1e-12)
        assert fit.wrss < 1e-18
        assert fit.dof == 1

    def test_bulk_linear_recovery_within_two_se(self):
        fit = fit_power_model(bulk_series(seed=0), 1)
        assert abs(fit.a_mhz - BULK_OFFSET) < 2 * fit.a_err_mhz
        assert abs(fit.b_mhz - BULK_SLOPE) < 2 * fit.b_err_mhz
        # Error bars should land near the scale seen in practice for this
        # kind of series, not orders of magnitude off.
        assert 0.1 < fit.a_err_mhz < 0.6
        assert 0.01 < fit.b_err_mhz < 0.06
        assert not fit.unphysical

    def test_pnc_cubic_recovery_within_two_se(self):
        fit = fit_power_model(pnc_series(seed=4), 3)
        assert abs(fit.a_mhz - PNC_OFFSET) < 2 * fit.a_err_mhz
        assert abs(fit.b_mhz - PNC_CUBIC) < 2 * fit.b_err_mhz
        assert fit.dof == 10

    def test_matches_grid_search(self):
        data = pnc_series(seed=7, n=5)
        fit = fit_power_model(data, 3)
        wrss, a_best, b_best = grid_search_wls(
            data, 3, (0.0, 1.5), (0.0, 2e-3), rounds=8
        )
        assert abs(fit.a_mhz - a_best) < 1e-6
        assert abs(fit.b_mhz - b_best) < 1e-6
        assert fit.wrss <= wrss + 1e-9

    def test_negative_offset_allowed_but_flagged(self):
        temps = np.array([4.0, 8.0, 12.0])
        rates = -0.35 + 0.15 * temps
        fit = fit_power_model(RateSeries(temps, rates, [0.01] * 3), 1)
        assert fit.a_mhz < 0
        assert fit.unphysical

    def test_unsupported_exponent_rejected(self):
        data = bulk_series(seed=1)
        with pytest.raises(InvalidParameterError, match="exponent"):
            fit_power_model(data, 2)

    def test_degenerate_temperatures_raise_fit_error(self):
        temps = np.array([10.0, 10.0 + 1e-13, 10.0 + 2e-13])
        data = RateSeries(temps, [1.0, 1.1, 0.9], [0.1] * 3)
        with pytest.raises(FitError):
            fit_power_model(data, 3)

    def test_weights_pull_fit_toward_precise_points(self):
        # Two tight points define a line; one wild point with a huge error
        # bar should barely move it.
        temps = np.array([5.0, 10.0, 15.0])
        rates = np.array([2.0, 3.0, 100.0])
        fit = fit_power_model(RateSeries(temps, rates, [1e-3, 1e-3, 1e3]), 1)
        assert math.isclose(fit.a_mhz, 1.0, abs_tol=1e-3)
        assert math.isclose(fit.b_mhz, 0.2, abs_tol=1e-3)

    def test_predict_scalar_and_array(self):
        fit = FitResult(1, 1.0, 2.0, 0.0, 0.0, 0.0, 0)
        assert isinstance(fit.predict(3.0), float)
        assert fit.predict(3.0) == 7.0
        out = fit.predict([1.0, 2.0])
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, [3.0, 5.0])

    def test_negative_standard_error_rejected(self):
        with pytest.raises(InvalidParameterError, match=">= 0"):
            FitResult(1, 1.0, 2.0, -0.1, 0.0, 0.0, 0)


class TestScalingAndOrdering:
    def test_rate_scaling_scales_parameters_exactly(self):
        data = pnc_series(seed=2)
        scale = 3.7
        scaled = RateSeries(
            data.temperatures_k,
            scale * data.rates_mhz,
            scale * data.sigmas_mhz,
        )
        fit = fit_power_model(data, 3)
        fit_scaled = fit_power_model(scaled, 3)
        assert math.isclose(fit_scaled.a_mhz, scale * fit.a_mhz, rel_tol=1e-12)
        assert math.isclose(fit_scaled.b_mhz, scale * fit.b_mhz, rel_tol=1e-12)
        assert math.isclose(
            fit_scaled.a_err_mhz, scale * fit.a_err_mhz, rel_tol=1e-12
        )
        assert math.isclose(
            fit_scaled.b_err_mhz, scale * fit.b_err_mhz, rel_tol=1e-12
        )
        assert math.isclose(fit_scaled.wrss, fit.wrss, rel_tol=1e-12)

    def test_rate_scaling_preserves_ranking(self):
        data = pnc_series(seed=9)
        scaled = RateSeries(
            data.temperatures_k, 2.5 * data.rates_mhz, 2.5 * data.sigmas_mhz
        )
        order = [f.exponent for f in select_model(data)]
        order_scaled = [f.exponent for f in select_model(scaled)]
        assert order == order_scaled

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(10))))
    def test_fit_invariant_under_input_order(self, perm):
        base = bulk_series(seed=3)
        idx = np.array(perm)
        shuffled = RateSeries(
            base.temperatures_k[idx],
            base.rates_mhz[idx],
            base.sigmas_mhz[idx],
        )
        fit_a = fit_power_model(base, 1)
        fit_b = fit_power_model(shuffled, 1)
        assert fit_a.a_mhz == fit_b.a_mhz
        assert fit_a.b_mhz == fit_b.b_mhz
        assert fit_a.wrss == fit_b.wrss


class TestSelectModel:
    def test_cubic_data_ranks_cubic_first(self):
        ranked = select_model(pnc_series(seed=100, frac=0.05), (3, 5, 7))
        assert ranked[0].exponent == 3
        assert ranked[0].wrss < ranked[1].wrss

    def test_cubic_beats_linear_too(self):
        ranked = select_model(pnc_series(seed=100, frac=0.05), (1, 3, 5, 7))
        assert [f.exponent for f in ranked][0] == 3

    def test_exact_linear_ranks_linear_first(self):
        temps = np.linspace(4.4, 30.0, 9)
        rates = BULK_OFFSET + BULK_SLOPE * temps
        data = RateSeries(temps, rates, np.full_like(temps, 0.1))
        ranked = select_model(data)
        assert ranked[0].exponent == 1
        assert ranked[0].wrss < 1e-18
        assert ranked[1].wrss > 1.0

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(InvalidParameterError, match="candidate"):
            select_model(bulk_series(seed=1), ())

    def test_repeated_exponent_rejected(self):
        with pytest.raises(InvalidParameterError, match="distinct"):
            select_model(bulk_series(seed=1), (1, 3, 1))

    def test_restricted_linear_regime_recovers_slope(self):
        # Piecewise data: linear up to 13 K, cubic-dominated above.  A fit
        # restricted to the low range should see only the linear law.
        rng = np.random.default_rng(50)
        temps = np.linspace(4.4, 26.0, 12)
        truth = np.where(
            temps < 13.0,
            -0.35 + 0.15 * temps,
            PNC_OFFSET + PNC_CUBIC * temps**3,
        )
        sigmas = np.full_like(temps, 0.02)
        data = RateSeries(temps, truth + rng.normal(0.0, sigmas), sigmas)
        fit = fit_power_model(data.restrict(13.0), 1)
        assert abs(fit.b_mhz - 0.15) < 0.5 * 0.15
        assert fit.unphysical  # the low-T extrapolated offset is negative


class TestCrossingReport:
    def test_reference_rate_arithmetic(self):
        bulk = FitResult(1, BULK_OFFSET, BULK_SLOPE, 0.36, 0.04, 0.0, 8)
        report = crossing_report(bulk, bulk, 4.4, 4.4)
        assert math.isclose(
            report.bulk_rate_mhz, BULK_OFFSET + BULK_SLOPE * 4.4, rel_tol=1e-12
        )

    def test_elevated_structured_rate_stays_in_band(self):
        bulk = FitResult(1, BULK_OFFSET, BULK_SLOPE, 0.36, 0.04, 0.0, 8)
        pnc = FitResult(3, PNC_OFFSET, PNC_CUBIC, 0.06, 2e-5, 0.0, 10)
        report = crossing_report(bulk, pnc, 4.4, 20.0)
        expected = (PNC_OFFSET + PNC_CUBIC * 20.0**3) / (
            BULK_OFFSET + BULK_SLOPE * 4.4
        )
        assert math.isclose(report.ratio, expected, rel_tol=1e-12)
        assert 0.8 < report.ratio < 1.4

    def test_identical_fits_same_temperature_give_unity(self):
        fit = FitResult(3, PNC_OFFSET, PNC_CUBIC, 0.06, 2e-5, 0.0, 10)
        assert crossing_report(fit, fit, 10.0, 10.0).ratio == 1.0

    def test_rejects_nonpositive_temperatures(self):
        fit = FitResult(1, 1.0, 1.0, 0.0, 0.0, 0.0, 1)
        with pytest.raises(InvalidParameterError, match="positive"):
            crossing_report(fit, fit, 0.0, 10.0)

    def test_report_is_a_value_object(self):
        report = CrossingReport(2.0, 3.0, 4.4, 20.0)
        assert report.ratio == 1.5
        assert report.t_elevated_k == 20.0
