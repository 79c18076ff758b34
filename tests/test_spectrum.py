"""Spectrum tests: gap detection against an exhaustive-scan oracle, DOS
normalization, and parameter sweeps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from phonogap.elastics import BandStructure, band_diagram
from phonogap.errors import CoverageError, InvalidParameterError, SamplingError
from phonogap.geometry import DIAMOND, UnitCellParams, build_unit_cell_mesh
from phonogap.spectrum import (
    Gap,
    SweepPoint,
    _k_weights,
    band_extents,
    compute_dos,
    find_complete_gaps,
    parameter_sweep,
    primary_gap,
)


def integrated(dos, f_lo_ghz, f_hi_ghz):
    """Number of states of a ``DosCurve`` between the two frequencies
    (trapezoid rule over its samples in the window)."""
    mask = (dos.frequency_ghz >= f_lo_ghz) & (dos.frequency_ghz <= f_hi_ghz)
    assert mask.sum() >= 2, "fewer than two DOS samples in the window"
    return float(np.trapezoid(dos.dos_per_ghz[mask], dos.frequency_ghz[mask]))


def synthetic_bands(intervals, nk=7):
    """Bands sweeping linearly across the given (lo, hi) intervals.

    Rows are sorted ascending like solver output; sorting rearranges crossing
    curves into continuous branches but leaves the set of attained
    frequencies -- and therefore the gap structure -- unchanged.
    """
    k = np.linspace(0.0, 1.0, nk)
    cols = [lo + (hi - lo) * k for lo, hi in intervals]
    f = np.sort(np.stack(cols, axis=1), axis=1)
    return BandStructure(k_points=k, frequencies_ghz=f)


class TestGap:
    def test_center_and_width(self):
        gap = Gap(20.0, 35.0)
        assert gap.center_ghz == 27.5
        assert gap.width_ghz == 15.0

    @pytest.mark.parametrize("lo,hi", [(35.0, 20.0), (10.0, 10.0), (-1.0, 5.0),
                                       (math.nan, 5.0)])
    def test_rejects_bad_edges(self, lo, hi):
        with pytest.raises(InvalidParameterError):
            Gap(lo, hi)


class TestFindCompleteGaps:
    def test_two_band_example(self):
        bands = synthetic_bands([(10.0, 20.0), (35.0, 50.0)])
        gaps = find_complete_gaps(bands, f_max_ghz=30.0)
        assert len(gaps) == 1
        assert gaps[0].f_lo_ghz == pytest.approx(20.0)
        assert gaps[0].f_hi_ghz == pytest.approx(35.0)

    def test_gap_reported_with_full_extent(self):
        # Only the lower edge must sit below the threshold; the upper edge is
        # not cropped to it.
        bands = synthetic_bands([(10.0, 20.0), (90.0, 130.0)])
        gaps = find_complete_gaps(bands, f_max_ghz=60.0)
        assert len(gaps) == 1
        assert gaps[0].f_hi_ghz == pytest.approx(90.0)

    def test_no_gap_in_overlapping_bands(self):
        bands = synthetic_bands([(0.0, 50.0), (40.0, 80.0), (75.0, 130.0)])
        assert find_complete_gaps(bands, f_max_ghz=70.0) == []

    def test_insufficient_coverage_raises(self):
        bands = synthetic_bands([(0.0, 50.0), (60.0, 90.0)])
        with pytest.raises(CoverageError):
            find_complete_gaps(bands, f_max_ghz=100.0)

    def test_bad_threshold_rejected(self):
        bands = synthetic_bands([(0.0, 150.0)])
        with pytest.raises(InvalidParameterError):
            find_complete_gaps(bands, f_max_ghz=-5.0)

    def test_k_order_irrelevant(self):
        bands = synthetic_bands([(10.0, 20.0), (35.0, 130.0)])
        shuffled = BandStructure(
            k_points=bands.k_points,
            frequencies_ghz=bands.frequencies_ghz[::-1].copy(),
        )
        assert find_complete_gaps(bands, 30.0) == find_complete_gaps(shuffled, 30.0)

    @settings(max_examples=200, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 360), st.integers(2, 100)),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_exhaustive_scan(self, spans):
        # Oracle: work in integer quarter-GHz units and scan every unit for
        # band coverage; maximal uncovered runs between covered cells are the
        # exact gaps.  Endpoints are quarter-integers, so float comparisons
        # are exact.
        intervals = [(lo, lo + width) for lo, width in spans]
        sentinel = (520, 640)  # guarantees coverage past f_max
        scale = 0.25
        f_max_units = 400  # = 100 GHz

        # covered[c] says whether the open cell (c, c+1) meets any band;
        # maximal uncovered runs map exactly to gap intervals.
        covered = np.zeros(sentinel[1], dtype=bool)
        for lo, hi in intervals + [sentinel]:
            covered[lo:hi] = True
        start = min(lo for lo, _ in intervals)
        expected = []
        run = None
        for cell in range(start, sentinel[1]):
            if not covered[cell]:
                run = cell if run is None else run
            elif run is not None:
                if run < f_max_units:
                    expected.append((run * scale, cell * scale))
                run = None

        bands = synthetic_bands(
            [(lo * scale, hi * scale) for lo, hi in intervals + [sentinel]]
        )
        gaps = find_complete_gaps(bands, f_max_ghz=100.0)
        assert len(gaps) == len(expected)
        for gap, (lo, hi) in zip(gaps, expected):
            assert gap.f_lo_ghz == pytest.approx(lo, abs=1e-9)
            assert gap.f_hi_ghz == pytest.approx(hi, abs=1e-9)
        # Sorted by lower edge, per contract.
        assert [g.f_lo_ghz for g in gaps] == sorted(g.f_lo_ghz for g in gaps)


class TestPrimaryGap:
    def test_picks_widest_in_window(self):
        gaps = [Gap(32.0, 37.0), Gap(55.0, 70.0), Gap(80.0, 86.0)]
        assert primary_gap(gaps) == Gap(55.0, 70.0)

    def test_window_filters_centres(self):
        gaps = [Gap(2.0, 20.0), Gap(55.0, 60.0)]
        # The first gap is wider but centred below the window.
        assert primary_gap(gaps, (30.0, 100.0)) == Gap(55.0, 60.0)

    def test_none_when_no_candidate(self):
        assert primary_gap([Gap(2.0, 6.0)], (30.0, 100.0)) is None
        assert primary_gap([], (30.0, 100.0)) is None

    def test_bad_window(self):
        with pytest.raises(InvalidParameterError):
            primary_gap([], (50.0, 50.0))


class TestDos:
    def test_linear_band_matches_inverse_slope(self):
        # A single band rising linearly over the zone has constant DOS
        # 1/slope; the broadened estimate must sit on that plateau.
        slope = 50.0
        k = np.linspace(0.0, 1.0, 101)
        bands = BandStructure(k, (slope * k)[:, None])
        dos = compute_dos(bands, broadening_ghz=0.5)
        interior = (dos.frequency_ghz > 5.0) & (dos.frequency_ghz < 45.0)
        np.testing.assert_allclose(
            dos.dos_per_ghz[interior], 1.0 / slope, rtol=0.02
        )

    def test_each_band_integrates_to_one_state(self):
        k = np.linspace(0.0, 1.0, 81)
        f = np.stack([10.0 + 20.0 * k, 45.0 + 10.0 * k**2, 70.0 + 0.0 * k], axis=1)
        bands = BandStructure(k, f)
        dos = compute_dos(bands, broadening_ghz=0.5)
        assert np.trapezoid(dos.dos_per_ghz, dos.frequency_ghz) == pytest.approx(
            3.0, abs=1e-3
        )
        assert integrated(dos, 40.0, 60.0) == pytest.approx(1.0, abs=1e-3)

    def test_coarse_sampling_raises(self):
        k = np.linspace(0.0, 1.0, 5)
        bands = BandStructure(k, (80.0 * k)[:, None])
        with pytest.raises(SamplingError):
            compute_dos(bands, broadening_ghz=0.5)

    def test_invalid_inputs(self):
        k = np.linspace(0.0, 1.0, 9)
        bands = BandStructure(k, (10.0 * k)[:, None])
        with pytest.raises(InvalidParameterError):
            compute_dos(bands, broadening_ghz=0.0)
        with pytest.raises(SamplingError):
            compute_dos(BandStructure(k[:1], np.zeros((1, 1))), 0.5)
        decreasing = BandStructure(k[::-1].copy(), np.zeros((9, 1)))
        with pytest.raises(InvalidParameterError):
            compute_dos(decreasing, 0.5)

    def test_reference_cell_gap_depleted(self, reference_bands):
        # Consistency between the two spectral views: inside a complete gap
        # the broadened DOS must vanish to numerical precision.
        f = reference_bands.frequencies_ghz[:, :16]
        sub = BandStructure(reference_bands.k_points, f)
        step = float(np.abs(np.diff(f, axis=0)).max())
        sigma = max(0.5, step / 2.9)
        dos = compute_dos(sub, broadening_ghz=sigma)
        gap = primary_gap(find_complete_gaps(sub, f_max_ghz=80.0), (30.0, 80.0))
        assert gap is not None
        assert gap.width_ghz > 10.0
        centre_dos = float(
            np.interp(gap.center_ghz, dos.frequency_ghz, dos.dos_per_ghz)
        )
        assert centre_dos < 1e-8 * dos.dos_per_ghz.max()
        # All sixteen bands are accounted for once the kernel tails below
        # 0 GHz, which the grid does not hold, are added in closed form
        # (the acoustic bands start at zero).
        total = np.trapezoid(dos.dos_per_ghz, dos.frequency_ghz)
        below = _k_weights(sub.k_points) @ ndtr(-f / sigma).sum(axis=1)
        assert total + below == pytest.approx(16.0, abs=0.02)


class TestParameterSweep:
    RESOLUTION = (6, 5, 4)
    K_POINTS = np.linspace(0.0, 1.0, 7)
    SETTINGS = {"material": DIAMOND, "resolution": RESOLUTION,
                "k_points": K_POINTS, "n_modes": 26, "f_max_ghz": 100.0,
                "window_ghz": (30.0, 100.0)}

    def test_identity_point_matches_direct_pipeline(self):
        base = UnitCellParams()
        points = parameter_sweep(base, "t", [base.t], **self.SETTINGS)
        mesh = build_unit_cell_mesh(base, self.RESOLUTION)
        bands = band_diagram(mesh, DIAMOND, self.K_POINTS, 26)
        gap = primary_gap(find_complete_gaps(bands, 100.0), (30.0, 100.0))
        assert points == [SweepPoint(base.t, gap.center_ghz, gap.width_ghz)]

    def test_values_sorted_and_window_miss_is_zero_width(self):
        base = UnitCellParams()
        points = parameter_sweep(
            base, "t", [24.0, 21.0], **{**self.SETTINGS, "window_ghz": (5.0, 10.0)}
        )
        assert [p.value_nm for p in points] == [21.0, 24.0]
        for point in points:
            assert point.width_ghz == 0.0
            assert math.isnan(point.center_ghz)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError):
            parameter_sweep(UnitCellParams(), "q", [10.0], **self.SETTINGS)

    def test_invalid_geometry_propagates(self):
        with pytest.raises(InvalidParameterError):
            parameter_sweep(UnitCellParams(), "w", [200.0], **self.SETTINGS)


def test_band_extents_shape(reference_bands):
    extents = band_extents(reference_bands)
    assert extents.shape == (reference_bands.n_bands, 2)
    assert np.all(extents[:, 1] >= extents[:, 0])
