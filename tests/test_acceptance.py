"""End-to-end acceptance checks for the whole pipeline.

Each class exercises one headline capability: gap reproduction against the
design targets, density-of-states depletion, fabrication-tolerance response,
rate-model identities, pump-probe lifetime roundtrips, temperature-fit
recovery, the structured-vs-reference rate crossing, contour-ensemble
geometry statistics, and the FEM/fit oracles.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from phonogap import dynamics, elastics, fitkit, tempfit
from phonogap.elastics import band_diagram, make_bloch_problem, solve_bands
from phonogap.geometry import (
    DIAMOND,
    UnitCellParams,
    build_nanobeam_mesh,
    build_unit_cell_mesh,
)
from phonogap.rates import (
    KB_OVER_H_GHZ_PER_K,
    OrbitalSystem,
    RateModel,
    raman_rate,
    single_phonon_rates,
    total_relaxation,
)
from phonogap.spectrum import (
    compute_dos,
    default_k_path,
    find_complete_gaps,
    primary_gap,
)
from test_rates import raman_quadrature
from test_spectrum import integrated

# Design targets for the complete gap of the nominal cell.
TARGET_CENTER_GHZ = 59.1
TARGET_WIDTH_GHZ = 17.3

# Nominal fabrication spread (one standard deviation) per cell parameter.
PARAM_SD_NM = {"w": 4.9, "h": 4.2, "t": 3.0, "r": 5.6, "a": 2.6, "d": 3.7}

# Nominal rate-vs-temperature models: offset (MHz) and power coefficient.
BULK_LINEAR = (1.47, 0.68, 1)
PNC_CUBIC = (0.52, 6.3e-4, 3)

COARSE_RES = (10, 8, 4)
REFINEMENT = [(10, 8, 4), (13, 10, 5), (16, 12, 6)]


def gap_pipeline(params, resolution, n_kpoints=16, n_modes=30):
    mesh = build_unit_cell_mesh(params, resolution)
    bands = band_diagram(mesh, DIAMOND, default_k_path(n_kpoints), n_modes)
    return bands, find_complete_gaps(bands, 100.0)


def resolvable_gaps(bands, gaps):
    """Drop gaps narrower than the k-sampling resolution.

    Between adjacent k samples a band can move by up to the largest observed
    step, so an apparent gap narrower than that step cannot be certified:
    an unsampled wavevector could close it.
    """
    step = float(np.abs(np.diff(bands.frequencies_ghz, axis=0)).max())
    return [g for g in gaps if g.width_ghz > step]


@pytest.fixture(scope="module")
def refinement_study():
    start = time.perf_counter()
    results = [gap_pipeline(UnitCellParams(), res) for res in REFINEMENT]
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def coarse_gap():
    mesh = build_unit_cell_mesh(UnitCellParams(), COARSE_RES)
    bands = band_diagram(mesh, DIAMOND, default_k_path(12), 30)
    gap = primary_gap(find_complete_gaps(bands, 100.0), (30.0, 100.0))
    assert gap is not None
    return gap


class TestGapReproduction:
    def test_single_gap_within_target_tolerances(self, refinement_study):
        results, elapsed = refinement_study
        bands, gaps = results[-1]
        assert bands.n_dofs_reduced <= 6000
        assert elapsed < 600.0
        in_window = [
            g for g in resolvable_gaps(bands, gaps)
            if 30.0 <= g.center_ghz <= 100.0
        ]
        assert len(in_window) == 1
        gap = in_window[0]
        assert abs(gap.center_ghz - TARGET_CENTER_GHZ) / TARGET_CENTER_GHZ < 0.15
        assert abs(gap.width_ghz - TARGET_WIDTH_GHZ) / TARGET_WIDTH_GHZ < 0.30

    def test_refinement_moves_center_toward_target(self, refinement_study):
        results, _ = refinement_study
        centers = []
        for bands, gaps in results:
            gap = primary_gap(resolvable_gaps(bands, gaps), (30.0, 100.0))
            assert gap is not None
            centers.append(gap.center_ghz)
        errors = [abs(c - TARGET_CENTER_GHZ) for c in centers]
        assert errors[0] > errors[1] > errors[2]


class TestDosDepletion:
    BROADENING = 0.5

    def test_gap_region_is_depleted(self):
        mesh = build_unit_cell_mesh(UnitCellParams(), COARSE_RES)
        bands = band_diagram(mesh, DIAMOND, default_k_path(40), 30)
        gap = primary_gap(find_complete_gaps(bands, 100.0), (30.0, 100.0))
        dos = compute_dos(bands, self.BROADENING)
        grid, rho = dos.frequency_ghz, dos.dos_per_ghz
        # The Gaussian kernel smears each band edge by its own width, so
        # "inside the gap" means clear of that resolution limit.
        margin = 5.0 * self.BROADENING
        inside = (grid >= gap.f_lo_ghz + margin) & (grid <= gap.f_hi_ghz - margin)
        outside = (
            (grid > 1.0) & (grid < 90.0)
            & ((grid < gap.f_lo_ghz - margin) | (grid > gap.f_hi_ghz + margin))
        )
        assert inside.sum() > 100
        depleted_max = rho[inside].max()
        baseline = np.median(rho[outside])
        assert depleted_max < 1e-3 * baseline

    def test_uniform_beam_keeps_states_in_the_gap_band(self):
        mesh = build_nanobeam_mesh(90.0, 70.0, 129.6, (5, 4, 4))
        bands = band_diagram(mesh, DIAMOND, default_k_path(64), 16)
        # Four branches emerge from zero frequency: compression, torsion,
        # and two flexural polarizations.
        gamma = bands.frequencies_ghz[0]
        assert np.all(gamma[:4] < 0.5)
        assert gamma[4] > 30.0
        first_k = bands.frequencies_ghz[1]
        assert np.all(first_k[:4] > 0.0)
        dos = compute_dos(bands, self.BROADENING)
        window = (dos.frequency_ghz >= 50.0) & (dos.frequency_ghz <= 70.0)
        assert dos.dos_per_ghz[window].min() > 0.02
        assert integrated(dos, 50.0, 70.0) > 1.0


class TestFabricationTolerance:
    def test_tether_width_drives_gap_width(self, coarse_gap):
        for t in (22.1 - 3.0, 22.1 + 3.0):
            _, gaps = gap_pipeline(UnitCellParams(t=t), COARSE_RES, n_kpoints=12)
            gap = primary_gap(gaps, (30.0, 100.0))
            assert gap is not None
            change = abs(gap.width_ghz - coarse_gap.width_ghz)
            assert 0.10 * coarse_gap.width_ghz < change < 0.30 * coarse_gap.width_ghz

    @pytest.mark.parametrize("param", sorted(PARAM_SD_NM))
    def test_one_sigma_shifts_center_below_4pct(self, param, coarse_gap):
        base = UnitCellParams()
        for sign in (-1.0, 1.0):
            value = getattr(base, param) + sign * PARAM_SD_NM[param]
            mesh = build_unit_cell_mesh(
                replace(base, **{param: value}), COARSE_RES
            )
            bands = band_diagram(mesh, DIAMOND, default_k_path(12), 30)
            gap = primary_gap(find_complete_gaps(bands, 100.0), (30.0, 100.0))
            assert gap is not None
            shift = abs(gap.center_ghz - coarse_gap.center_ghz)
            assert shift / coarse_gap.center_ghz < 0.04


class TestRateIdentities:
    def test_identities_hold_and_run_fast(self):
        start = time.perf_counter()
        system = OrbitalSystem(delta_gs_ghz=46.0)
        model = RateModel(chi_rho=2.1e-8, chi_rho_sq=4.3e-13)

        for t_k in (1.5, 4.4, 20.0, 77.0):
            up, down = single_phonon_rates(system, model, t_k)
            boltzmann = math.exp(46.0 / (KB_OVER_H_GHZ_PER_K * t_k))
            assert down / up == pytest.approx(boltzmann, rel=1e-12)

        for t_k in (2.0, 4.4, 12.0, 20.0):
            closed = raman_rate(system, model, t_k)
            numeric = raman_quadrature(system, model, t_k)
            assert numeric == pytest.approx(closed, rel=1e-6)

        # High-temperature limit: occupation ~ theta/delta makes the
        # one-phonon sum linear in temperature.
        t_hot = 50.0 * 46.0 / KB_OVER_H_GHZ_PER_K
        up, down = single_phonon_rates(system, model, t_hot)
        theta = KB_OVER_H_GHZ_PER_K * t_hot
        asymptote = 4.0 * math.pi * model.chi_rho * 46.0**2 * theta
        assert (up + down) == pytest.approx(asymptote, rel=0.01)
        assert time.perf_counter() - start < 1.0


class TestLifetimeRoundtrip:
    @pytest.mark.parametrize("t1,seed", [(34.0, 4), (486.0, 6)])
    def test_simulate_extract_fit_recovers_lifetime(self, t1, seed):
        start = time.perf_counter()
        total = 1.0e3 / t1
        system = dynamics.LevelSystem(
            gamma_up_mhz=0.35 * total, gamma_down_mhz=0.65 * total
        )
        taus = np.linspace(2.0, 5.0 * t1, 16)
        _, clean = dynamics.thermalization_curve(system, taus)
        ideal = 1.0 - np.exp(-taus / t1)
        assert np.max(np.abs(clean - ideal)) < 0.03
        _, noisy = dynamics.thermalization_curve(
            system, taus, noise=0.02, seed=seed
        )
        fitted = fitkit.fit_recovery(taus, noisy)
        assert abs(fitted["t1"] - t1) / t1 < 0.05
        assert time.perf_counter() - start < 30.0


class TestTemperatureFitRecovery:
    def synthetic(self, offset, coeff, exponent, seed, frac=0.08,
                  t_hi=26.0, n=12):
        rng = np.random.default_rng(seed)
        temps = np.linspace(4.4, t_hi, n)
        truth = offset + coeff * temps**exponent
        sigmas = frac * truth
        return tempfit.RateSeries(
            temps, truth + rng.normal(0.0, sigmas), sigmas
        )

    def test_linear_model_recovered_within_two_se(self):
        offset, coeff, exponent = BULK_LINEAR
        data = self.synthetic(offset, coeff, exponent, seed=0, frac=0.05,
                              t_hi=30.0, n=10)
        fit = tempfit.fit_power_model(data, exponent)
        assert abs(fit.a_mhz - offset) < 2.0 * fit.a_err_mhz
        assert abs(fit.b_mhz - coeff) < 2.0 * fit.b_err_mhz

    def test_cubic_model_recovered_within_two_se(self):
        offset, coeff, exponent = PNC_CUBIC
        data = self.synthetic(offset, coeff, exponent, seed=4)
        fit = tempfit.fit_power_model(data, exponent)
        assert abs(fit.a_mhz - offset) < 2.0 * fit.a_err_mhz
        assert abs(fit.b_mhz - coeff) < 2.0 * fit.b_err_mhz

    def test_model_selection_prefers_cubic_in_95_of_100_trials(self):
        offset, coeff, exponent = PNC_CUBIC
        wins = 0
        for seed in range(100):
            data = self.synthetic(offset, coeff, exponent, seed=seed)
            ranked = tempfit.select_model(data, (3, 5, 7))
            wins += ranked[0].exponent == 3
        assert wins >= 95


class TestRateCrossing:
    def test_structured_sample_at_20k_matches_reference_at_4k(self):
        bulk = tempfit.FitResult(
            BULK_LINEAR[2], BULK_LINEAR[0], BULK_LINEAR[1], 0.36, 0.04, 0.0, 8
        )
        pnc = tempfit.FitResult(
            PNC_CUBIC[2], PNC_CUBIC[0], PNC_CUBIC[1], 0.06, 2e-5, 0.0, 10
        )
        report = tempfit.crossing_report(bulk, pnc, 4.4, 20.0)
        assert 0.8 < report.ratio < 1.4


def ellipse_points(semi_x, semi_y, n=40):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([semi_x * np.cos(theta), semi_y * np.sin(theta)])


def arc_points(radius, n=15):
    theta = np.linspace(0.0, np.pi / 2.0, n)
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def tether_edges(width, n=21):
    x = np.linspace(-30.0, 30.0, n)
    y = width / 2.0 + 0.05 * x**2 / (1.0 + np.abs(x) / 40.0)
    upper = np.column_stack([x, y])
    lower = np.column_stack([x, -y])
    return upper, lower


class TestGeometryEnsembles:
    ENSEMBLE_SEED = 36
    N_CELLS = 73

    def draws(self):
        rng = np.random.default_rng(self.ENSEMBLE_SEED)
        return {
            name: rng.normal(getattr(UnitCellParams(), name),
                             PARAM_SD_NM[name], self.N_CELLS)
            for name in ("w", "h", "r", "t")
        }

    def test_seed_produces_representative_sample(self):
        # The acceptance bound on the ensemble mean is tighter than one
        # standard error, so the frozen seed must itself be representative;
        # checked here against the raw draws before any fitting.
        nominal = UnitCellParams()
        for name, values in self.draws().items():
            sd = PARAM_SD_NM[name]
            assert values.min() > 2.0
            assert abs(values.mean() - getattr(nominal, name)) < (
                0.5 * sd / math.sqrt(self.N_CELLS)
            )

    def test_ensemble_statistics_survive_the_fits(self):
        draws = self.draws()
        fitted = {"w": [], "h": [], "r": [], "t": []}
        for i in range(self.N_CELLS):
            ellipse = fitkit.fit_ellipse(
                ellipse_points(draws["w"][i] / 2.0, draws["h"][i] / 2.0)
            )
            fitted["w"].append(2.0 * ellipse.semi_x)
            fitted["h"].append(2.0 * ellipse.semi_y)
            fitted["r"].append(fitkit.fit_circle(arc_points(draws["r"][i])).radius)
            upper, lower = tether_edges(draws["t"][i])
            fitted["t"].append(fitkit.fit_tether_width(upper, lower).width_nm)
        nominal = UnitCellParams()
        for name, values in fitted.items():
            values = np.asarray(values)
            sd = PARAM_SD_NM[name]
            assert abs(values.mean() - getattr(nominal, name)) < (
                0.5 * sd / math.sqrt(self.N_CELLS)
            )
            assert abs(values.std(ddof=1) - sd) < 0.25 * sd

    def test_exact_conic_fits_recover_parameters_to_1e9(self):
        ellipse = fitkit.fit_ellipse(ellipse_points(47.85, 44.95))
        assert ellipse.semi_x == pytest.approx(47.85, abs=1e-9)
        assert ellipse.semi_y == pytest.approx(44.95, abs=1e-9)
        assert ellipse.center_x == pytest.approx(0.0, abs=1e-9)
        circle = fitkit.fit_circle(arc_points(16.9))
        assert circle.radius == pytest.approx(16.9, abs=1e-9)


class TestNumericalOracles:
    def test_rigid_body_modes_are_null_at_zero_wavenumber(self, refinement_study):
        results, _ = refinement_study
        bands, _ = results[0]
        assert bands.k_points[0] == 0.0
        assert np.all(bands.frequencies_ghz[0, :3] < 0.5)

    def test_thin_beam_compression_speed_matches_compliance(self):
        compliance = np.linalg.inv(DIAMOND.stiffness_voigt_pa())
        speed = math.sqrt(1.0 / compliance[0, 0] / DIAMOND.rho_kgm3)
        mesh = build_nanobeam_mesh(90.0, 70.0, 129.6, (6, 6, 4))
        k_red = 0.05
        expected_ghz = speed * k_red / (2.0 * mesh.period_m) / 1e9
        k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
        freqs, _ = solve_bands(
            make_bloch_problem(mesh, k_red, k_mat, m_mat), 6
        )
        assert freqs[3] == pytest.approx(expected_ghz, rel=0.03)

    @pytest.mark.parametrize("tag", sorted(fitkit.MODELS))
    def test_fit_model_jacobians_match_finite_differences(self, tag):
        model = fitkit.MODELS[tag]
        rng = np.random.default_rng(hash(tag) % 2**32)
        x = np.linspace(0.5, 30.0, 25)
        params = 0.5 + rng.uniform(0.5, 2.0, model.n_params)
        analytic = model.jacobian(x, params)
        step = 1e-6
        numeric = np.empty_like(analytic)
        for j in range(model.n_params):
            up = params.copy()
            down = params.copy()
            up[j] += step
            down[j] -= step
            numeric[:, j] = (
                model.predict(x, up) - model.predict(x, down)
            ) / (2.0 * step)
        scale = np.maximum(np.abs(analytic), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-6
