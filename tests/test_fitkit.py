"""Curve-fit engine, measurement models, and conic fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonogap import fitkit
from phonogap.errors import FitError, InvalidParameterError, NonConvergenceError

RNG_PARAMS = {
    "recovery": [3.4],
    "waist": [11.0, 4.9, 0.8, 2.2],
}


def ellipse_points(cx, cy, a, b, phi, n=60, arc=(0.0, 2.0 * math.pi)):
    t = np.linspace(arc[0], arc[1], n, endpoint=abs(arc[1] - arc[0]) < 6.2)
    x = cx + a * np.cos(t) * math.cos(phi) - b * np.sin(t) * math.sin(phi)
    y = cy + a * np.cos(t) * math.sin(phi) + b * np.sin(t) * math.cos(phi)
    return np.stack([x, y], axis=1)


def waist_profile(x, thickness, curvature=0.05, softening=30.0, x0=0.0):
    q = x - x0
    return thickness / 2.0 + curvature * q * q / (1.0 + np.abs(q) / softening)


def finite_difference_jacobian(model, x, params):
    fd = np.empty((x.size, params.size))
    for j in range(params.size):
        h = 1e-7 * max(abs(params[j]), 1.0)
        plus, minus = params.copy(), params.copy()
        plus[j] += h
        minus[j] -= h
        fd[:, j] = (model.predict(x, plus) - model.predict(x, minus)) / (2 * h)
    return fd


class TestModelJacobians:
    @pytest.mark.parametrize("tag", sorted(fitkit.MODELS))
    def test_analytic_matches_finite_difference(self, tag):
        model = fitkit.MODELS[tag]
        x = np.linspace(0.3, 9.7, 23)
        params = np.asarray(RNG_PARAMS[tag], dtype=float)
        jac = model.jacobian(x, params)
        fd = finite_difference_jacobian(model, x, params)
        scale = max(1.0, float(np.max(np.abs(jac))))
        assert np.max(np.abs(jac - fd)) < 1e-6 * scale

    @pytest.mark.parametrize("tag", sorted(fitkit.MODELS))
    @given(scale=st.floats(0.2, 4.0), shift=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_jacobian_across_parameter_space(self, tag, scale, shift):
        model = fitkit.MODELS[tag]
        x = np.linspace(0.3, 9.7, 17) + shift
        params = np.asarray(RNG_PARAMS[tag], dtype=float) * scale
        jac = model.jacobian(x, params)
        fd = finite_difference_jacobian(model, x, params)
        tol = 1e-6 * max(1.0, float(np.max(np.abs(jac))))
        assert np.max(np.abs(jac - fd)) < tol


LINE = fitkit.CurveModel(
    "line",
    ("intercept", "slope"),
    lambda x, p: p[0] + p[1] * x,
    lambda x, p: np.stack([np.ones_like(x), x], axis=1),
)


def noisy_fits(rng, scale=1.0):
    """One seeded noisy fit of each kind the measurement chain runs, as
    (name, call) pairs; the data mimic imaged contours and recovery curves,
    in nm and ns, and ``scale`` multiplies every point and delay."""
    arc = np.linspace(0.0, math.pi / 2.0, 15)
    fillet = np.stack([12.0 * np.cos(arc), 12.0 * np.sin(arc)], axis=1)
    x = np.linspace(-30.0, 30.0, 21)
    edge = np.stack([x, waist_profile(x, 20.0, softening=40.0)], axis=1)
    taus = np.linspace(2.0, 170.0, 16)
    block = ellipse_points(0.0, 0.0, 45.0, 43.0, 0.0, n=40)
    data = {
        "ellipse": scale * (block + rng.normal(0.0, 0.2, block.shape)),
        "circle": scale * (fillet + rng.normal(0.0, 0.2, fillet.shape)),
        "waist": scale * (edge + rng.normal(0.0, 0.2, edge.shape)),
        "recovery": 1.0 - np.exp(-taus / 34.0) + rng.normal(0.0, 0.02, taus.size),
    }
    taus = scale * taus
    return [
        ("ellipse", lambda: fitkit.fit_ellipse(data["ellipse"])),
        ("circle", lambda: fitkit.fit_circle(data["circle"])),
        ("waist", lambda: fitkit.fit_tether_width(
            data["waist"], data["waist"] * np.array([1.0, -1.0]))),
        ("recovery", lambda: fitkit.fit_recovery(taus, data["recovery"])),
    ]


def recorded_engine_runs(patch):
    """Wrap the engine so each run records its residual and Jacobian
    functions, the points it evaluates them at (in order) and its result."""
    engine = fitkit._levenberg_marquardt
    runs = []

    def spy(residual, jacobian, params):
        run = {"residual": residual, "jacobian": jacobian, "calls": []}
        runs.append(run)

        def logged(kind, func):
            def call(p):
                run["calls"].append((kind, p.copy()))
                return func(p)
            return call

        run["result"] = engine(logged("residual", residual),
                               logged("jacobian", jacobian), params)
        return run["result"]

    patch.setattr(fitkit, "_levenberg_marquardt", spy)
    return runs


def gauss_newton_decrement(run, params):
    """|J s|^2 at ``params``, s the least-squares Gauss-Newton step, and
    its round-off bound m EPS wrss, m residuals with sum of squares wrss.

    The Jacobian's columns are scaled to unit norm first, as the engine
    does; that leaves |J s|^2 as it is and the rank cutoff unit-free."""
    resid = run["residual"](params)
    jac = run["jacobian"](params)
    norms = np.linalg.norm(jac, axis=0)
    jac = jac / np.where(norms == 0, 1.0, norms)
    predicted = jac @ np.linalg.lstsq(jac, resid, rcond=None)[0]
    return (float(predicted @ predicted),
            resid.size * fitkit.EPS * float(resid @ resid))


class TestEngine:
    def test_zero_iterations_when_started_at_optimum(self):
        taus = np.linspace(5.0, 200.0, 12)
        data = 1.0 - np.exp(-taus / 34.0)
        result = fitkit.fit_nonlinear(
            fitkit.MODELS["recovery"], taus, data, None, [34.0]
        )
        assert result.n_iterations == 0
        assert result.params[0] == 34.0

    def test_linear_model_reaches_exact_least_squares(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 10.0, 30)
        y = 2.0 + 0.7 * x + rng.normal(0.0, 0.3, x.size)
        result = fitkit.fit_nonlinear(LINE, x, y, None, [0.0, 0.0])
        design = np.stack([np.ones_like(x), x], axis=1)
        exact, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(result.params, exact, atol=1e-9)
        assert result.n_iterations < 12

    @pytest.mark.parametrize("name", ["ellipse", "circle", "waist", "recovery"])
    def test_no_residual_after_the_decrement_falls_below_round_off(
            self, monkeypatch, name):
        # Once the full Gauss-Newton step predicts less than the rounding
        # error of the sum of squares, the engine returns without another
        # trial.
        runs = recorded_engine_runs(monkeypatch)
        stops = 0
        for seed in range(8):
            fit = dict(noisy_fits(np.random.default_rng(seed)))[name]
            del runs[:]
            fit()
            for run in runs:
                calls = run["calls"]
                for i, (kind, params) in enumerate(calls):
                    if kind != "jacobian":
                        continue
                    decrement, bound = gauss_newton_decrement(run, params)
                    if decrement <= bound:
                        assert i == len(calls) - 1
                        assert run["result"][3] == "converged"
                        stops += 1
        # Most seeded fits end on this stop, a few on an accepted trial that
        # leaves the sum as it is.
        assert stops >= 6

    def test_rank_deficient_jacobian_does_not_stop_early(self):
        # Two slopes of the same column: the Jacobian has rank 2 of 3, and
        # the decrement still measures the whole reducible residual.
        twin = fitkit.CurveModel(
            "twin-slope", ("intercept", "slope", "slope_twin"),
            lambda x, p: p[0] + (p[1] + p[2]) * x,
            lambda x, p: np.stack([np.ones_like(x), x, x], axis=1),
        )
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 10.0, 30)
        y = 2.0 + 0.7 * x + rng.normal(0.0, 0.3, x.size)
        result = fitkit.fit_nonlinear(twin, x, y, None, [0.0, 0.0, 0.0])
        design = np.stack([np.ones_like(x), x], axis=1)
        _, (best,), _, _ = np.linalg.lstsq(design, y, rcond=None)
        assert result.n_iterations > 0
        assert abs(result.wrss - best) <= 1e-12 * best

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_restart_from_own_result(self, seed):
        # A fit ends where the decrement test holds, or at the point before
        # an accepted trial that left the sum as it was; either way a
        # restart there takes no step.
        with pytest.MonkeyPatch.context() as patch:
            runs = recorded_engine_runs(patch)
            for _, fit in noisy_fits(np.random.default_rng(seed)):
                fit()
        for run in runs:
            params, wrss, _, _ = run["result"]
            again, again_wrss, n_iter, status = fitkit._levenberg_marquardt(
                run["residual"], run["jacobian"], params)
            assert status == "converged"
            assert n_iter == 0
            np.testing.assert_array_equal(again, params)
            assert again_wrss == wrss

    def test_iteration_cap_raises_with_best_parameters(self, monkeypatch):
        x = np.linspace(-10.0, 10.0, 40)
        y = fitkit.MODELS["waist"].predict(
            x, np.array([11.0, 0.6, 0.8, 2.2])
        )
        monkeypatch.setattr(fitkit, "MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError, match="exceeded 1 ") as err:
            fitkit.fit_nonlinear(
                fitkit.MODELS["waist"], x, y, None, [9.0, -1.0, 0.5, 4.0]
            )
        best = err.value.best
        assert best is not None
        assert best.tag == "waist"
        assert np.isfinite(best.wrss)

    def test_weighted_residual_sum_definition(self):
        x = np.linspace(0.0, 4.0, 9)
        y = 1.0 + 2.0 * x
        sigma = np.full(9, 0.5)
        result = fitkit.fit_nonlinear(LINE, x, y + 0.5, sigma, [1.5, 2.0])
        # Best fit absorbs the constant shift; residuals vanish.
        assert result.wrss < 1e-18
        off = fitkit.fit_nonlinear(LINE, x, y, sigma, [1.0, 2.0])
        assert off.wrss < 1e-18

    def test_sigma_validation(self):
        x = np.linspace(0.0, 4.0, 9)
        with pytest.raises(InvalidParameterError):
            fitkit.fit_nonlinear(LINE, x, x, np.zeros(9), [0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            fitkit.fit_nonlinear(LINE, x, x, np.ones(4), [0.0, 1.0])

    def test_unweighted_errors_scale_with_scatter(self):
        rng = np.random.default_rng(8)
        x = np.linspace(0.0, 10.0, 60)
        y = 1.0 + 0.5 * x
        small = fitkit.fit_nonlinear(
            LINE, x, y + rng.normal(0, 0.1, 60), None, [1.0, 0.5]
        )
        large = fitkit.fit_nonlinear(
            LINE, x, y + rng.normal(0, 1.0, 60), None, [1.0, 0.5]
        )
        ratio = large.stderr[1] / small.stderr[1]
        assert 5.0 < ratio < 20.0


def returned_values(name, fit):
    """Each value a fit of ``noisy_fits`` returns, as (value, power of the
    data's unit it carries) pairs: its parameters and their errors."""
    if name == "recovery":
        return [(fit["t1"], 1), (fit.error_of("t1"), 1)]
    if name == "waist":
        values = [(fit.width_nm, 1), (fit.waist_x_nm, 1)]
        for edge in (fit.upper, fit.lower):
            # y0, x0 and the softening are lengths, the curvature per length.
            powers = (1, 1, -1, 1)
            values += list(zip(edge.params, powers))
            values += list(zip(edge.stderr, powers))
        return values
    return [(value, 0 if field == "rotation_rad" else 1)
            for field, value in vars(fit).items()]


class TestUnitEquivariance:
    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1e3, 1e9])
    def test_scaled_data_give_scaled_fits(self, scale):
        # The same contours in metres or picometres, the same delays in
        # seconds: every fit stops on unit-free tests, so its parameters
        # and errors carry the scale and nothing else.
        for seed in range(8):
            fits = noisy_fits(np.random.default_rng(seed))
            scaled = noisy_fits(np.random.default_rng(seed), scale)
            for (name, fit), (_, scaled_fit) in zip(fits, scaled):
                expected = returned_values(name, fit())
                for (value, power), (reference, _) in zip(
                        returned_values(name, scaled_fit()), expected):
                    assert value / scale**power == pytest.approx(
                        reference, rel=1e-8), (name, seed)


class TestRecovery:
    def test_exact_noiseless_time_constant(self):
        taus = np.linspace(5.0, 200.0, 12)
        result = fitkit.fit_recovery(taus, 1.0 - np.exp(-taus / 34.0))
        assert abs(result["t1"] - 34.0) < 1e-9
        assert np.isfinite(result.error_of("t1"))

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fitkit.fit_recovery([10.0, 20.0], [0.2, 0.4])

    def test_all_nonpositive_ratios(self):
        with pytest.raises(FitError, match="non-positive"):
            fitkit.fit_recovery([1.0, 2.0, 3.0], [0.0, -0.1, 0.0])

    def test_saturated_ratios_not_identifiable(self):
        with pytest.raises(FitError, match="identifiable"):
            fitkit.fit_recovery([100.0, 200.0, 300.0], [1.0, 1.0, 1.0])


class TestEllipse:
    def test_exact_recovery(self):
        pts = ellipse_points(12.0, -7.0, 47.85, 44.95, 0.3)
        fit = fitkit.fit_ellipse(pts)
        assert abs(fit.semi_x - 47.85) < 1e-9
        assert abs(fit.semi_y - 44.95) < 1e-9
        assert abs(fit.center_x - 12.0) < 1e-9
        assert abs(fit.center_y + 7.0) < 1e-9
        assert abs(fit.rotation_rad - 0.3) < 1e-9
        assert fit.rms_distance < 1e-10

    @pytest.mark.parametrize("phi", [-1.2, -0.7, 0.1, 0.7, 1.2, 2.9])
    def test_first_axis_within_45_degrees_of_x(self, phi):
        # The axis reported first is the one nearer x, whichever is longer.
        fit = fitkit.fit_ellipse(ellipse_points(0.0, 0.0, 47.85, 30.0, phi))
        turn = round(phi / (math.pi / 2.0))
        expected = (47.85, 30.0) if turn % 2 == 0 else (30.0, 47.85)
        assert abs(fit.rotation_rad) < math.pi / 4.0
        assert abs(fit.rotation_rad - (phi - turn * math.pi / 2.0)) < 1e-9
        np.testing.assert_allclose((fit.semi_x, fit.semi_y), expected, atol=1e-9)

    def test_circle_reports_zero_rotation(self):
        pts = ellipse_points(3.0, 4.0, 20.0, 20.0, 1.1)
        fit = fitkit.fit_ellipse(pts)
        assert fit.rotation_rad == 0.0
        assert abs(fit.semi_x - 20.0) < 1e-8
        assert abs(fit.semi_y - 20.0) < 1e-8

    def test_monte_carlo_axis_errors_within_bound(self):
        base = ellipse_points(12.0, -7.0, 47.85, 44.95, 0.3)
        errors = []
        for trial in range(25):
            rng = np.random.default_rng(100 + trial)
            fit = fitkit.fit_ellipse(base + rng.normal(0.0, 1.0, base.shape))
            errors.append([abs(fit.semi_x - 47.85), abs(fit.semi_y - 44.95)])
        mean_err = np.mean(errors, axis=0)
        assert np.all(mean_err < 3.0 / math.sqrt(60.0))

    def test_analytic_jacobian_matches_central_differences(self):
        pts = ellipse_points(12.0, -7.0, 47.85, 44.95, 0.3)
        pts = pts + np.random.default_rng(11).normal(0.0, 1.0, pts.shape)
        geom = np.array([11.5, -6.8, 48.3, 44.1, 0.35])
        jac = fitkit._ellipse_jacobian(pts, geom)
        fd = np.empty_like(jac)
        for j in range(geom.size):
            h = 1e-6 * max(abs(geom[j]), 1.0)
            plus, minus = geom.copy(), geom.copy()
            plus[j] += h
            minus[j] -= h
            fd[:, j] = (fitkit._ellipse_distances(pts, plus)
                        - fitkit._ellipse_distances(pts, minus)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6 * np.max(np.abs(fd))

    def test_collinear_points_rejected(self):
        x = np.linspace(0.0, 10.0, 8)
        with pytest.raises(FitError):
            fitkit.fit_ellipse(np.stack([x, 2.0 * x + 1.0], axis=1))

    def test_too_few_points(self):
        pts = ellipse_points(0.0, 0.0, 5.0, 3.0, 0.0, n=5)
        with pytest.raises(FitError):
            fitkit.fit_ellipse(pts[:5])

    def test_deterministic(self):
        pts = ellipse_points(1.0, 2.0, 30.0, 22.0, 0.7)
        pts = pts + np.random.default_rng(42).normal(0.0, 0.5, pts.shape)
        a = fitkit.fit_ellipse(pts)
        b = fitkit.fit_ellipse(pts)
        assert a == b

    @given(
        angle=st.floats(-3.0, 3.0),
        dx=st.floats(-50.0, 50.0),
        dy=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_equivariance_under_rigid_motion(self, angle, dx, dy):
        pts = ellipse_points(2.0, -1.0, 18.0, 11.0, 0.4, n=40)
        pts = pts + np.random.default_rng(7).normal(0.0, 0.1, pts.shape)
        rot = np.array(
            [
                [math.cos(angle), -math.sin(angle)],
                [math.sin(angle), math.cos(angle)],
            ]
        )
        moved = pts @ rot.T + np.array([dx, dy])
        ref = fitkit.fit_ellipse(pts)
        fit = fitkit.fit_ellipse(moved)
        expected_center = rot @ np.array([ref.center_x, ref.center_y]) + (
            np.array([dx, dy])
        )
        assert abs(fit.center_x - expected_center[0]) < 1e-6
        assert abs(fit.center_y - expected_center[1]) < 1e-6
        # A turn can bring the other axis within 45 degrees of x.
        np.testing.assert_allclose(sorted((fit.semi_x, fit.semi_y)),
                                   sorted((ref.semi_x, ref.semi_y)), atol=1e-6)


class TestCircle:
    def test_quarter_arc_exact(self):
        t = np.linspace(0.0, math.pi / 2.0, 25)
        pts = np.stack(
            [3.0 + 16.9 * np.cos(t), -2.0 + 16.9 * np.sin(t)], axis=1
        )
        fit = fitkit.fit_circle(pts)
        assert abs(fit.radius - 16.9) < 1e-9
        assert abs(fit.center_x - 3.0) < 1e-9
        assert abs(fit.center_y + 2.0) < 1e-9

    def test_three_points_give_circumcircle(self):
        fit = fitkit.fit_circle([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert abs(fit.center_x) < 1e-12
        assert abs(fit.center_y) < 1e-12
        assert abs(fit.radius - 1.0) < 1e-12

    def test_short_arc_bias_is_bounded(self):
        t = np.linspace(0.0, math.pi / 6.0, 20)
        base = np.stack(
            [3.0 + 16.9 * np.cos(t), -2.0 + 16.9 * np.sin(t)], axis=1
        )
        radii = []
        for trial in range(40):
            rng = np.random.default_rng(900 + trial)
            radii.append(
                fitkit.fit_circle(base + rng.normal(0.0, 0.1, base.shape)).radius
            )
        assert abs(np.mean(radii) - 16.9) < 0.5

    def test_collinear_rejected(self):
        x = np.linspace(0.0, 5.0, 6)
        with pytest.raises(FitError):
            fitkit.fit_circle(np.stack([x, -0.5 * x + 2.0], axis=1))

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fitkit.fit_circle([[0.0, 0.0], [1.0, 1.0]])

    @given(
        angle=st.floats(-3.0, 3.0),
        dx=st.floats(-30.0, 30.0),
        dy=st.floats(-30.0, 30.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_equivariance_under_rigid_motion(self, angle, dx, dy):
        t = np.linspace(0.2, 2.0, 15)
        pts = np.stack([5.0 + 8.0 * np.cos(t), 1.0 + 8.0 * np.sin(t)], axis=1)
        pts = pts + np.random.default_rng(3).normal(0.0, 0.05, pts.shape)
        rot = np.array(
            [
                [math.cos(angle), -math.sin(angle)],
                [math.sin(angle), math.cos(angle)],
            ]
        )
        ref = fitkit.fit_circle(pts)
        fit = fitkit.fit_circle(pts @ rot.T + np.array([dx, dy]))
        expected = rot @ np.array([ref.center_x, ref.center_y]) + np.array(
            [dx, dy]
        )
        assert abs(fit.radius - ref.radius) < 1e-7
        assert abs(fit.center_x - expected[0]) < 1e-7
        assert abs(fit.center_y - expected[1]) < 1e-7


class TestTetherWidth:
    def test_exact_recovery(self):
        x = np.linspace(-40.0, 40.0, 41)
        prof = waist_profile(x, 22.1)
        fit = fitkit.fit_tether_width(
            np.stack([x, prof], axis=1), np.stack([x, -prof], axis=1)
        )
        assert abs(fit.width_nm - 22.1) < 1e-6
        assert abs(fit.waist_x_nm) < 1e-6

    def test_mirror_symmetric_data_centers_waist(self):
        x = np.linspace(-30.0, 42.0, 37)  # symmetric about x = 6
        rng = np.random.default_rng(21)
        noise = rng.normal(0.0, 0.3, x.size)
        sym_noise = 0.5 * (noise + noise[::-1])
        prof = waist_profile(x, 18.0, x0=6.0) + sym_noise
        fit = fitkit.fit_tether_width(
            np.stack([x, prof], axis=1), np.stack([x, -prof], axis=1)
        )
        assert abs(fit.waist_x_nm - 6.0) < 1e-6

    def test_monte_carlo_width_error(self):
        x = np.linspace(-40.0, 40.0, 41)
        prof = waist_profile(x, 22.1)
        errors = []
        for trial in range(60):
            rng = np.random.default_rng(500 + trial)
            fit = fitkit.fit_tether_width(
                np.stack([x, prof + rng.normal(0.0, 0.5, x.size)], axis=1),
                np.stack([x, -prof + rng.normal(0.0, 0.5, x.size)], axis=1),
            )
            errors.append(abs(fit.width_nm - 22.1))
        assert np.mean(errors) < 0.5

    @pytest.mark.parametrize("order", ["shuffled", "waist-first", "waist-last"])
    def test_point_order_does_not_matter(self, order):
        # The waist is interior in x however the points are listed; the
        # lowest point may come first or last.
        x = np.linspace(-40.0, 40.0, 41)
        prof = waist_profile(x, 22.0, x0=4.0)  # one lowest point, at x = 4
        upper, lower = np.stack([x, prof], axis=1), np.stack([x, -prof], axis=1)
        ref = fitkit.fit_tether_width(upper, lower)
        if order == "shuffled":
            idx = np.random.default_rng(11).permutation(x.size)
        else:
            waist = int(np.argmin(prof))
            rest = np.delete(np.arange(x.size), waist)
            idx = np.r_[waist, rest] if order == "waist-first" else np.r_[rest, waist]
        fit = fitkit.fit_tether_width(upper[idx], lower[idx])
        assert ref.width_nm == pytest.approx(22.0, abs=1e-6)
        assert fit.width_nm == pytest.approx(ref.width_nm, abs=1e-9)
        assert fit.waist_x_nm == pytest.approx(ref.waist_x_nm, abs=1e-9)

    def test_edges_in_either_order(self):
        # The edge of larger mean height is the upper one, whichever comes
        # first.
        x = np.linspace(-40.0, 40.0, 41)
        rng = np.random.default_rng(5)
        upper = np.stack([x, waist_profile(x, 20.0) + rng.normal(0.0, 0.2, x.size)],
                         axis=1)
        lower = np.stack([x, -waist_profile(x, 24.0, x0=2.0)], axis=1)
        ref = fitkit.fit_tether_width(upper, lower)
        swapped = fitkit.fit_tether_width(lower, upper)
        assert (swapped.width_nm, swapped.waist_x_nm) == (ref.width_nm, ref.waist_x_nm)
        for edge in ("upper", "lower"):
            np.testing.assert_array_equal(getattr(swapped, edge).params,
                                          getattr(ref, edge).params)
        assert ref.upper["y0"] == pytest.approx(10.0, abs=0.2)
        assert ref.lower["y0"] == pytest.approx(12.0, abs=1e-6)

    def test_monotone_edge_rejected(self):
        x = np.linspace(0.0, 10.0, 12)
        rising = np.stack([x, 5.0 + 0.3 * x], axis=1)
        good = np.stack([x, -waist_profile(x, 10.0, x0=5.0)], axis=1)
        with pytest.raises(FitError, match="monotone"):
            fitkit.fit_tether_width(rising, good)

    def test_too_few_edge_points(self):
        x = np.linspace(-5.0, 5.0, 4)
        pts = np.stack([x, waist_profile(x, 10.0)], axis=1)
        with pytest.raises(FitError):
            fitkit.fit_tether_width(pts, pts * np.array([1.0, -1.0]))
