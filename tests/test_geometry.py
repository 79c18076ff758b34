"""Geometry tests: parameter validation, fillet construction, meshing.

The volume checks use an independent quadrature of the analytic outline
(scipy.integrate.quad on the half-width profile) rather than anything from
the meshing code path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from phonogap.errors import InvalidParameterError, MeshingError
from phonogap.geometry import (
    DIAMOND,
    NM,
    Material,
    UnitCellParams,
    _element_jacobians,
    build_nanobeam_mesh,
    build_unit_cell_mesh,
    half_width_profile,
    solve_fillet,
)


def mesh_volume(mesh):
    """Total solid volume in m^3 via element quadrature."""
    return float(_element_jacobians(mesh.element_corner_coords()).sum())


class TestUnitCellParams:
    def test_defaults_are_valid(self):
        UnitCellParams().validate()

    @pytest.mark.parametrize("field", ["w", "h", "a", "t", "r", "d"])
    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, field, bad):
        if field == "r" and bad == 0.0:
            pytest.skip("r = 0 legitimately disables the fillet")
        with pytest.raises(InvalidParameterError):
            UnitCellParams().replace(**{field: bad}).validate()

    def test_block_must_fit_within_period(self):
        with pytest.raises(InvalidParameterError):
            UnitCellParams().replace(w=140.0).validate()

    def test_tether_cannot_exceed_block_height(self):
        with pytest.raises(InvalidParameterError):
            UnitCellParams().replace(t=95.0).validate()

    def test_degenerate_rectangular_cell_is_valid(self):
        # t == h with no fillet collapses the outline to a straight strip.
        UnitCellParams().replace(t=89.9, r=0.0).validate()

    def test_replace_returns_modified_copy(self):
        base = UnitCellParams()
        other = base.replace(t=25.0)
        assert other.t == 25.0
        assert base.t == UnitCellParams().t
        assert other.w == base.w

    def test_oversized_fillet_rejected(self):
        with pytest.raises(InvalidParameterError):
            UnitCellParams().replace(r=80.0).validate()


class TestFillet:
    def test_no_fillet_when_radius_zero(self):
        assert solve_fillet(UnitCellParams().replace(r=0.0)) is None

    def test_tangency_conditions(self):
        params = UnitCellParams()
        arc = solve_fillet(params)
        ax, ay = params.w / 2.0, params.h / 2.0

        # Touch point lies on the ellipse.
        assert (arc.touch_x / ax) ** 2 + (arc.touch_y / ay) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
        # Touch point lies on the circle, whose centre sits r above the
        # tether edge.
        assert math.hypot(
            arc.touch_x - arc.center_x, arc.touch_y - arc.center_y
        ) == pytest.approx(params.r, abs=1e-10)
        assert arc.center_y == pytest.approx(params.t / 2.0 + params.r, abs=1e-12)
        # Tangency: the ellipse normal at the touch point is parallel to the
        # centre-to-touch direction (zero cross product).
        normal = np.array([arc.touch_x / ax**2, arc.touch_y / ay**2])
        radial = np.array(
            [arc.touch_x - arc.center_x, arc.touch_y - arc.center_y]
        )
        cross = normal[0] * radial[1] - normal[1] * radial[0]
        assert abs(cross) / (np.linalg.norm(normal) * params.r) < 1e-10

    def test_circle_does_not_cut_into_ellipse(self):
        # Independent check: the minimum distance from the fillet centre to
        # the ellipse, scanned densely, equals the radius (external tangency,
        # no overlap).
        params = UnitCellParams()
        arc = solve_fillet(params)
        ax, ay = params.w / 2.0, params.h / 2.0
        theta = np.linspace(0.0, math.pi, 200001)
        ex, ey = ax * np.cos(theta), ay * np.sin(theta)
        dist = np.hypot(ex - arc.center_x, ey - arc.center_y)
        assert dist.min() == pytest.approx(params.r, rel=1e-6)

    def test_profile_is_continuous_across_junctions(self):
        params = UnitCellParams()
        arc = solve_fillet(params)
        for u in (arc.touch_x, arc.center_x, params.w / 2.0):
            x = params.a / 2.0 + np.array([u - 1e-9, u, u + 1e-9])
            y = half_width_profile(params, x)
            assert np.ptp(y) < 1e-5


class TestHalfWidthProfile:
    def test_block_centre_reaches_full_height(self):
        params = UnitCellParams()
        y = half_width_profile(params, np.array([params.a / 2.0]))
        assert y[0] == pytest.approx(params.h / 2.0, abs=1e-12)

    def test_far_field_is_tether(self):
        params = UnitCellParams()
        y = half_width_profile(params, np.array([0.0, 2.0, params.a - 2.0]))
        np.testing.assert_allclose(y, params.t / 2.0, atol=1e-12)

    def test_mirror_symmetry_about_block_centre(self):
        params = UnitCellParams()
        u = np.linspace(0.0, params.a / 2.0, 301)
        left = half_width_profile(params, params.a / 2.0 - u)
        right = half_width_profile(params, params.a / 2.0 + u)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_profile_never_below_tether(self):
        params = UnitCellParams()
        x = np.linspace(0.0, params.a, 2001)
        assert np.all(half_width_profile(params, x) >= params.t / 2.0 - 1e-12)


class TestMaterial:
    def test_default_constants(self):
        assert DIAMOND.c11_gpa == 1079.0
        assert DIAMOND.c12_gpa == 124.0
        assert DIAMOND.c44_gpa == 578.0
        assert DIAMOND.rho_kgm3 == 3515.0

    def test_stiffness_matrix_symmetric_positive_definite(self):
        c = DIAMOND.stiffness_voigt_pa()
        np.testing.assert_allclose(c, c.T, atol=1e-3)
        assert np.linalg.eigvalsh(c).min() > 0

    def test_rejects_unstable_constants(self):
        with pytest.raises(InvalidParameterError):
            Material(c11_gpa=100.0, c12_gpa=124.0).validate()
        with pytest.raises(InvalidParameterError):
            Material(c44_gpa=-5.0).validate()
        with pytest.raises(InvalidParameterError):
            Material(rho_kgm3=0.0).validate()

    @pytest.mark.parametrize("field,value", [("c11_gpa", math.nan),
                                             ("rho_kgm3", math.inf)])
    def test_rejects_non_finite_constants(self, field, value):
        with pytest.raises(InvalidParameterError, match="finite"):
            Material(**{field: value}).validate()


class TestMesh:
    def test_element_count(self):
        mesh = build_unit_cell_mesh(UnitCellParams(), (4, 4, 4))
        assert mesh.elements.shape == (64, 8)
        assert mesh.n_nodes == 5 * 5 * 5
        assert mesh.n_dofs == 3 * 125

    def test_coordinates_are_metres(self):
        params = UnitCellParams()
        mesh = build_unit_cell_mesh(params, (4, 4, 4))
        assert mesh.nodes[:, 0].max() == pytest.approx(params.a * NM, rel=1e-12)
        assert mesh.nodes[:, 2].max() == pytest.approx(params.d * NM, rel=1e-12)
        assert mesh.period_m == pytest.approx(params.a * NM, rel=1e-15)

    def test_jacobians_positive_and_faces_matched(self):
        mesh = build_unit_cell_mesh(UnitCellParams(), (8, 6, 4))
        dets = _element_jacobians(mesh.element_corner_coords())
        assert dets.min() > 0
        master = mesh.nodes[mesh.master_nodes]
        slave = mesh.nodes[mesh.slave_nodes]
        assert np.abs(master[:, 0]).max() < 1e-9 * mesh.period_m
        np.testing.assert_allclose(
            slave[:, 0], mesh.period_m, rtol=0, atol=1e-9 * mesh.period_m
        )
        np.testing.assert_allclose(master[:, 1:], slave[:, 1:], atol=1e-20)

    def test_volume_against_profile_quadrature(self):
        # Independent oracle: V = d * integral of the full width 2*Y(x),
        # evaluated with adaptive quadrature split at the outline junctions.
        params = UnitCellParams()
        arc = solve_fillet(params)
        mid = params.a / 2.0
        breaks = sorted(
            {
                mid - params.w / 2.0,
                mid - arc.center_x,
                mid - arc.touch_x,
                mid + arc.touch_x,
                mid + arc.center_x,
                mid + params.w / 2.0,
            }
        )
        area, _ = quad(
            lambda x: 2.0 * half_width_profile(params, np.array([x]))[0],
            0.0,
            params.a,
            points=breaks,
            limit=200,
        )
        exact = area * params.d * NM**3

        mesh = build_unit_cell_mesh(params, (16, 16, 8))
        assert mesh_volume(mesh) == pytest.approx(exact, rel=0.02)

    def test_rectangular_cell_volume_exact(self):
        # A degenerate cell (t = h, r = 0) meshes into bricks, so quadrature
        # integrates the volume exactly.
        params = UnitCellParams().replace(t=89.9, r=0.0, w=95.7)
        mesh = build_unit_cell_mesh(params, (4, 4, 4))
        exact = params.a * params.h * params.d * NM**3
        assert mesh_volume(mesh) == pytest.approx(exact, rel=1e-12)

    def test_nanobeam_volume_exact(self):
        mesh = build_nanobeam_mesh(90.0, 70.0, 129.6, (5, 4, 3))
        exact = 129.6 * 90.0 * 70.0 * NM**3
        assert mesh_volume(mesh) == pytest.approx(exact, rel=1e-12)

    def test_rejects_too_coarse_unit_cell(self):
        with pytest.raises(InvalidParameterError):
            build_unit_cell_mesh(UnitCellParams(), (3, 4, 4))

    def test_rejects_invalid_nanobeam(self):
        with pytest.raises(InvalidParameterError):
            build_nanobeam_mesh(-90.0, 70.0, 129.6, (4, 4, 4))
        with pytest.raises(InvalidParameterError):
            build_nanobeam_mesh(90.0, 70.0, 129.6, (0, 4, 4))

    def test_invalid_params_refused_before_meshing(self):
        with pytest.raises(InvalidParameterError):
            build_unit_cell_mesh(UnitCellParams().replace(w=200.0), (4, 4, 4))


@settings(max_examples=20, deadline=None)
@given(
    w=st.floats(40.0, 120.0),
    h=st.floats(40.0, 120.0),
    t_frac=st.floats(0.2, 0.9),
    r=st.floats(0.0, 12.0),
    d=st.floats(30.0, 120.0),
)
def test_random_cells_mesh_cleanly(w, h, t_frac, r, d):
    """Any constructible parameter set yields a valid, positive-volume mesh."""
    params = UnitCellParams(w=w, h=h, a=129.6, t=t_frac * h, r=r, d=d)
    try:
        params.validate()
        if r > 0:
            solve_fillet(params)
    except InvalidParameterError:
        return  # not constructible; nothing further to assert
    try:
        mesh = build_unit_cell_mesh(params, (4, 4, 4))
    except MeshingError:
        return  # outline valid but too extreme for this coarse grid
    assert mesh_volume(mesh) > 0
    dets = _element_jacobians(mesh.element_corner_coords())
    assert dets.min() > 0
