"""Elastodynamics tests: assembly oracles, Bloch reduction, parity sectors.

The stiffness/mass oracle below re-derives the element matrices from first
principles (chain rule written out via linear solves, dense Gauss grid) so
that any error in the production assembly's gradient mapping or quadrature
bookkeeping shows up as a mismatch.  The complex Bloch reduction
(``bloch_basis``, ``reduce_bloch``) and the total mass are written out here
too, as references for the real sector pencils the package solves.
"""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.spatial import cKDTree

from phonogap import elastics
from phonogap.elastics import (
    band_diagram,
    make_bloch_problem,
    reflection_maps,
    solve_bands,
)
from phonogap.errors import (
    ClassificationError,
    InvalidParameterError,
    NumericalError,
)
from phonogap.geometry import (
    DIAMOND,
    HEX_REF_NODES,
    Mesh,
    UnitCellParams,
    build_nanobeam_mesh,
    build_unit_cell_mesh,
    hex_shape_functions,
    hex_shape_gradients,
)
from test_geometry import mesh_volume


def single_element_mesh(corners: np.ndarray) -> Mesh:
    return Mesh(
        nodes=np.asarray(corners, dtype=float),
        elements=np.arange(8, dtype=np.int64).reshape(1, 8),
        master_nodes=np.array([], dtype=np.int64),
        slave_nodes=np.array([], dtype=np.int64),
        period_m=1.0,
        grid_shape=(1, 1, 1),
    )


def element_matrices_oracle(coords, material, n_gauss):
    """Dense-quadrature element stiffness and mass, derived independently.

    The physical shape-function gradients D (with D[i, b] = dN_i/dx_b) follow
    from the chain rule dN_i/dxi_a = sum_b D[i, b] * dx_b/dxi_a, i.e.
    grad = D @ J^T with J[a, b] = dx_b/dxi_a, solved here directly rather
    than through any shared helper.
    """
    c = material.stiffness_voigt_pa()
    rho = material.rho_kgm3
    pts, wts = np.polynomial.legendre.leggauss(n_gauss)
    k_el = np.zeros((24, 24))
    m_el = np.zeros((24, 24))
    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
            for zeta, wz in zip(pts, wts):
                p = np.array([xi, eta, zeta])
                grad = hex_shape_gradients(p)
                shape = hex_shape_functions(p)
                jac = grad.T @ coords
                det = np.linalg.det(jac)
                assert det > 0
                d = np.linalg.solve(jac, grad.T).T  # (8, 3) dN/dx
                b = np.zeros((6, 24))
                for i in range(8):
                    bx, by, bz = d[i]
                    col = 3 * i
                    b[0, col] = bx
                    b[1, col + 1] = by
                    b[2, col + 2] = bz
                    b[3, col + 1] = bz
                    b[3, col + 2] = by
                    b[4, col] = bz
                    b[4, col + 2] = bx
                    b[5, col] = by
                    b[5, col + 1] = bx
                w = wx * wy * wz * det
                k_el += w * (b.T @ c @ b)
                for i in range(8):
                    for j in range(8):
                        m_el[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] += (
                            w * rho * shape[i] * shape[j] * np.eye(3)
                        )
    return k_el, m_el


def total_mass(m_mat) -> float:
    """Total mesh mass recovered from the mass matrix.

    A uniform unit translation stores kinetic energy (1/2) m v^2, so the
    quadratic form of the translation vector returns the exact integrated
    density regardless of mesh distortion.
    """
    ex = np.zeros(m_mat.shape[0])
    ex[0::3] = 1.0
    return float(ex @ (m_mat @ ex))


def reduced_dofs(mesh: Mesh) -> np.ndarray:
    """The DOFs that the Bloch reduction keeps: all off the slave face."""
    slave = (3 * mesh.slave_nodes[:, None] + np.arange(3)).ravel()
    return np.setdiff1d(np.arange(mesh.n_dofs), slave)


def bloch_basis(mesh: Mesh, k_reduced: float) -> sp.csr_matrix:
    """Complex reduction basis P: each kept DOF in its own column, each
    slave DOF in its master's column times the Bloch phase e^{i pi k}."""
    keep = reduced_dofs(mesh)
    column = np.full(mesh.n_dofs, -1)
    column[keep] = np.arange(keep.size)
    slave = (3 * mesh.slave_nodes[:, None] + np.arange(3)).ravel()
    master = (3 * mesh.master_nodes[:, None] + np.arange(3)).ravel()
    vals = np.concatenate([np.ones(keep.size),
                           np.full(slave.size, np.exp(1j * math.pi * k_reduced))])
    return sp.csr_matrix(
        (vals, (np.concatenate([keep, slave]), column[np.concatenate([keep, master])])),
        shape=(mesh.n_dofs, keep.size),
    )


def reduce_bloch(k_mat, m_mat, basis):
    """Project (K, M) onto the Bloch-reduced space; results are Hermitian."""
    ph = basis.getH()
    k_red = (ph @ (k_mat @ basis)).tocsr()
    m_red = (ph @ (m_mat @ basis)).tocsr()
    return (k_red + k_red.getH()) * 0.5, (m_red + m_red.getH()) * 0.5


def rigid_body_fields(mesh: Mesh) -> np.ndarray:
    """Six rigid motions (3 translations, 3 rotations) as DOF vectors."""
    centred = mesh.nodes - mesh.nodes.mean(axis=0)
    x, y, z = centred.T
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    fields = [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
        (zero, -z, y),  # rotation about the beam axis
        (z, zero, -x),
        (-y, x, zero),
    ]
    out = np.empty((mesh.n_dofs, 6))
    for j, (ux, uy, uz) in enumerate(fields):
        out[0::3, j] = ux
        out[1::3, j] = uy
        out[2::3, j] = uz
    return out


class TestAssembly:
    def test_sheared_element_matches_dense_quadrature(self):
        # An affinely mapped (non-axis-aligned parallelepiped) element keeps
        # the Jacobian constant, so both the production 2x2x2 rule and the
        # 4x4x4 oracle integrate the element matrices exactly -- any
        # disagreement is an assembly error, not a quadrature effect.  The
        # shear makes the Jacobian dense, which is what trips up a wrong
        # inverse-transpose in the gradient mapping.
        shear = np.array(
            [[1.0, 0.35, -0.20], [0.10, 0.90, 0.25], [-0.15, 0.30, 1.10]]
        )
        coords = (HEX_REF_NODES @ shear.T) * 5e-8
        mesh = single_element_mesh(coords)
        k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
        k_ref, m_ref = element_matrices_oracle(coords, DIAMOND, n_gauss=4)
        np.testing.assert_allclose(
            k_mat.toarray(), k_ref, rtol=1e-10, atol=1e-10 * np.abs(k_ref).max()
        )
        np.testing.assert_allclose(
            m_mat.toarray(), m_ref, rtol=1e-10, atol=1e-12 * np.abs(m_ref).max()
        )

    def test_distorted_element_matches_same_rule_reference(self):
        # For a genuinely warped hexahedron the integrand is rational, so the
        # comparison uses the same 2x2x2 points in the independent
        # implementation; this cross-checks the B-matrix construction.
        rng = np.random.default_rng(7)
        coords = (HEX_REF_NODES + rng.uniform(-0.2, 0.2, (8, 3))) * 5e-8
        mesh = single_element_mesh(coords)
        k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
        k_ref, m_ref = element_matrices_oracle(coords, DIAMOND, n_gauss=2)
        np.testing.assert_allclose(
            k_mat.toarray(), k_ref, rtol=1e-12, atol=1e-12 * np.abs(k_ref).max()
        )
        np.testing.assert_allclose(
            m_mat.toarray(), m_ref, rtol=1e-12, atol=1e-14 * np.abs(m_ref).max()
        )

    def test_matrices_symmetric(self, reference_operators):
        k_mat, m_mat = reference_operators
        for mat in (k_mat, m_mat):
            asym = spla.norm(mat - mat.T) / spla.norm(mat)
            assert asym < 1e-14

    def test_free_structure_has_six_rigid_null_modes(self):
        # Graded cells have fully distorted elements; all six rigid motions
        # (including rotations -- a linear displacement field that trilinear
        # elements must represent exactly) must produce zero elastic force.
        mesh = build_unit_cell_mesh(UnitCellParams(), (6, 5, 4))
        k_mat, _ = elastics.assemble(mesh, DIAMOND)
        k_scale = spla.norm(k_mat)
        for j, u in enumerate(rigid_body_fields(mesh).T):
            residual = np.linalg.norm(k_mat @ u) / (k_scale * np.linalg.norm(u))
            assert residual < 1e-12, f"rigid field {j} not in null space"

    def test_mass_positive_definite(self):
        mesh = build_unit_cell_mesh(UnitCellParams(), (4, 4, 4))
        _, m_mat = elastics.assemble(mesh, DIAMOND)
        assert np.linalg.eigvalsh(m_mat.toarray()).min() > 0

    def test_total_mass_of_rectangular_beam(self):
        mesh = build_nanobeam_mesh(90.0, 70.0, 129.6, (5, 4, 3))
        _, m_mat = elastics.assemble(mesh, DIAMOND)
        exact = DIAMOND.rho_kgm3 * (129.6 * 90.0 * 70.0 * 1e-27)
        assert total_mass(m_mat) == pytest.approx(exact, rel=1e-12)

    def test_total_mass_consistent_with_mesh_volume(self, reference_mesh,
                                                    reference_operators):
        _, m_mat = reference_operators
        expected = DIAMOND.rho_kgm3 * mesh_volume(reference_mesh)
        assert total_mass(m_mat) == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def small_cell():
    mesh = build_unit_cell_mesh(UnitCellParams(), (5, 4, 4))
    k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
    return mesh, k_mat, m_mat


class TestBlochReduction:
    @pytest.mark.parametrize("bad", [1.5, -1.01, math.nan, math.inf])
    def test_rejects_wavenumber_outside_zone(self, small_cell, bad):
        mesh, k_mat, m_mat = small_cell
        with pytest.raises(InvalidParameterError):
            make_bloch_problem(mesh, bad, k_mat, m_mat)
        with pytest.raises(InvalidParameterError):
            band_diagram(mesh, DIAMOND, [bad], 6)

    @settings(max_examples=20, deadline=None)
    @given(k=st.floats(-1.0, 1.0))
    def test_reduction_contract(self, small_cell, k):
        mesh, k_mat, m_mat = small_cell
        problem = make_bloch_problem(mesh, k, k_mat, m_mat)
        basis = problem.basis
        # Expanding any reduced vector must reproduce the Bloch phase
        # relation between the periodic faces.
        rng = np.random.default_rng(0)
        v = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        u = basis @ v
        phase = np.exp(1j * math.pi * k)
        slave = (3 * mesh.slave_nodes[:, None] + np.arange(3)).ravel()
        master = (3 * mesh.master_nodes[:, None] + np.arange(3)).ravel()
        np.testing.assert_allclose(u[slave], phase * u[master], rtol=1e-12, atol=1e-12)

        for mat in (problem.stiffness, problem.mass):
            asym = spla.norm(mat - mat.T) / spla.norm(mat)
            assert asym < 1e-13
        assert np.linalg.eigvalsh(problem.mass.toarray()).min() > 0

    def test_time_reversal_symmetry(self, small_cell):
        mesh, k_mat, m_mat = small_cell
        for k in (0.23, 0.61, 0.97):
            fwd = solve_bands(make_bloch_problem(mesh, k, k_mat, m_mat), 10)[0]
            bwd = solve_bands(make_bloch_problem(mesh, -k, k_mat, m_mat), 10)[0]
            np.testing.assert_allclose(fwd, bwd, rtol=1e-8, atol=1e-8)

    def test_gamma_point_has_four_rigid_modes(self, reference_mesh,
                                              reference_operators):
        # With only the axial direction Bloch-periodic, the zero-frequency
        # subspace at k = 0 is spanned by the three translations plus the
        # rotation about the beam axis (the torsional branch limit).
        k_mat, m_mat = reference_operators
        problem = make_bloch_problem(reference_mesh, 0.0, k_mat, m_mat)
        freqs, modes = solve_bands(problem, 8)
        assert (freqs < 0.5).sum() == 4
        assert freqs[4] > 5.0

        fields = rigid_body_fields(reference_mesh)[:, [0, 1, 2, 3]]
        gram = fields.T @ (m_mat @ fields)
        coeffs = np.linalg.solve(gram, fields.T @ (m_mat @ modes[:, :4]))
        resid = modes[:, :4] - fields @ coeffs
        for j in range(4):
            r = resid[:, j]
            err = math.sqrt(abs(r.conj() @ (m_mat @ r)).real)
            assert err < 1e-4, f"null mode {j} leaves the rigid subspace"

    def test_nanobeam_gamma_point_four_branches(self, nanobeam_mesh):
        k_mat, m_mat = elastics.assemble(nanobeam_mesh, DIAMOND)
        freqs, _ = solve_bands(
            make_bloch_problem(nanobeam_mesh, 0.0, k_mat, m_mat), 8
        )
        assert (freqs < 0.5).sum() == 4
        assert freqs[4] > 5.0

    def test_nanobeam_compression_branch_speed(self, nanobeam_mesh):
        # Long-wavelength oracle: the compressional branch of a thin beam
        # propagates at sqrt(E/rho) with E the uniaxial Young's modulus from
        # the inverted stiffness matrix (free lateral contraction).
        s = np.linalg.inv(DIAMOND.stiffness_voigt_pa())
        e_axis = 1.0 / s[0, 0]
        speed = math.sqrt(e_axis / DIAMOND.rho_kgm3)
        k_red = 0.05
        f_rod = speed * k_red / (2.0 * nanobeam_mesh.period_m) / 1e9

        k_mat, m_mat = elastics.assemble(nanobeam_mesh, DIAMOND)
        freqs, _ = solve_bands(
            make_bloch_problem(nanobeam_mesh, k_red, k_mat, m_mat), 6
        )
        # Two flexural branches and torsion sit below compression here.
        assert np.all(freqs[:4] < 5.0)
        assert freqs[4] > 10.0
        assert freqs[3] == pytest.approx(f_rod, rel=0.03)

    def test_mass_orthonormal_modes(self, reference_mesh, reference_operators):
        # k = 0 takes the shift-invert path through the four-fold rigid-body
        # cluster, whose Ritz vectors ARPACK does not mass-orthogonalize.
        k_mat, m_mat = reference_operators
        for k in (0.0, 0.37):
            problem = make_bloch_problem(reference_mesh, k, k_mat, m_mat)
            assert problem.n_dofs > 600  # sparse path, not the dense cutoff
            freqs, modes = solve_bands(problem, 16)
            gram = modes.conj().T @ (m_mat @ modes)
            np.testing.assert_allclose(gram, np.eye(16), atol=1e-8)
            assert np.all(np.diff(freqs) >= 0)

    def test_mass_orthonormal_rigid_cluster_coarse_mesh(self):
        mesh = build_unit_cell_mesh(UnitCellParams(), (10, 8, 4))
        k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
        problem = make_bloch_problem(mesh, 0.0, k_mat, m_mat)
        assert problem.n_dofs > 600
        _, vecs = elastics.solve_reduced(problem.stiffness, problem.mass, 26)
        gram = vecs.conj().T @ (problem.mass @ vecs)
        np.testing.assert_allclose(gram, np.eye(26), atol=1e-8)

    def test_unorthonormalizable_ritz_vectors_fall_back(self, small_cell,
                                                       monkeypatch):
        # Linearly dependent Ritz vectors have no Cholesky factor: the solve
        # must switch to the dense path, or raise where that is too large.
        def dependent_eigsh(k_red, k, **_):
            vec = np.ones((k_red.shape[0], 1), dtype=complex)
            return np.arange(k, dtype=float), np.repeat(vec, k, axis=1)

        monkeypatch.setattr(elastics, "eigsh", dependent_eigsh)
        mesh, k_mat, m_mat = small_cell
        problem = make_bloch_problem(mesh, 0.3, k_mat, m_mat)
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 10_000)
        dense = solve_bands(problem, 6)[0]
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 0)
        freqs, vecs = elastics.solve_reduced(problem.stiffness, problem.mass, 6)
        np.testing.assert_array_equal(freqs, dense)
        gram = vecs.conj().T @ (problem.mass @ vecs)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

        big = sp.identity(6001, dtype=complex, format="csr")
        with pytest.raises(NumericalError):
            elastics.solve_reduced(big, big, 2)

    def test_dense_and_sparse_paths_agree(self, small_cell, monkeypatch):
        mesh, k_mat, m_mat = small_cell
        problem = make_bloch_problem(mesh, 0.3, k_mat, m_mat)
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 10_000)
        dense = solve_bands(problem, 10)[0]
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 0)
        sparse = solve_bands(problem, 10)[0]
        np.testing.assert_allclose(sparse, dense, rtol=1e-6, atol=1e-6)

    def test_sparse_solve_deterministic(self, reference_mesh, reference_operators):
        k_mat, m_mat = reference_operators
        problem = make_bloch_problem(reference_mesh, 0.7, k_mat, m_mat)
        first = solve_bands(problem, 12)[0]
        second = solve_bands(problem, 12)[0]
        np.testing.assert_array_equal(first, second)


def dense_frequencies_ghz(k_red, m_red, n_modes):
    vals = eigh(k_red.toarray(), m_red.toarray(), eigvals_only=True,
                subset_by_index=[0, n_modes - 1])
    return np.sqrt(np.clip(vals, 0.0, None)) / (2.0 * math.pi * 1e9)


def relative_errors(freqs, ref):
    """Frequency errors on the 1 GHz floor of the benchmark's dense check.

    They are taken on the eigenvalues, |f^2 - ref^2| / (2 max(ref, 1)^2),
    which is |f - ref| / ref to first order above 1 GHz.  Below it a dense
    solve is only good to an absolute eigenvalue error (~ eps times the
    largest eigenvalue), which a frequency error blows up as f -> 0.  Modes
    under 1 MHz on both sides are numerical zeros (``FREQ_FLOOR_RAD2``).
    """
    err = np.abs(freqs**2 - ref**2) / (2.0 * np.maximum(ref, 1.0) ** 2)
    err[(freqs < 1e-3) & (ref < 1e-3)] = 0.0
    return err


@pytest.fixture(scope="module")
def bench_cell():
    mesh = build_unit_cell_mesh(UnitCellParams(), (10, 8, 4))
    k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
    return mesh, k_mat, m_mat


@pytest.fixture(scope="module", params=["nanobeam", "10,8,4"])
def symmetric_mesh(request, nanobeam_mesh, bench_cell):
    return nanobeam_mesh if request.param == "nanobeam" else bench_cell[0]


class TestRealForm:
    """``make_bloch_problem`` returns the real form of the complex pencil.

    The benchmark's dense reference solves ``problem.stiffness/.mass`` and
    its tracer reads ``solve_reduced``'s vectors in the space of its
    arguments, so both are held here.
    """

    @pytest.mark.parametrize("k", [0.0, 0.5, 0.7021, 1.0])
    def test_real_pencil_matches_complex_reduction(self, bench_cell, k):
        # Dense eigh of the real pencil, and the whole sparse path (guard
        # modes and postconditions included), against dense eigh of the
        # complex pencil.
        mesh, k_mat, m_mat = bench_cell
        problem = make_bloch_problem(mesh, k, k_mat, m_mat)
        assert problem.stiffness.dtype == np.float64
        assert problem.mass.dtype == np.float64
        ref = dense_frequencies_ghz(
            *reduce_bloch(k_mat, m_mat, bloch_basis(mesh, k)), 26
        )
        real = dense_frequencies_ghz(problem.stiffness, problem.mass, 26)
        assert relative_errors(real, ref).max() < 1e-9
        published, _ = solve_bands(problem, 26)
        assert relative_errors(published, ref).max() < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(k=st.floats(-1.0, 1.0))
    @example(k=6.8e-11)  # true entries ~ pi k of the largest must survive
    def test_real_pencil_matches_complex_reduction_any_k(self, small_cell, k):
        mesh, k_mat, m_mat = small_cell
        problem = make_bloch_problem(mesh, k, k_mat, m_mat)
        ref = dense_frequencies_ghz(
            *reduce_bloch(k_mat, m_mat, bloch_basis(mesh, k)), 20
        )
        real = dense_frequencies_ghz(problem.stiffness, problem.mass, 20)
        assert relative_errors(real, ref).max() < 1e-9
        # The basis is unitary on the Bloch space: it carries the complex
        # pencil into the real one.
        k_back, m_back = reduce_bloch(k_mat, m_mat, problem.basis)
        assert spla.norm(k_back.real - problem.stiffness) <= 1e-12 * spla.norm(k_back)
        assert spla.norm(m_back.real - problem.mass) <= 1e-12 * spla.norm(m_back)

    @pytest.mark.parametrize("real", [True, False])
    def test_solve_reduced_vectors_live_in_argument_space(self, small_cell,
                                                          monkeypatch, real):
        mesh, k_mat, m_mat = small_cell
        if real:
            problem = make_bloch_problem(mesh, 0.41, k_mat, m_mat)
            k_red, m_red = problem.stiffness, problem.mass
        else:
            k_red, m_red = reduce_bloch(k_mat, m_mat, bloch_basis(mesh, 0.41))
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 0)
        freqs, vecs = elastics.solve_reduced(k_red, m_red, 8)
        assert vecs.shape == (k_red.shape[0], 8)
        assert np.iscomplexobj(vecs) != real
        gram = vecs.conj().T @ (m_red @ vecs)
        np.testing.assert_allclose(gram, np.eye(8), atol=elastics.MASS_ORTHONORMAL_TOL)
        lam = (2.0 * math.pi * 1e9 * freqs) ** 2
        resid = elastics._relative_residuals(k_red, m_red, lam, vecs)
        assert resid.max() < 1e-6

    def test_real_modes_expand_to_bloch_waves(self, small_cell):
        # Real reduced vectors expand through the complex basis to full
        # fields that obey the Bloch phase between the periodic faces.
        mesh, k_mat, m_mat = small_cell
        k = 0.37
        freqs, modes = solve_bands(make_bloch_problem(mesh, k, k_mat, m_mat), 6)
        slave = (3 * mesh.slave_nodes[:, None] + np.arange(3)).ravel()
        master = (3 * mesh.master_nodes[:, None] + np.arange(3)).ravel()
        np.testing.assert_allclose(
            modes[slave], np.exp(1j * math.pi * k) * modes[master], atol=1e-12
        )
        gram = modes.conj().T @ (m_mat @ modes)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_x_asymmetric_stiffness_rejected(self, small_cell):
        # One stiffened DOF off the x mid-plane breaks the x-mirror: the
        # projected pencil keeps an imaginary part that must not be dropped.
        mesh, k_mat, m_mat = small_cell
        nx, ny, nz = mesh.grid_shape
        dof = 3 * (ny + 1) * (nz + 1) + 1  # uy of a node in the first x layer
        lumpy = k_mat.tolil()
        lumpy[dof, dof] += 1e-6 * abs(k_mat.diagonal()).max()
        with pytest.raises(NumericalError, match="not real"):
            make_bloch_problem(mesh, 0.3, lumpy.tocsr(), m_mat)

    def test_x_asymmetric_mesh_rejected(self, small_cell):
        mesh, k_mat, m_mat = small_cell
        nodes = mesh.nodes.copy()
        nodes[mesh.grid_shape[2] + 3, 0] += 0.05 * mesh.period_m / mesh.grid_shape[0]
        crooked = Mesh(nodes=nodes, elements=mesh.elements,
                       master_nodes=mesh.master_nodes,
                       slave_nodes=mesh.slave_nodes, period_m=mesh.period_m,
                       grid_shape=mesh.grid_shape)
        with pytest.raises(NumericalError, match="mirror-symmetric"):
            make_bloch_problem(crooked, 0.3, k_mat, m_mat)


def gauged_basis(mesh, k):
    """``bloch_basis`` in the symmetric gauge: each reduced master-face
    column times e^{-i pi k / 2}, so its slave image carries e^{i pi k / 2}."""
    comp = np.arange(3)
    master = (3 * mesh.master_nodes[:, None] + comp).ravel()
    slave = (3 * mesh.slave_nodes[:, None] + comp).ravel()
    keep = np.setdiff1d(np.arange(mesh.n_dofs), slave)
    gauge = np.where(np.isin(keep, master), np.exp(-0.5j * math.pi * k), 1.0)
    return bloch_basis(mesh, k) @ sp.diags(gauge)


@pytest.fixture(scope="module")
def nanobeam_one_x():
    """A nanobeam one element long, whose elements touch both periodic faces."""
    mesh = build_nanobeam_mesh(90.0, 70.0, 129.6, (1, 4, 3))
    k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
    return mesh, k_mat, m_mat


@pytest.fixture(scope="module", params=["10,8,4", "5,4,4", "nanobeam-1,4,3"])
def bloch_operator(request, bench_cell, small_cell, nanobeam_one_x):
    """A mesh, its operators, and the unitary and real series of its whole
    pencil followed by those of its four sectors."""
    mesh, k_mat, m_mat = {"10,8,4": bench_cell, "5,4,4": small_cell,
                          "nanobeam-1,4,3": nanobeam_one_x}[request.param]
    operator = elastics._bloch_operator(mesh, k_mat, m_mat)
    whole = elastics._real_form(operator.x_mirror)
    return mesh, k_mat, m_mat, [(whole, operator.series(whole)),
                                *sector_series(operator, mesh, k_mat, m_mat)]


def assert_series_matches_projection(bloch_operator, k):
    """The series at k against ``U^H P'(k)^H (K, M) P'(k) U`` projected
    directly, for the whole pencil and each sector, to 1e-12 relative."""
    mesh, k_mat, m_mat, pencils = bloch_operator
    for unitary, series in pencils:
        direct = reduce_bloch(k_mat, m_mat, gauged_basis(mesh, k) @ unitary)
        for exact, summed in zip(direct, series.at(k)):
            assert summed.dtype == np.float64
            assert spla.norm(exact - summed) <= 1e-12 * spla.norm(exact)


class TestBlochOperator:
    """The once-per-mesh series of the real pencil, against projecting the
    gauged Bloch basis at each k."""

    @pytest.mark.parametrize("k", [0.0, 6.8e-11, 0.5, 0.7021, 1.0])
    def test_series_matches_projection(self, bloch_operator, k):
        assert_series_matches_projection(bloch_operator, k)

    @settings(max_examples=20, deadline=None)
    @given(k=st.floats(-1.0, 1.0))
    def test_series_matches_projection_any_k(self, bloch_operator, k):
        assert_series_matches_projection(bloch_operator, k)

    def test_second_harmonic_only_where_elements_span_the_period(
            self, bloch_operator):
        # cos(2 theta) and sin(2 theta) couple master to slave DOFs
        # directly: only the one-element-long nanobeam has them.
        mesh, _, _, pencils = bloch_operator
        n_terms = 5 if mesh.grid_shape[0] == 1 else 3
        for _, series in pencils:
            assert [coefs.shape[0] for coefs in series.coefs] == [n_terms] * 2
        if n_terms == 5:
            whole = pencils[0][1]
            assert np.abs(whole.coefs[0][3:]).max() > 0

    def test_one_element_nanobeam_bands_match_dense_eigh(self, nanobeam_one_x):
        mesh, k_mat, m_mat = nanobeam_one_x
        k_points = [0.0, 0.5, 0.7021, 1.0]
        bands = band_diagram(mesh, DIAMOND, k_points, 26)
        for k, freqs in zip(k_points, bands.frequencies_ghz):
            ref = dense_frequencies_ghz(
                *reduce_bloch(k_mat, m_mat, bloch_basis(mesh, k)), 26
            )
            assert relative_errors(freqs, ref).max() < 1e-9


class TestArpackGuard:
    @staticmethod
    def loosen_top_mode(monkeypatch, real_eigsh):
        # The highest kept mode comes back with its eigenvalue 1% off.
        def loose_eigsh(*args, **kwargs):
            vals, vecs = real_eigsh(*args, **kwargs)
            top = np.argsort(vals)[kwargs["k"] - elastics.ARPACK_GUARD_MODES - 1]
            vals = vals.copy()
            vals[top] *= 1.01
            return vals, vecs

        monkeypatch.setattr(elastics, "eigsh", loose_eigsh)

    def test_loose_top_mode_takes_dense_path(self, small_cell, monkeypatch):
        mesh, k_mat, m_mat = small_cell
        problem = make_bloch_problem(mesh, 0.3, k_mat, m_mat)
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 10_000)
        dense = elastics.solve_reduced(problem.stiffness, problem.mass, 6)[0]
        self.loosen_top_mode(monkeypatch, elastics.eigsh)
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 0)
        freqs, vecs = elastics.solve_reduced(problem.stiffness, problem.mass, 6)
        np.testing.assert_array_equal(freqs, dense)
        gram = vecs.T @ (problem.mass @ vecs)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_loose_top_mode_too_large_for_dense_raises(self, monkeypatch):
        n = elastics.DENSE_FALLBACK_MAX_DOFS + 1
        lam = elastics.LAMBDA_1GHZ * np.arange(1.0, n + 1.0) ** 2
        k_red = sp.diags(lam, format="csr")
        m_red = sp.identity(n, format="csr")

        def exact_eigsh(k_red, k, **_):
            return lam[:k].copy(), np.eye(n, k)

        self.loosen_top_mode(monkeypatch, exact_eigsh)
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 0)
        with pytest.raises(NumericalError, match="residual"):
            elastics.solve_reduced(k_red, m_red, 2)
        # The same exact modes unloosened pass the postcondition.
        monkeypatch.setattr(elastics, "eigsh", exact_eigsh)
        freqs, _ = elastics.solve_reduced(k_red, m_red, 2)
        np.testing.assert_allclose(freqs, [1.0, 2.0])


def mirror_overlaps(modes, mesh, m_mat):
    """Mass overlaps ``u^H M R u / u^H M u`` of full-space fields with their
    mirror images ``R u`` across the y and z mid-planes.

    The parity oracle, written independently of the sector bases: +1 for an
    even field, -1 for an odd one, anything between for a blend.
    """
    nodes = mesh.nodes
    m_modes = m_mat @ modes
    norms = np.einsum("ij,ij->j", modes.conj(), m_modes).real
    overlaps = []
    for axis in (1, 2):
        flipped = nodes.copy()
        flipped[:, axis] = nodes[:, axis].min() + nodes[:, axis].max() - nodes[:, axis]
        dist, perm = cKDTree(nodes).query(flipped)
        assert dist.max() < 1e-6 * mesh.period_m
        field = modes.reshape(mesh.n_nodes, 3, -1)[perm]
        field[:, axis] *= -1.0
        mirrored = field.reshape(modes.shape)
        overlaps.append(np.einsum("ij,ij->j", m_modes.conj(), mirrored).real / norms)
    return overlaps


def sector_modes(mesh, k_points, n_modes, guard_modes=0, expand=False):
    """``band_diagram``'s sector solves with full-space modes: each sector
    vector mapped through its sector's unitary and ``P'(k)``.  Each k is
    solved directly, asking ``guard_modes`` more modes than kept, or with
    ``expand`` by the mode expansion over the whole path."""
    k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
    operator = elastics._bloch_operator(mesh, k_mat, m_mat)
    unitaries, series = zip(*sector_series(operator, mesh, k_mat, m_mat))
    if expand:
        per_k = zip(*(elastics._sector_bands(pencil, np.asarray(k_points), n_modes)
                      for pencil in series))
    else:
        per_k = ([elastics._solve_sector(pencil, k, n_modes, guard_modes)
                  for pencil in series] for k in k_points)
    for k, solved in zip(k_points, per_k):
        freqs, found_in = elastics._merge_sectors(
            [found for found, _ in solved], n_modes)
        par_y, par_z = elastics.classify_parities(found_in)
        # The merge is stable: a mode's place in its sector's list is the
        # count of merged modes from that sector before it.
        rank = [np.count_nonzero(found_in[:j] == s) for j, s in enumerate(found_in)]
        reduced = np.column_stack(
            [unitaries[s] @ solved[s][1][:, r] for s, r in zip(found_in, rank)])
        yield freqs, par_y, par_z, operator.basis(k) @ reduced, m_mat


def sector_series(operator, mesh, k_mat, m_mat):
    """Each sector unitary of ``band_diagram`` with its pencil's series."""
    unitaries = elastics._parity_sectors(operator, reflection_maps(mesh),
                                         k_mat, m_mat)
    return [(unitary, operator.series(unitary)) for unitary in unitaries]


def mid_plane_node(mesh):
    """A node off the y and z mid-planes on the x mid-plane, which the
    x-mirror maps onto itself."""
    x, y, z = mesh.nodes.T
    on = np.isclose(x, 0.5 * mesh.period_m) & (y > 0) & (z > z.mean())
    return int(np.flatnonzero(on)[0])


class TestParity:
    def test_constructed_fields(self, nanobeam_mesh):
        # The oracle itself: +-1 on fields of definite parity, 0 on a blend.
        _, m_mat = elastics.assemble(nanobeam_mesh, DIAMOND)
        n = nanobeam_mesh.n_dofs
        y = nanobeam_mesh.nodes[:, 1]
        z_mid = nanobeam_mesh.nodes[:, 2] - nanobeam_mesh.nodes[:, 2].mean()
        fields = np.zeros((n, 5))
        fields[1::3, 0] = y  # points away from the y plane on both sides
        fields[1::3, 1] = 1.0  # a y translation flips under the y mirror
        fields[2::3, 2] = 1.0
        fields[:, 3] = (fields[:, 1] + fields[:, 2]) / math.sqrt(2.0)
        fields[2::3, 4] = z_mid
        overlaps = mirror_overlaps(fields, nanobeam_mesh, m_mat)
        np.testing.assert_allclose(overlaps[0], [1, -1, 1, 0, 1], atol=1e-12)
        np.testing.assert_allclose(overlaps[1], [1, 1, -1, 0, 1], atol=1e-12)

    def test_reflection_is_involution(self, reference_mesh):
        maps = reflection_maps(reference_mesh)
        perms = [elastics._mirror_perm(reference_mesh, 0), maps.perm_y, maps.perm_z]
        mirrors = [elastics._signed_mirror(p, axis) for axis, p in enumerate(perms)]
        eye = sp.identity(reference_mesh.n_dofs)
        for i, first in enumerate(mirrors):
            assert abs(first @ first - eye).max() == 0
            for second in mirrors[i + 1:]:
                assert abs(first @ second - second @ first).max() == 0

    def test_asymmetric_mesh_rejected(self, nanobeam_mesh):
        # Only the y and z mirrors break: the node's x-mirror image is itself.
        nodes = nanobeam_mesh.nodes.copy()
        nodes[mid_plane_node(nanobeam_mesh), 1] *= 1.5
        crooked = Mesh(
            nodes=nodes,
            elements=nanobeam_mesh.elements,
            master_nodes=nanobeam_mesh.master_nodes,
            slave_nodes=nanobeam_mesh.slave_nodes,
            period_m=nanobeam_mesh.period_m,
            grid_shape=nanobeam_mesh.grid_shape,
        )
        with pytest.raises(ClassificationError):
            reflection_maps(crooked)
        with pytest.raises(ClassificationError):
            band_diagram(crooked, DIAMOND, [0.5], 6)

    def test_y_asymmetric_stiffness_rejected(self, nanobeam_mesh, monkeypatch):
        # One stiffened DOF on the x mid-plane keeps the real form but breaks
        # the y and z mirrors: the sectors would drop its couplings.
        k_mat, m_mat = elastics.assemble(nanobeam_mesh, DIAMOND)
        dof = 3 * mid_plane_node(nanobeam_mesh) + 1
        lumpy = k_mat.tolil()
        lumpy[dof, dof] += 1e-6 * abs(k_mat.diagonal()).max()
        monkeypatch.setattr(elastics, "assemble",
                            lambda mesh, material: (lumpy.tocsr(), m_mat))
        with pytest.raises(NumericalError, match="y mirror"):
            band_diagram(nanobeam_mesh, DIAMOND, [0.5], 6)

    def test_sector_bases_are_sparse_orthonormal_eigenbases(self, small_cell):
        # Each sector unitary U is orthonormal, T-invariant (T_r conj(U) =
        # U), even or odd under the y and z mirrors as its index says, and
        # has at most eight nonzeros per column; the four make one square
        # unitary.  The reduced mirrors are R X P(0), from the reference P.
        mesh, k_mat, m_mat = small_cell
        operator = elastics._bloch_operator(mesh, k_mat, m_mat)
        maps = reflection_maps(mesh)
        unitaries = elastics._parity_sectors(operator, maps, k_mat, m_mat)
        keep = reduced_dofs(mesh)
        perms = [elastics._mirror_perm(mesh, 0), maps.perm_y, maps.perm_z]
        x_mirror, *mirrors = [
            (elastics._signed_mirror(perm, axis) @ bloch_basis(mesh, 0.0))[keep]
            for axis, perm in enumerate(perms)
        ]
        whole = sp.hstack(unitaries, format="csc")
        assert whole.shape == (keep.size, keep.size)
        np.testing.assert_allclose((whole.getH() @ whole).toarray(),
                                   np.eye(keep.size), atol=1e-15)
        assert np.diff(whole.indptr).max() <= 8
        for index, unitary in enumerate(unitaries):
            assert unitary.shape[1] > 0
            np.testing.assert_allclose((unitary.getH() @ unitary).toarray(),
                                       np.eye(unitary.shape[1]), atol=1e-15)
            assert abs(x_mirror @ unitary.conj() - unitary).max() < 1e-15
            labels = elastics.classify_parities([index])
            for mirror, label in zip(mirrors, labels):
                sign = 1.0 if label[0] == "even" else -1.0
                assert abs(mirror @ unitary - sign * unitary).max() < 1e-15

    def test_mirror_matches_run_once_per_band_diagram(self, small_cell,
                                                      monkeypatch):
        calls = []
        original = elastics._mirror_perm

        def counted(mesh, axis):
            calls.append(axis)
            return original(mesh, axis)

        monkeypatch.setattr(elastics, "_mirror_perm", counted)
        mesh, _, _ = small_cell
        for k_points in ([0.5], [0.0, 0.3, 0.6, 0.8, 1.0]):
            calls.clear()
            band_diagram(mesh, DIAMOND, k_points, 6)
            assert sorted(calls) == [0, 1, 2]

    def test_one_operator_and_four_sector_series_per_band_diagram(
            self, small_cell, monkeypatch):
        # The Bloch operator is built once per call and reduced to exactly
        # four series, one per sector, none of them the whole pencil.
        builds, series_sizes = [], []
        build, series = elastics._bloch_operator, elastics._BlochOperator.series

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        def counted_series(operator, unitary):
            series_sizes.append((unitary.shape[1], operator.x_mirror.shape[0]))
            return series(operator, unitary)

        monkeypatch.setattr(elastics, "_bloch_operator", counted_build)
        monkeypatch.setattr(elastics._BlochOperator, "series", counted_series)
        mesh, _, _ = small_cell
        for k_points in ([0.5], [0.0, 0.3, 0.6, 0.8, 1.0]):
            builds.clear()
            series_sizes.clear()
            band_diagram(mesh, DIAMOND, k_points, 6)
            assert len(builds) == 1
            assert len(series_sizes) == 4
            assert all(size < whole for size, whole in series_sizes)
            assert sum(size for size, _ in series_sizes) == series_sizes[0][1]

    def test_gamma_labels_match_dense_solve(self, reference_mesh, monkeypatch):
        # Some k = 0 sectors of this mesh take the shift-invert path; solved
        # densely instead they give the same bands and labels.
        (sparse,) = sector_modes(reference_mesh, [0.0], 24)
        monkeypatch.setattr(elastics, "DENSE_MAX_DOFS", 10_000)
        (dense,) = sector_modes(reference_mesh, [0.0], 24)
        assert relative_errors(sparse[0], dense[0]).max() < 1e-9
        above = dense[0] > 1e-3  # 1 MHz
        for which in (1, 2):
            np.testing.assert_array_equal(sparse[which][above], dense[which][above])
        # Inside the zero-frequency rigid cluster only the order may differ.
        assert (sorted(zip(sparse[1][~above], sparse[2][~above]))
                == sorted(zip(dense[1][~above], dense[2][~above])))

    def test_gamma_rigid_cluster_pairs_belong_to_one_mode(self,
                                                          reference_bands):
        # At k = 0 the x, y and z translations and the rotation about the
        # beam axis share zero frequency.  Their parity pairs are (even,
        # even), (odd, even), (even, odd) and (odd, odd); each published
        # pair must be one mode's, not y and z parities sorted apart.
        pairs = set(zip(reference_bands.parity_y[0, :4],
                        reference_bands.parity_z[0, :4]))
        assert pairs == {("even", "even"), ("odd", "even"),
                         ("even", "odd"), ("odd", "odd")}

    def test_reference_bands_have_clean_labels(self, reference_bands):
        bands = reference_bands
        assert bands.parity_y.shape == bands.frequencies_ghz.shape
        assert bands.parity_z.shape == bands.frequencies_ghz.shape
        assert set(np.unique(bands.parity_y)) == {"even", "odd"}
        assert set(np.unique(bands.parity_z)) == {"even", "odd"}

    def test_labels_match_mirror_overlaps(self, symmetric_mesh):
        # Every mode band_diagram returns at k = 0, 1/2 and 1 is even or odd
        # under each mirror as its label says, to 1e-8.
        mesh = symmetric_mesh
        k_points = [0.0, 0.5, 1.0]
        bands = band_diagram(mesh, DIAMOND, k_points, 26)
        for row, (freqs, par_y, par_z, modes, m_mat) in enumerate(
                sector_modes(mesh, k_points, 26)):
            np.testing.assert_array_equal(freqs, bands.frequencies_ghz[row])
            np.testing.assert_array_equal(par_y, bands.parity_y[row])
            np.testing.assert_array_equal(par_z, bands.parity_z[row])
            for labels, overlap in zip((par_y, par_z),
                                       mirror_overlaps(modes, mesh, m_mat)):
                expected = np.where(labels == "even", 1.0, -1.0)
                np.testing.assert_allclose(overlap, expected, rtol=0, atol=1e-8)


#: A 12-point path: ``band_diagram`` trains its mode expansion at indices
#: 0, 3, 6, 8 and 11 and projects the other seven.
PATH_12 = np.linspace(0.0, 1.0, 12)
PROJECTED_12 = (1, 2, 4, 5, 7, 9, 10)


class TestModeExpansion:
    def test_projected_modes_match_dense_pencil(self, symmetric_mesh):
        # At the projected k, bands from 5 GHz up match dense eigh of the
        # whole pencil to 1e-9 and every mode's parities are +-1 to 1e-8.
        mesh = symmetric_mesh
        k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
        bands = band_diagram(mesh, DIAMOND, PATH_12, 26)
        for row, (freqs, par_y, par_z, modes, _) in enumerate(
                sector_modes(mesh, PATH_12, 26, expand=True)):
            np.testing.assert_array_equal(freqs, bands.frequencies_ghz[row])
            np.testing.assert_array_equal(par_y, bands.parity_y[row])
            np.testing.assert_array_equal(par_z, bands.parity_z[row])
            if row not in PROJECTED_12:
                continue
            problem = make_bloch_problem(mesh, PATH_12[row], k_mat, m_mat)
            ref = dense_frequencies_ghz(problem.stiffness, problem.mass, 26)
            above = ref >= 5.0
            assert relative_errors(freqs, ref)[above].max() <= 1e-9
            for labels, overlap in zip((par_y, par_z),
                                       mirror_overlaps(modes, mesh, m_mat)):
                expected = np.where(labels == "even", 1.0, -1.0)
                np.testing.assert_allclose(overlap, expected, rtol=0, atol=1e-8)

    def test_loose_projections_fall_back_to_direct_solves(self, bench_cell,
                                                          monkeypatch):
        # With no residual accepted every projected k is solved directly as
        # the training k are, and the bands and labels are those of the
        # direct path bit for bit.
        mesh, _, _ = bench_cell
        monkeypatch.setattr(elastics, "PROJECTED_RESIDUAL_TOL", 0.0)
        bands = band_diagram(mesh, DIAMOND, PATH_12, 26)
        for row, (freqs, par_y, par_z, _, _) in enumerate(
                sector_modes(mesh, PATH_12, 26, elastics.ARPACK_GUARD_MODES)):
            np.testing.assert_array_equal(freqs, bands.frequencies_ghz[row])
            np.testing.assert_array_equal(par_y, bands.parity_y[row])
            np.testing.assert_array_equal(par_z, bands.parity_z[row])

    @pytest.mark.parametrize("n_k,per_sector,asked", [
        (48, 5, 32), (10, 5, 32), (9, 9, 26), (5, 5, 26), (3, 3, 26), (1, 1, 26)])
    def test_direct_solves_per_sector(self, bench_cell, monkeypatch, n_k,
                                      per_sector, asked):
        # Five training solves per sector, each with the guard modes, from
        # ten points up and none more on the nominal cell; a shorter path is
        # solved directly, once per k and sector, for the kept modes only.
        sizes, modes = [], set()
        solve = elastics.solve_reduced

        def counted(k_red, m_red, n_modes):
            sizes.append(k_red.shape[0])
            modes.add(n_modes)
            return solve(k_red, m_red, n_modes)

        monkeypatch.setattr(elastics, "solve_reduced", counted)
        mesh, _, _ = bench_cell
        band_diagram(mesh, DIAMOND, np.linspace(0.0, 1.0, n_k), 26)
        assert sorted(Counter(sizes).values()) == [per_sector] * 4
        assert len(set(sizes)) == 4
        assert modes == {asked}


class TestBandDiagram:
    def test_shapes_and_ordering(self, reference_bands):
        bands = reference_bands
        assert bands.frequencies_ghz.shape == (17, 24)
        assert bands.n_bands == 24
        assert np.all(bands.frequencies_ghz >= 0)
        assert np.all(np.diff(bands.frequencies_ghz, axis=1) >= 0)
        assert bands.n_dofs_reduced > 0

    def test_single_point_diagram(self, small_cell):
        mesh, _, _ = small_cell
        bands = band_diagram(mesh, DIAMOND, np.array([0.5]), n_modes=6)
        assert bands.frequencies_ghz.shape == (1, 6)
        assert bands.parity_y.shape == bands.parity_z.shape == (1, 6)

    def test_bands_match_dense_pencil(self, symmetric_mesh):
        # The merged sector solves against dense eigh of the whole real
        # pencil, at k = 0, 1/2, 0.7021 and 1; bands from 1 GHz up to 1e-9.
        mesh = symmetric_mesh
        k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
        k_points = [0.0, 0.5, 0.7021, 1.0]
        bands = band_diagram(mesh, DIAMOND, k_points, 26)
        for k, freqs in zip(k_points, bands.frequencies_ghz):
            problem = make_bloch_problem(mesh, k, k_mat, m_mat)
            assert bands.n_dofs_reduced == problem.n_dofs
            ref = dense_frequencies_ghz(problem.stiffness, problem.mass, 26)
            above = ref >= 1.0
            assert np.all(np.abs(freqs - ref)[above] <= 1e-9 * ref[above])
            assert relative_errors(freqs, ref).max() < 1e-9

    def test_too_many_modes_rejected(self, small_cell):
        mesh, _, _ = small_cell
        with pytest.raises(InvalidParameterError, match="n_modes"):
            band_diagram(mesh, DIAMOND, [0.5], 10_000)

    def test_empty_path_rejected(self, small_cell):
        mesh, _, _ = small_cell
        with pytest.raises(InvalidParameterError, match="k path"):
            band_diagram(mesh, DIAMOND, [], 6)

    def test_default_path_covers_zone_edge(self):
        path = elastics.default_k_path(48)
        assert path[0] == 0.0
        assert path[-1] == 1.0
        assert np.all(np.diff(path) > 0)
