"""Bloch-periodic linear elastodynamics on hexahedral meshes.

Builds sparse stiffness/mass matrices for trilinear hexahedra with a 2x2x2
Gauss rule, applies the Bloch phase by eliminating the slave periodic face,
and solves the reduced generalized eigenproblem for the lowest bands.

The reduced Bloch pencil is Hermitian, but the cell is also invariant under
the axial mirror X (x -> period - x).  X maps a Bloch wave at k to one at -k
and complex conjugation maps it back, so T = X o conj is an antiunitary
symmetry at every k with T^2 = 1.  In a basis of T-invariant vectors the
pencil is real symmetric (Wigner's time-reversal argument), which buys a
real LU and ARPACK's symmetric Lanczos driver.  ``make_bloch_problem``
returns the pencil in that basis; ``bloch_basis`` and ``reduce_bloch`` give
the plain complex form.

In the symmetric gauge, where the reduced master-face DOFs carry the phase
e^{-i theta} and their slave images e^{i theta} (theta = pi k / 2), T acts
on the reduced DOFs the same way at every k, so one unitary Q makes every
pencil real, and the real pencil is a short cosine/sine series in theta
(a Bloch-reduced pencil is a trigonometric polynomial in the phase;
Hussein, Proc. R. Soc. A 465, 2825 (2009)).  Its sparse real terms are
built once per mesh; a k then costs one weighted sum of stored arrays.

The transverse mirrors Y (y -> -y) and Z (z -> -z) commute with each other,
with X and with the pencil, and in that real basis they are signed
permutations, the same at every k.  ``band_diagram`` therefore splits the
series into the four sectors of their joint eigenvalues, once per call, and
at each k solves each sector on its own; a band's mirror parities are those
of its sector, exact by construction (the standard symmetry reduction;
Bossavit, Comput. Methods Appl. Mech. Eng. 56, 167 (1986)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cholesky, eigh, solve_triangular
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.sparse.linalg import norm as sparse_norm
from scipy.spatial import cKDTree

from .errors import ClassificationError, InvalidParameterError, NumericalError
from .geometry import GAUSS_GRADIENTS_2, GAUSS_SHAPES_2, Material, Mesh

GHZ = 1e9
_EIGSH_SEED = 20240817  # fixed ARPACK start vector => reproducible iterates

#: Eigenvalues of magnitude below this (1 MHz) are numerically zero.
FREQ_FLOOR_RAD2 = (2 * math.pi * 1e-3 * GHZ) ** 2

#: Largest entry of |V^H M V - I| accepted for a mass-orthonormal basis.
MASS_ORTHONORMAL_TOL = 1e-8

#: Largest imaginary part, relative to the whole pencil, that the real form
#: may drop; more means the cell is not x-mirror symmetric.  The same bound
#: holds the y and z mirror symmetry of the operators and the real basis.
REAL_FORM_TOL = 1e-12

#: Entries of a real pencil's series terms at or below this, relative to
#: the largest, are the rounding residue of exact cancellations (at most
#: ~1.2e-16 on the mesh ladder) and are dropped.  The terms do not depend
#: on k: an entry that is small because k is, is an O(1) term entry times
#: sin(pi k / 2), so no cut at one k can drop it.
RESIDUE_TOL = 1e-14

#: Eigenvalue scale (rad/s)^2 of 1 GHz; residuals of near-zero modes are
#: measured against it instead of their own vanishing eigenvalue.
LAMBDA_1GHZ = (2 * math.pi * GHZ) ** 2

#: Modes asked of ARPACK beyond the ones kept: its highest Ritz pairs are
#: the least converged, so they are dropped.
ARPACK_GUARD_MODES = 6

#: Largest relative residual |K v - lam M v| / (max(lam, LAMBDA_1GHZ) |M v|)
#: accepted for a mode from ARPACK; a looser mode sends the solve dense.
RESIDUAL_TOL = 1e-3

#: Largest reduced size that a failed sparse solve may repeat densely.
DENSE_FALLBACK_MAX_DOFS = 6000


def assemble(mesh: Mesh, material: Material) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Assemble the global stiffness and consistent mass matrices.

    Parameters
    ----------
    mesh : Mesh
        Hexahedral mesh with coordinates in metres.
    material : Material
        Elastic medium; its stiffness is used in Pa, density in kg/m^3.

    Returns
    -------
    (K, M) : csr_matrix
        Real symmetric stiffness (N/m) and mass (kg) matrices of size
        ``3 N x 3 N`` with node-major DOF ordering (ux, uy, uz per node).
    """
    material.validate()
    c = material.stiffness_voigt_pa()
    rho = material.rho_kgm3
    coords = mesh.element_corner_coords()
    ne = coords.shape[0]
    ke = np.zeros((ne, 24, 24))
    me = np.zeros((ne, 24, 24))
    eye3 = np.eye(3)
    for grad, shape in zip(GAUSS_GRADIENTS_2, GAUSS_SHAPES_2):
        jac = np.einsum("ia,eib->eab", grad, coords)
        det = np.linalg.det(jac)
        if np.any(det <= 0):
            raise InvalidParameterError("mesh contains non-positive Jacobians")
        dndx = np.einsum("ia,eba->eib", grad, np.linalg.inv(jac))
        b = np.zeros((ne, 6, 24))
        # Voigt strain rows (xx, yy, zz, yz, xz, xy) with engineering shears.
        b[:, 0, 0::3] = dndx[:, :, 0]
        b[:, 1, 1::3] = dndx[:, :, 1]
        b[:, 2, 2::3] = dndx[:, :, 2]
        b[:, 3, 1::3] = dndx[:, :, 2]
        b[:, 3, 2::3] = dndx[:, :, 1]
        b[:, 4, 0::3] = dndx[:, :, 2]
        b[:, 4, 2::3] = dndx[:, :, 0]
        b[:, 5, 0::3] = dndx[:, :, 1]
        b[:, 5, 1::3] = dndx[:, :, 0]
        cb = np.einsum("qr,erj->eqj", c, b)
        ke += np.einsum("eqi,eqj->eij", b, cb) * det[:, None, None]
        me += rho * np.kron(np.outer(shape, shape), eye3) * det[:, None, None]

    edofs = (3 * mesh.elements[:, :, None] + np.arange(3)).reshape(ne, 24)
    rows = np.repeat(edofs, 24, axis=1).ravel()
    cols = np.tile(edofs, (1, 24)).ravel()
    n = mesh.n_dofs
    k_mat = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    m_mat = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return k_mat, m_mat


def _periodic_dofs(mesh: Mesh) -> tuple[np.ndarray, ...]:
    """Kept DOFs (all off the slave face), and the rows, columns and face
    (0 inside the cell, 1 master, 2 slave) of the Bloch basis's nonzeros:
    each kept DOF in its own column, then each slave DOF in the column of
    its master."""
    n = mesh.n_dofs
    comp = np.arange(3)
    slave = (3 * mesh.slave_nodes[:, None] + comp).ravel()
    master = (3 * mesh.master_nodes[:, None] + comp).ravel()
    keep = np.setdiff1d(np.arange(n), slave)
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[keep] = np.arange(keep.size)
    face = np.zeros(n, dtype=np.int64)
    face[master], face[slave] = 1, 2
    rows = np.concatenate([keep, slave])
    return keep, rows, col_of[np.concatenate([keep, master])], face[rows]


def _phase_basis(n_dofs: int, dofs: tuple, phases: tuple) -> sp.csr_matrix:
    """Bloch basis from the index sets of ``_periodic_dofs``, with
    ``phases[f]`` on the rows of face f."""
    keep, rows, cols, face = dofs
    vals = np.asarray(phases, dtype=complex)[face]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_dofs, keep.size)).tocsr()


def _half_phase(k_reduced: float) -> float:
    """theta = pi k / 2, half the Bloch phase across the period."""
    if not math.isfinite(k_reduced) or not (-1.0 <= k_reduced <= 1.0):
        raise InvalidParameterError(
            f"reduced wavenumber must lie in [-1, 1], got {k_reduced!r}"
        )
    return 0.5 * math.pi * k_reduced


def bloch_basis(mesh: Mesh, k_reduced: float) -> sp.csr_matrix:
    """Reduction basis P with slave-face DOFs tied to phase * master DOFs.

    ``k_reduced`` is the axial Bloch wavenumber in units of pi/period; the
    irreducible zone is [0, 1] and negative values down to -1 are accepted so
    that time-reversal pairs (k, -k) can be compared directly.  The slave-face
    phase is ``exp(i pi k_reduced)``.
    """
    phase = cmath.exp(2j * _half_phase(k_reduced))
    return _phase_basis(mesh.n_dofs, _periodic_dofs(mesh), (1.0, 1.0, phase))


def reduce_bloch(
    k_mat: sp.spmatrix, m_mat: sp.spmatrix, basis: sp.csr_matrix
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Project (K, M) onto the Bloch-reduced space; results are Hermitian."""
    ph = basis.getH()
    k_red = (ph @ (k_mat @ basis)).tocsr()
    m_red = (ph @ (m_mat @ basis)).tocsr()
    # Symmetrize away the last bits of floating-point asymmetry.
    k_red = (k_red + k_red.getH()) * 0.5
    m_red = (m_red + m_red.getH()) * 0.5
    return k_red, m_red


@dataclass
class BlochProblem:
    """Reduced real symmetric pencil for one axial Bloch wavenumber."""

    k_reduced: float
    stiffness: sp.csr_matrix  # real symmetric
    mass: sp.csr_matrix  # real symmetric positive definite
    basis: sp.csr_matrix  # complex; maps reduced vectors to full nodal DOFs

    @property
    def n_dofs(self) -> int:
        return self.stiffness.shape[0]


def _mirror_perm(mesh: Mesh, axis: int, tol_rel: float = 1e-6) -> np.ndarray | None:
    """Node permutation of the mirror across the mid-plane of ``axis``.

    Each reflected node is matched to the nearest node; None when some
    match is further than ``tol_rel`` of the cell's largest extent.
    """
    coords = mesh.nodes
    scale = max(mesh.period_m, np.ptp(coords[:, 1]), np.ptp(coords[:, 2]))
    along = coords[:, axis]
    flipped = coords.copy()
    flipped[:, axis] = along.min() + along.max() - along
    dist, idx = cKDTree(coords).query(flipped)
    return None if dist.max() > tol_rel * scale else idx


def _signed_mirror(perm: np.ndarray, axis: int) -> sp.csr_matrix:
    """The mirror across the mid-plane of ``axis`` acting on nodal fields.

    A signed permutation of the DOFs: each node's displacement moves to its
    mirror node ``perm[node]`` with the component along ``axis`` negated.
    """
    signs = np.ones(3)
    signs[axis] = -1.0
    n = 3 * perm.size
    return sp.csr_matrix(
        (
            np.tile(signs, perm.size),
            ((3 * perm[:, None] + np.arange(3)).ravel(), np.arange(n)),
        ),
        shape=(n, n),
    )


def _on_one_pattern(terms: list[sp.spmatrix]) -> tuple[np.ndarray, ...]:
    """``(indices, indptr, coefficients)`` of real sparse ``terms`` on the
    CSR pattern of their union; row t of the coefficients holds term t.

    Entries at or below ``RESIDUE_TOL`` of the largest are dropped first.
    """
    terms = [sp.csr_matrix(term, copy=True) for term in terms]
    floor = RESIDUE_TOL * max(abs(term.data).max(initial=0.0) for term in terms)
    for term in terms:
        term.data[np.abs(term.data) <= floor] = 0.0
        term.eliminate_zeros()
    union = sum(abs(term) for term in terms).tocsr()
    union.sort_indices()
    rows, cols = union.nonzero()
    coefs = np.vstack([np.asarray(term[rows, cols]).ravel() for term in terms])
    return union.indices, union.indptr, coefs


@dataclass
class _Series:
    """A real symmetric pencil ``sum_t w_t(theta) (K_t, M_t)`` in
    theta = pi k / 2, with the weights 1, cos(theta), sin(theta),
    cos(2 theta), sin(2 theta) of the terms kept.

    Each operator's terms share one CSR pattern, so the pencil at a k is a
    weighted sum of coefficient rows wrapped around that pattern.
    """

    size: int
    patterns: tuple  # (indices, indptr) of K, then of M
    coefs: tuple  # (n_terms, nnz) arrays of K, then of M

    @classmethod
    def from_terms(cls, stiffness: list, mass: list) -> _Series:
        packed = [_on_one_pattern(terms) for terms in (stiffness, mass)]
        return cls(
            stiffness[0].shape[0],
            tuple(pack[:2] for pack in packed),
            tuple(pack[2] for pack in packed),
        )

    def at(self, k_reduced: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        theta = _half_phase(k_reduced)
        waves = [f(n * theta) for n in (1, 2) for f in (math.cos, math.sin)]
        weights = np.array([1.0, *waves])[: self.coefs[0].shape[0]]
        shape = (self.size, self.size)
        return tuple(
            sp.csr_matrix((weights @ coefs, indices, indptr), shape=shape)
            for (indices, indptr), coefs in zip(self.patterns, self.coefs)
        )

    def project(self, basis: sp.spmatrix) -> _Series:
        """The series of ``basis^T (K, M) basis``."""
        shape = (self.size, self.size)
        stiffness, mass = (
            [basis.T @ sp.csr_matrix((row, *pattern), shape=shape) @ basis
             for row in coefs]
            for pattern, coefs in zip(self.patterns, self.coefs)
        )
        return _Series.from_terms(stiffness, mass)


def _real_form(x_mirror: sp.csr_matrix, dofs: tuple) -> sp.csr_matrix:
    """Unitary Q whose columns are T-invariant reduced vectors.

    In reduced coordinates T is ``v -> T_r conj(v)`` with
    ``T_r = R X conj(P)``, where P is the Bloch basis, X the signed x-mirror
    and R keeps the rows of the reduced DOFs.  In the symmetric gauge of
    ``make_bloch_problem`` T_r is the same at every k, so P is taken at
    k = 0.  T_r sends DOF j to one DOF pi(j) times a sign d_j.  A pair
    (i, pi(i)) gets the columns (e_i + d_i e_pi(i))/sqrt2 and
    i(e_i - d_i e_pi(i))/sqrt2 in places i and pi(i); a fixed point i gets
    e_i, or i e_i where d_i = -1.  With T^2 = 1, ``Q^H A Q`` is real for
    every Hermitian A that commutes with T.
    """
    basis = _phase_basis(x_mirror.shape[0], dofs, (1.0, 1.0, 1.0))
    t_red = (x_mirror @ basis)[dofs[0]].tocsc()
    m = basis.shape[1]
    cols = np.arange(m)
    pi, d = t_red.indices, t_red.data.real
    if t_red.nnz != m or np.any(pi[pi] != cols):
        raise NumericalError(
            "the x-mirror does not map the Bloch space onto itself; "
            "the periodic faces do not match the mirror"
        )
    first = cols < pi
    fixed = cols == pi
    lo, hi, d_lo = cols[first], pi[first], d[first]
    root_half = math.sqrt(0.5)
    rows = np.concatenate([lo, hi, lo, hi, cols[fixed]])
    where = np.concatenate([lo, lo, hi, hi, cols[fixed]])
    vals = np.concatenate(
        [
            np.full(lo.size, root_half, dtype=complex),
            root_half * d_lo,
            np.full(lo.size, 1j * root_half),
            -1j * root_half * d_lo,
            np.where(d[fixed] > 0, 1.0, 1j),
        ]
    )
    return sp.csr_matrix((vals, (rows, where)), shape=(m, m))


def _real_series_terms(
    mat: sp.spmatrix, faces: list[sp.csr_matrix], unitary: sp.csr_matrix
) -> list[sp.csr_matrix]:
    """Real terms ``C_0, C_1, D_1, C_2, D_2`` of ``Q^H P'^H A P' Q``.

    With ``P' = E_0 + e^{-i theta} E_1 + e^{i theta} E_2`` (E_f the part of
    the basis on face f), the block ``E_f^T A E_g`` carries the phase
    ``e^{i n theta}``, n = s_g - s_f with s = (0, -1, 1).  Summed by n into
    B_n, the pencil is ``B_0 + sum_n e^{i n theta} B_n + e^{-i n theta} B_n^H``,
    i.e. ``C_0 + sum_n cos(n theta) C_n + sin(n theta) D_n`` with
    ``C_0 = B_0``, ``C_n = B_n + B_n^H`` and ``D_n = i (B_n - B_n^H)``.
    Their imaginary parts are checked against ``REAL_FORM_TOL`` and dropped.
    """
    shifts = (0, -1, 1)
    blocks = [0, 0, 0]
    for f, left in enumerate(faces):
        for g, right in enumerate(faces):
            if shifts[g] >= shifts[f]:
                blocks[shifts[g] - shifts[f]] += left.T @ mat @ right
    unitary_h = unitary.getH().tocsr()
    blocks = [unitary_h @ sp.csr_matrix(block) @ unitary for block in blocks]
    terms = [blocks[0]]
    for block in blocks[1:]:
        terms += [block + block.getH(), 1j * (block - block.getH())]
    imag = math.hypot(*(np.linalg.norm(term.data.imag) for term in terms))
    drift = imag / math.hypot(*(np.linalg.norm(term.data) for term in terms))
    if drift > REAL_FORM_TOL:
        raise NumericalError(
            f"the Bloch pencil is not real in the x-mirror basis "
            f"(relative imaginary part {drift:.2e}); "
            "the operators are not x-mirror symmetric"
        )
    return [0.5 * (term + term.T).real.tocsr() for term in terms]


@dataclass
class _BlochOperator:
    """The real Bloch pencil of one mesh, at every k (``make_bloch_problem``)."""

    k_mat: sp.spmatrix
    m_mat: sp.spmatrix
    dofs: tuple  # from _periodic_dofs
    unitary: sp.csr_matrix  # Q, from _real_form
    pencil: _Series  # Q^H P'^H (K, M) P' Q

    def basis(self, k_reduced: float) -> sp.csr_matrix:
        """``P'(k) Q``: reduced vectors to full nodal DOFs."""
        phase = cmath.exp(1j * _half_phase(k_reduced))
        bloch = _phase_basis(
            self.k_mat.shape[0], self.dofs, (1.0, phase.conjugate(), phase)
        )
        return (bloch @ self.unitary).tocsr()


def _bloch_operator(
    mesh: Mesh, k_mat: sp.spmatrix, m_mat: sp.spmatrix
) -> _BlochOperator:
    perm = _mirror_perm(mesh, 0)
    if perm is None:
        raise NumericalError(
            "mesh is not mirror-symmetric along the beam axis; "
            "the real Bloch form needs it"
        )
    dofs = _periodic_dofs(mesh)
    unitary = _real_form(_signed_mirror(perm, 0), dofs)
    keep, rows, cols, face = dofs
    faces = [
        sp.csr_matrix(
            (np.ones(on.sum()), (rows[on], cols[on])), shape=(mesh.n_dofs, keep.size)
        )
        for on in (face == f for f in range(3))
    ]
    stiffness, mass = (
        _real_series_terms(mat, faces, unitary) for mat in (k_mat, m_mat)
    )
    if not any(term.nnz for term in stiffness[3:] + mass[3:]):
        # The cos(2 theta), sin(2 theta) terms couple master to slave DOFs
        # directly; only an element touching both faces makes them.
        stiffness, mass = stiffness[:3], mass[:3]
    return _BlochOperator(
        k_mat, m_mat, dofs, unitary, _Series.from_terms(stiffness, mass)
    )


def make_bloch_problem(
    mesh: Mesh,
    k_reduced: float,
    k_mat: sp.spmatrix,
    m_mat: sp.spmatrix,
) -> BlochProblem:
    """Tie the slave face to the master face at one wavenumber, in real form.

    The basis is ``P' Q``.  P' is ``bloch_basis(mesh, k_reduced)`` in the
    symmetric gauge: the reduced master-face DOFs carry the phase
    ``e^{-i theta}`` and their slave images ``e^{i theta}``, theta =
    pi k / 2, so the slave face is still ``e^{i pi k}`` times the master
    face.  Q is the unitary map onto T-invariant vectors (see
    ``_real_form``); in this gauge it does not depend on k.  The pencil
    ``Q^H P'^H (K, M) P' Q``, as ``reduce_bloch`` would give it for
    ``P' Q``, is real up to rounding, and is the series
    ``C_0 + sum_n cos(n theta) C_n + sin(n theta) D_n`` (n = 1, and n = 2
    where an element touches both periodic faces) whose real sparse terms
    are built once per mesh (``_bloch_operator``).  Their imaginary part is
    checked against ``REAL_FORM_TOL`` and dropped; a larger one means that
    ``k_mat`` or ``m_mat`` break the x-mirror, and raises
    ``NumericalError``.  Term entries below ``RESIDUE_TOL`` of the largest
    are the rounding residue of exact cancellations and are dropped too.
    Full-space modes are ``basis @ vectors``, complex Bloch waves as from
    the plain reduction; the gauge changes the pencil's entries, not its
    eigenvalues.
    """
    operator = _bloch_operator(mesh, k_mat, m_mat)
    stiffness, mass = operator.pencil.at(k_reduced)
    return BlochProblem(k_reduced, stiffness, mass, operator.basis(k_reduced))


def _frequencies_ghz(eigvals: np.ndarray) -> np.ndarray:
    """Convert eigenvalues (rad/s)^2 to GHz; numerical zeros give 0.0."""
    vals = np.asarray(eigvals, dtype=float).copy()
    bad = vals < -FREQ_FLOOR_RAD2
    if np.any(bad):
        worst = math.sqrt(-vals.min()) / (2 * math.pi * GHZ)
        raise NumericalError(
            f"eigensolve produced a significantly negative eigenvalue "
            f"(|f| ~ {worst:.3g} GHz); the system is ill-conditioned"
        )
    vals[np.abs(vals) < FREQ_FLOOR_RAD2] = 0.0
    return np.sqrt(vals) / (2 * math.pi * GHZ)


def _mass_orthonormalize(vecs: np.ndarray, m_red: sp.spmatrix) -> np.ndarray | None:
    """Re-base ``vecs`` so that ``V^H M V = I``, or None if that fails.

    Uses the Cholesky factor of the reduced Gram matrix ``G = L L^H`` and
    returns ``V L^{-H}``: each column is combined only with the columns
    before it, so a basis that is already mass-orthonormal barely moves.
    """
    m_vecs = m_red @ vecs
    gram = vecs.conj().T @ m_vecs
    try:
        chol = cholesky(0.5 * (gram + gram.conj().T), lower=True)
    except LinAlgError:
        return None
    inv_chol_h = solve_triangular(chol, np.eye(chol.shape[0]), lower=True).conj().T
    vecs = vecs @ inv_chol_h
    gram = vecs.conj().T @ (m_vecs @ inv_chol_h)
    if np.abs(gram - np.eye(gram.shape[0])).max() > MASS_ORTHONORMAL_TOL:
        return None
    return vecs


def _relative_residuals(
    k_red: sp.spmatrix, m_red: sp.spmatrix, vals: np.ndarray, vecs: np.ndarray
) -> np.ndarray:
    """``|K v - lam M v| / (max(lam, LAMBDA_1GHZ) |M v|)`` per column."""
    m_vecs = m_red @ vecs
    resid = np.linalg.norm(k_red @ vecs - m_vecs * vals, axis=0)
    return resid / (np.maximum(vals, LAMBDA_1GHZ) * np.linalg.norm(m_vecs, axis=0))


def solve_reduced(
    k_red: sp.csr_matrix,
    m_red: sp.csr_matrix,
    n_modes: int,
    *,
    dense_cutoff: int = 600,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest modes of a reduced symmetric (real) or Hermitian pencil.

    Returns ``(frequencies_ghz, vectors)`` in the space of the arguments,
    real for a real pencil, with mass-orthonormal columns
    (``max|V^H M V - I| <= MASS_ORTHONORMAL_TOL``).  Small systems are
    solved densely.  Larger ones use shift-invert Lanczos (for a real pencil
    a real LU and ARPACK's symmetric driver) with a deterministic start
    vector; it is asked for ``ARPACK_GUARD_MODES`` more modes than kept,
    since its highest Ritz pairs are the loosest.  ARPACK's Ritz vectors
    for a degenerate cluster (the four rigid-body modes at k = 0) need not
    be mass-orthogonal to one another, so they are re-based through the
    Cholesky factor of their mass Gram matrix; the eigenvalues are kept as
    ARPACK returned them.  Every kept mode must then have a relative
    residual of at most ``RESIDUAL_TOL``.  If ARPACK stalls, the re-basing
    fails or a residual is too large, the dense solve is used, up to
    ``DENSE_FALLBACK_MAX_DOFS``; above that ``NumericalError`` is raised.
    """
    n = k_red.shape[0]
    if not 1 <= n_modes <= n:
        raise InvalidParameterError(
            f"n_modes must be between 1 and the reduced size {n}, got {n_modes}"
        )

    def dense_solve(reason: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        if reason is not None and n > DENSE_FALLBACK_MAX_DOFS:
            raise NumericalError(
                f"{reason} on a {n}-DOF system too large for the dense fallback"
            )
        return eigh(
            k_red.toarray(), m_red.toarray(), subset_by_index=[0, n_modes - 1]
        )

    if n <= max(dense_cutoff, 3 * n_modes):
        vals, vecs = dense_solve()
    else:
        # A slightly negative shift keeps the factorization well defined
        # when rigid-body modes make K singular at k = 0.
        sigma = -LAMBDA_1GHZ
        v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
        try:
            vals, vecs = eigsh(
                k_red,
                k=min(n_modes + ARPACK_GUARD_MODES, n - 1),
                M=m_red,
                sigma=sigma,
                which="LM",
                v0=v0,
            )
        except ArpackNoConvergence:
            vals, vecs = dense_solve("ARPACK failed to converge")
        else:
            order = np.argsort(vals)[:n_modes]
            vals, vecs = vals[order], vecs[:, order]
            vecs = _mass_orthonormalize(vecs, m_red)
            if vecs is None:
                vals, vecs = dense_solve(
                    "ARPACK returned vectors that cannot be mass-orthonormalized"
                )
            else:
                worst = _relative_residuals(k_red, m_red, vals, vecs).max()
                if worst > RESIDUAL_TOL:
                    vals, vecs = dense_solve(
                        f"ARPACK returned a mode with relative residual "
                        f"{worst:.2e} > {RESIDUAL_TOL:g}"
                    )
    return _frequencies_ghz(vals), vecs


def solve_bands(
    problem: BlochProblem,
    n_modes: int,
    *,
    dense_cutoff: int = 600,
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (GHz) and full-space mode shapes at one wavenumber.

    Mode shapes are mass-orthonormal in the reduced space and expanded back
    to all nodal DOFs (slave face included) for post-processing.
    """
    freqs, vecs = solve_reduced(
        problem.stiffness, problem.mass, n_modes, dense_cutoff=dense_cutoff
    )
    return freqs, problem.basis @ vecs


@dataclass
class ReflectionMaps:
    """Node permutations realizing the transverse mirror symmetries."""

    perm_y: np.ndarray  # y -> y_mid - (y - y_mid), y_mid = 0
    perm_z: np.ndarray  # z -> z_mid - (z - z_mid)


def reflection_maps(mesh: Mesh) -> ReflectionMaps:
    """Match every node to its mirror partner; error if the mesh is asymmetric."""
    perms = []
    for axis in (1, 2):
        perm = _mirror_perm(mesh, axis)
        if perm is None:
            raise ClassificationError(
                f"mesh is not mirror-symmetric about axis {axis}; "
                "its bands have no mirror parities"
            )
        perms.append(perm)
    return ReflectionMaps(perm_y=perms[0], perm_z=perms[1])


def _parity_sectors(
    operator: _BlochOperator, maps: ReflectionMaps
) -> list[sp.csc_matrix]:
    """Bases S of the (y, z) mirror-parity sectors (even, even), (even, odd),
    (odd, even) and (odd, odd) in the real Bloch basis ``P' Q``.

    There a transverse mirror acts at every k as the signed permutation it
    induces on the kept DOFs, and commutes with the pencil if it commutes
    with K and M.  Both are checked, so the pencil splits exactly into the
    blocks ``S^T (K, M) S``; a break raises ``NumericalError``.  With Y, Z
    those permutations, a basis vector is ``(1 + a Y)(1 + b Z) e_j``,
    normalized, for the first index j of each orbit of {1, Y, Z, YZ} where
    it does not vanish: at most four nonzeros, orthogonal to all others.
    """
    keep = operator.dofs[0]
    # A non-real Bloch phase exercises every phase of P' Q.
    basis = operator.basis(0.5)
    reduced = []
    for perm, axis, name in ((maps.perm_y, 1, "y"), (maps.perm_z, 2, "z")):
        mirror = _signed_mirror(perm, axis)
        for mat in (operator.k_mat, operator.m_mat):
            defect = sparse_norm(mirror @ mat @ mirror.T - mat) / sparse_norm(mat)
            if defect > REAL_FORM_TOL:
                raise NumericalError(
                    f"the operators are not symmetric under the {name} mirror "
                    f"(relative defect {defect:.2e}); its parity sectors "
                    "would drop their couplings"
                )
        reduced.append(mirror[keep][:, keep].tocsc())
        if abs(mirror @ basis - basis @ reduced[-1]).max() > REAL_FORM_TOL:
            raise NumericalError(
                f"the {name} mirror does not map the real Bloch basis onto itself"
            )
    mirror_y, mirror_z = reduced
    eye = sp.identity(keep.size, format="csc")
    cols = np.arange(keep.size)
    y_of, z_of = mirror_y.indices, mirror_z.indices
    first = np.flatnonzero(cols == np.minimum.reduce([cols, y_of, z_of, y_of[z_of]]))
    bases = []
    for a in (1.0, -1.0):
        for b in (1.0, -1.0):
            span = ((eye + a * mirror_y) @ (eye + b * mirror_z)).tocsc()[:, first]
            span.eliminate_zeros()
            norms = np.sqrt(np.asarray(span.multiply(span).sum(axis=0)).ravel())
            live = norms > 0
            bases.append((span[:, live] @ sp.diags(1.0 / norms[live])).tocsc())
    return bases


def classify_parities(sectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(parity_y, parity_z)``, 'even'/'odd', of modes found in ``sectors``.

    A sector index points into ``_parity_sectors``: ``index & 2`` is set
    for the sectors odd under the y mirror, ``index & 1`` for odd under z.
    """
    sectors = np.asarray(sectors)
    return np.where(sectors & 2, "odd", "even"), np.where(sectors & 1, "odd", "even")


def _solve_sectors(
    sectors: list[tuple[sp.csc_matrix, _Series]], k_reduced: float, n_modes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest ``n_modes`` of a real Bloch pencil at one k, solved sector by
    sector; ``sectors`` pairs each basis S of ``_parity_sectors`` with the
    series of ``S^T (K, M) S``.

    Returns ascending frequencies (GHz), the sector index of each and the
    mass-orthonormal vectors in the whole reduced basis.  Every sector is
    asked for ``n_modes`` (or all of its modes), so the lowest ``n_modes``
    of the merged list are the pencil's lowest, whatever their parities.
    """
    freqs, vecs, found_in = [], [], []
    for index, (basis, pencil) in enumerate(sectors):
        found, vectors = solve_reduced(
            *pencil.at(k_reduced), min(n_modes, basis.shape[1])
        )
        freqs.append(found)
        vecs.append(basis @ vectors)
        found_in.append(np.full(found.size, index))
    freqs = np.concatenate(freqs)
    order = np.argsort(freqs, kind="stable")[:n_modes]
    return freqs[order], np.concatenate(found_in)[order], np.hstack(vecs)[:, order]


@dataclass
class BandStructure:
    """Band frequencies (GHz) over a reduced k path, with mirror parities."""

    k_points: np.ndarray  # (nk,) in units of pi/period
    frequencies_ghz: np.ndarray  # (nk, n_modes), ascending per row
    parity_y: np.ndarray | None = None  # (nk, n_modes) of 'even'/'odd'
    parity_z: np.ndarray | None = None
    n_dofs_reduced: int = 0

    @property
    def n_bands(self) -> int:
        return self.frequencies_ghz.shape[1]


def default_k_path(n_points: int = 20) -> np.ndarray:
    """Uniform reduced-wavenumber path over the irreducible zone [0, 1]."""
    if n_points < 1:
        raise InvalidParameterError("k path needs at least one point")
    if n_points == 1:
        return np.array([0.0])
    return np.linspace(0.0, 1.0, n_points)


def band_diagram(
    mesh: Mesh,
    material: Material,
    k_points: np.ndarray | None = None,
    n_modes: int = 30,
) -> BandStructure:
    """Lowest ``n_modes`` bands and their mirror parities along a k path.

    ``k_points`` are reduced wavenumbers in [0, 1] (default: 20 uniform
    points).  The mesh must have matched periodic faces and be
    mirror-symmetric about its three mid-planes.  The real Bloch pencil of
    ``make_bloch_problem``, as its series in k, is split once per call into
    the four sectors of the y and z mirrors (``_parity_sectors``).  At each
    k every sector's pencil is evaluated from its series and solved on its
    own, and a band's parities are those of its sector.
    ``n_dofs_reduced`` is the size of the whole reduced pencil.
    """
    if k_points is None:
        k_points = default_k_path()
    k_points = np.asarray(k_points, dtype=float)
    k_mat, m_mat = assemble(mesh, material)
    operator = _bloch_operator(mesh, k_mat, m_mat)
    n_reduced = operator.dofs[0].size
    if not 1 <= n_modes <= n_reduced:
        raise InvalidParameterError(
            f"n_modes must be between 1 and the reduced size {n_reduced}, "
            f"got {n_modes}"
        )
    sectors = [
        (basis, operator.pencil.project(basis))
        for basis in _parity_sectors(operator, reflection_maps(mesh))
    ]
    freqs, labels = [], []
    for k in k_points:
        found, found_in, _ = _solve_sectors(sectors, k, n_modes)
        freqs.append(found)
        labels.append(classify_parities(found_in))
    parity_y, parity_z = (np.vstack(column) for column in zip(*labels))
    return BandStructure(k_points, np.vstack(freqs), parity_y, parity_z, n_reduced)


def total_mass(m_mat: sp.spmatrix) -> float:
    """Total mesh mass recovered from the mass matrix.

    A uniform unit translation stores kinetic energy (1/2) m v^2, so the
    quadratic form of the translation vector returns the exact integrated
    density regardless of mesh distortion.
    """
    n = m_mat.shape[0] // 3
    ex = np.zeros(3 * n)
    ex[0::3] = 1.0
    return float(ex @ (m_mat @ ex))
