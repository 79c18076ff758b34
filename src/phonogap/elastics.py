"""Bloch-periodic linear elastodynamics on hexahedral meshes.

Builds sparse stiffness/mass matrices for trilinear hexahedra with a 2x2x2
Gauss rule, applies the Bloch phase by eliminating the slave periodic face,
and solves the reduced generalized eigenproblem for the lowest bands.

The reduced Bloch pencil is Hermitian, but the cell is also invariant under
the axial mirror X (x -> period - x).  X maps a Bloch wave at k to one at -k
and complex conjugation maps it back, so T = X o conj is an antiunitary
symmetry at every k with T^2 = 1.  In a basis of T-invariant vectors the
pencil is real symmetric (Wigner's time-reversal argument), which buys a
real LU and ARPACK's symmetric Lanczos driver.

In the symmetric gauge, where the reduced master-face DOFs carry the phase
e^{-i theta} and their slave images e^{i theta} (theta = pi k / 2), the
pencil is a short cosine/sine series in theta whose face blocks are built
once per mesh (a Bloch-reduced pencil is a trigonometric polynomial in the
phase; Hussein, Proc. R. Soc. A 465, 2825 (2009)).  There X and the
transverse mirrors Y (y -> -y) and Z (z -> -z) act on the reduced DOFs as
commuting signed-permutation involutions, the same at every k, and one
construction serves all three: their orthonormal joint +-1 eigenbasis, one
vector per orbit.  The +1 eigenbasis of X beside i times its -1 eigenbasis
is T-invariant (``make_bloch_problem``); taken within one joint eigenspace
of Y and Z it spans one parity sector.  ``band_diagram`` reduces the pencil
to the real series of each of the four sectors once per call and at each k
solves each sector on its own, so a band's mirror parities are those of its
sector, exact by construction (the standard symmetry reduction; Bossavit,
Comput. Methods Appl. Mech. Eng. 56, 167 (1986)).

Along a path of at least ``2 * TRAINING_K`` points, each sector is solved
by a reduced Bloch mode expansion (Hussein, loc. cit.): directly at
``TRAINING_K`` points, whose modes span an orthonormal basis W, and at every
other k on the series projected once onto W, a small dense pencil.  Each
projected mode is published only if its residual on the sector's whole
pencil is at most ``PROJECTED_RESIDUAL_TOL``; otherwise that k is solved
directly.  The check certifies the published modes, not that no band was
missed.  Each sector has its own basis, so the parities stay exact.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
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
#: holds the y and z mirror symmetry of the operators and the Bloch basis.
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

#: Path points per parity sector solved directly to train the reduced
#: Bloch mode expansion of ``_sector_bands``.
TRAINING_K = 5

#: Largest relative residual, on a sector's whole pencil, of a mode that
#: ``_sector_bands`` publishes from its projected pencil; a looser mode
#: sends its k to the direct solve.  An eigenvalue's error goes as its
#: residual squared: under ``RESIDUAL_TOL`` projected bands from 1 GHz up
#: drifted up to 1.9e-9 from the direct solves; under this bound those from
#: 5 GHz up stayed within 5e-11 on ten perturbed 10,8,4 cells.
PROJECTED_RESIDUAL_TOL = 1e-5

#: Largest reduced size solved densely from the start.
DENSE_MAX_DOFS = 600

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


def _half_phase(k_reduced: float) -> float:
    """theta = pi k / 2, half the Bloch phase across the period."""
    if not math.isfinite(k_reduced) or not (-1.0 <= k_reduced <= 1.0):
        raise InvalidParameterError(
            f"reduced wavenumber must lie in [-1, 1], got {k_reduced!r}"
        )
    return 0.5 * math.pi * k_reduced


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


def _mirror_perm(mesh: Mesh, axis: int) -> np.ndarray | None:
    """Node permutation of the mirror across the mid-plane of ``axis``.

    Each reflected node is matched to the nearest node; None when some
    match is further than 1e-6 of the cell's largest extent.
    """
    coords = mesh.nodes
    scale = max(mesh.period_m, np.ptp(coords[:, 1]), np.ptp(coords[:, 2]))
    along = coords[:, axis]
    flipped = coords.copy()
    flipped[:, axis] = along.min() + along.max() - along
    dist, idx = cKDTree(coords).query(flipped)
    return None if dist.max() > 1e-6 * scale else idx


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

    def weights(self, k_reduced: float) -> np.ndarray:
        """The weight of each kept term at k."""
        theta = _half_phase(k_reduced)
        waves = [f(n * theta) for n in (1, 2) for f in (math.cos, math.sin)]
        return np.array([1.0, *waves])[: self.coefs[0].shape[0]]

    def at(self, k_reduced: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        weights = self.weights(k_reduced)
        shape = (self.size, self.size)
        return tuple(
            sp.csr_matrix((weights @ coefs, indices, indptr), shape=shape)
            for (indices, indptr), coefs in zip(self.patterns, self.coefs)
        )

    def project(self, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The terms ``W^T (K_t, M_t) W`` on the columns of ``basis`` W, each
        stacked as an ``(n_terms, r, r)`` array; ``weights(k)`` sums them to
        the pencil at k projected onto W."""
        shape = (self.size, self.size)
        return tuple(
            np.stack([
                basis.T @ (sp.csr_matrix((row, indices, indptr), shape=shape) @ basis)
                for row in coefs
            ])
            for (indices, indptr), coefs in zip(self.patterns, self.coefs)
        )


def _joint_eigenbasis(mirrors: tuple, signs: tuple) -> sp.csc_matrix:
    """Orthonormal real basis of the vectors v with ``G v = s v`` for every
    mirror G and its sign s.

    The mirrors are commuting signed-permutation involutions in CSC form,
    one entry per column.  A basis vector is ``prod_G (1 + s G) e_j``,
    normalized, for the first index j of each orbit of the group they
    generate, where it does not vanish.  It lives on its orbit, so the
    vectors are orthogonal to one another, each has at most
    ``2 ** len(mirrors)`` nonzeros, and over all sign choices they span
    the whole space.
    """
    size = mirrors[0].shape[0]
    orbits = [np.arange(size)]
    for mirror in mirrors:
        orbits += [mirror.indices[image] for image in orbits]
    first = np.flatnonzero(orbits[0] == np.minimum.reduce(orbits))
    span = sp.identity(size, format="csc")[:, first]
    for mirror, sign in zip(mirrors, signs):
        span = span + sign * (mirror @ span)
    span = span.tocsc()
    span.eliminate_zeros()
    norms = np.sqrt(np.asarray(span.multiply(span).sum(axis=0)).ravel())
    live = norms > 0
    return (span[:, live] @ sp.diags(1.0 / norms[live])).tocsc()


def _real_form(
    x_mirror: sp.csc_matrix, mirrors: tuple = (), signs: tuple = ()
) -> sp.csc_matrix:
    """Unitary U onto the T-invariant reduced vectors, within the joint
    eigenspace of further ``mirrors`` with ``signs``.

    In reduced coordinates T is ``v -> T_r conj(v)``, T_r the reduced
    x-mirror (``_BlochOperator.x_mirror``).  U is the +1 eigenbasis of T_r
    beside i times its -1 eigenbasis (``_joint_eigenbasis``), so
    ``T_r conj(U) = U``, and with T^2 = 1 ``U^H A U`` is real for every
    Hermitian A that commutes with T.  With no mirrors U spans the whole
    reduced space; with the reduced y and z mirrors and their signs it
    spans one parity sector.
    """
    even, odd = (
        _joint_eigenbasis((x_mirror, *mirrors), (sign, *signs))
        for sign in (1.0, -1.0)
    )
    return sp.hstack([even, 1j * odd], format="csc")


def _reduced_mirror(faces: tuple, mirror: sp.spmatrix) -> sp.csc_matrix:
    """A mirror of nodal fields as it acts on the reduced DOFs: ``R X P``,
    with P the Bloch basis at k = 0 and R keeping the reduced DOFs' rows."""
    inside, master, slave = faces
    return ((inside + master).T @ mirror @ (inside + master + slave)).tocsc()


@dataclass
class _BlochOperator:
    """The Bloch pencil of one mesh at every k, before a real basis.

    ``faces`` are E_0, E_1, E_2, the 0/1 maps from the reduced DOFs (all
    off the slave face) to the nodal DOFs inside the cell, on the master
    face and on the slave face.  In the symmetric gauge the Bloch basis is
    ``P'(k) = E_0 + e^{-i theta} E_1 + e^{i theta} E_2``, theta = pi k / 2.
    The block ``E_f^T A E_g`` of ``P'^H A P'`` carries ``e^{i n theta}``,
    n = s_g - s_f with s = (0, -1, 1); ``blocks`` holds, for K and then M,
    their sums B_0, B_1 and, where an element touches both periodic faces,
    B_2.  ``x_mirror`` is T_r, the x-mirror on the reduced DOFs, a
    signed-permutation involution the same at every k.
    """

    faces: tuple
    blocks: tuple
    x_mirror: sp.csc_matrix

    def basis(self, k_reduced: float) -> sp.csr_matrix:
        """``P'(k)``: reduced vectors to full nodal DOFs."""
        phase = cmath.exp(1j * _half_phase(k_reduced))
        inside, master, slave = self.faces
        return (inside + phase.conjugate() * master + phase * slave).tocsr()

    def series(self, unitary: sp.spmatrix) -> _Series:
        """The real series of ``U^H P'^H (K, M) P' U`` for a unitary U of
        ``_real_form``.

        The pencil is ``B_0 + sum_n e^{i n theta} B_n + e^{-i n theta}
        B_n^H``, i.e. ``C_0 + sum_n cos(n theta) C_n + sin(n theta) D_n``
        with ``C_0 = U^H B_0 U``, ``C_n = U^H (B_n + B_n^H) U`` and
        ``D_n = i U^H (B_n - B_n^H) U``.  Their imaginary parts are checked
        against ``REAL_FORM_TOL`` and dropped.
        """
        unitary_h = unitary.getH().tocsr()
        real = []
        for blocks in self.blocks:
            first, *rest = (unitary_h @ block @ unitary for block in blocks)
            terms = [first]
            for block in rest:
                terms += [block + block.getH(), 1j * (block - block.getH())]
            imag = math.hypot(*(np.linalg.norm(term.data.imag) for term in terms))
            drift = imag / math.hypot(*(np.linalg.norm(term.data) for term in terms))
            if drift > REAL_FORM_TOL:
                raise NumericalError(
                    f"the Bloch pencil is not real in the x-mirror basis "
                    f"(relative imaginary part {drift:.2e}); "
                    "the operators are not x-mirror symmetric"
                )
            real.append([0.5 * (term + term.T).real.tocsr() for term in terms])
        return _Series.from_terms(*real)


def _bloch_operator(
    mesh: Mesh, k_mat: sp.spmatrix, m_mat: sp.spmatrix
) -> _BlochOperator:
    perm = _mirror_perm(mesh, 0)
    if perm is None:
        raise NumericalError(
            "mesh is not mirror-symmetric along the beam axis; "
            "the real Bloch form needs it"
        )
    n = mesh.n_dofs
    slave, master = (
        (3 * nodes[:, None] + np.arange(3)).ravel()
        for nodes in (mesh.slave_nodes, mesh.master_nodes)
    )
    keep = np.setdiff1d(np.arange(n), slave)
    column = np.full(n, -1, dtype=np.int64)
    column[keep] = np.arange(keep.size)
    column[slave] = column[master]
    inside = np.setdiff1d(keep, master)
    faces = tuple(
        sp.csr_matrix((np.ones(rows.size), (rows, column[rows])), shape=(n, keep.size))
        for rows in (inside, master, slave)
    )
    shifts = (0, -1, 1)
    blocks = []
    for mat in (k_mat, m_mat):
        summed = [0, 0, 0]
        for f, left in enumerate(faces):
            for g, right in enumerate(faces):
                if shifts[g] >= shifts[f]:
                    summed[shifts[g] - shifts[f]] += left.T @ mat @ right
        blocks.append([sp.csr_matrix(block) for block in summed])
    if not any(by_shift[2].nnz for by_shift in blocks):
        # B_2 couples master to slave DOFs directly; only an element
        # touching both faces makes it.
        blocks = [by_shift[:2] for by_shift in blocks]
    # An involution with one entry per column is a signed permutation.
    x_mirror = _reduced_mirror(faces, _signed_mirror(perm, 0))
    eye = sp.identity(keep.size)
    if x_mirror.nnz != keep.size or abs(x_mirror @ x_mirror - eye).max() > 0:
        raise NumericalError(
            "the x-mirror does not map the Bloch space onto itself; "
            "the periodic faces do not match the mirror"
        )
    return _BlochOperator(faces, tuple(blocks), x_mirror)


def make_bloch_problem(
    mesh: Mesh,
    k_reduced: float,
    k_mat: sp.spmatrix,
    m_mat: sp.spmatrix,
) -> BlochProblem:
    """Tie the slave face to the master face at one wavenumber, in real form.

    ``k_reduced`` is the axial Bloch wavenumber in units of pi/period; the
    irreducible zone is [0, 1], and values down to -1 are accepted so that
    time-reversal pairs (k, -k) can be compared directly.  The basis is
    ``P'(k) U``: P' ties each slave-face DOF to its master in the symmetric
    gauge of ``_BlochOperator`` (the slave face is ``e^{i pi k}`` times the
    master face), and U is ``_real_form`` of the reduced x-mirror, the same
    at every k.  The pencil ``U^H P'^H (K, M) P' U`` is the real series of
    ``_BlochOperator.series`` at k; ``k_mat`` or ``m_mat`` that break the
    x-mirror raise ``NumericalError``.  Full-space modes are
    ``basis @ vectors``, complex Bloch waves; the gauge changes the
    pencil's entries, not its eigenvalues.
    """
    operator = _bloch_operator(mesh, k_mat, m_mat)
    unitary = _real_form(operator.x_mirror)
    stiffness, mass = operator.series(unitary).at(k_reduced)
    basis = (operator.basis(k_reduced) @ unitary).tocsr()
    return BlochProblem(k_reduced, stiffness, mass, basis)


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
    k_red: sp.csr_matrix, m_red: sp.csr_matrix, n_modes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest modes of a reduced symmetric (real) or Hermitian pencil.

    Returns ``(frequencies_ghz, vectors)`` in the space of the arguments,
    real for a real pencil, with mass-orthonormal columns
    (``max|V^H M V - I| <= MASS_ORTHONORMAL_TOL``).  Systems of up to
    ``DENSE_MAX_DOFS`` (or three times ``n_modes``) are solved densely.
    Larger ones use shift-invert Lanczos (for a real pencil
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

    if n <= max(DENSE_MAX_DOFS, 3 * n_modes):
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
    problem: BlochProblem, n_modes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (GHz) and full-space mode shapes at one wavenumber.

    Mode shapes are mass-orthonormal in the reduced space and expanded back
    to all nodal DOFs (slave face included) for post-processing.
    """
    freqs, vecs = solve_reduced(problem.stiffness, problem.mass, n_modes)
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
    operator: _BlochOperator,
    maps: ReflectionMaps,
    k_mat: sp.spmatrix,
    m_mat: sp.spmatrix,
) -> list[sp.csc_matrix]:
    """Unitaries U of the (y, z) mirror-parity sectors (even, even),
    (even, odd), (odd, even) and (odd, odd): ``_real_form(T_r, (Y_r, Z_r),
    (a, b))``, at most eight nonzeros per column.

    A transverse mirror maps each periodic face onto itself, so on the
    reduced DOFs it acts at every k as the signed permutation Y_r it
    induces there (``Y P'(k) = P'(k) Y_r``), and it commutes with the
    pencil if it commutes with K and M.  Both are checked, so the pencil
    splits exactly into the sector blocks; a break raises ``NumericalError``.
    """
    # A non-real Bloch phase exercises every phase of P'.
    basis = operator.basis(0.5)
    reduced = []
    for perm, axis, name in ((maps.perm_y, 1, "y"), (maps.perm_z, 2, "z")):
        mirror = _signed_mirror(perm, axis)
        for mat in (k_mat, m_mat):
            defect = sparse_norm(mirror @ mat @ mirror.T - mat) / sparse_norm(mat)
            if defect > REAL_FORM_TOL:
                raise NumericalError(
                    f"the operators are not symmetric under the {name} mirror "
                    f"(relative defect {defect:.2e}); its parity sectors "
                    "would drop their couplings"
                )
        reduced.append(_reduced_mirror(operator.faces, mirror))
        if abs(mirror @ basis - basis @ reduced[-1]).max() > REAL_FORM_TOL:
            raise NumericalError(
                f"the {name} mirror does not map the Bloch basis onto itself"
            )
    return [
        _real_form(operator.x_mirror, reduced, (a, b))
        for a in (1.0, -1.0)
        for b in (1.0, -1.0)
    ]


def classify_parities(sectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(parity_y, parity_z)``, 'even'/'odd', of modes found in ``sectors``.

    A sector index points into ``_parity_sectors``: ``index & 2`` is set
    for the sectors odd under the y mirror, ``index & 1`` for odd under z.
    """
    sectors = np.asarray(sectors)
    return np.where(sectors & 2, "odd", "even"), np.where(sectors & 1, "odd", "even")


def _solve_sector(
    series: _Series, k_reduced: float, n_modes: int, guard_modes: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Direct solve of one sector's pencil at one k.

    Returns the lowest ``min(n_modes, size)`` frequencies (GHz) and the
    mass-orthonormal vectors of those and of up to ``guard_modes`` more
    modes, ascending, so the kept modes' vectors lead and the rest widen a
    ``_sector_bands`` basis.
    """
    asked = min(n_modes + guard_modes, series.size)
    freqs, vecs = solve_reduced(*series.at(k_reduced), asked)
    return freqs[: min(n_modes, series.size)], vecs


def _sector_bands(
    series: _Series, k_points: np.ndarray, n_modes: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(frequencies_ghz, vectors)`` of one sector's lowest
    ``min(n_modes, size)`` modes at each k in turn, by a reduced Bloch mode
    expansion (Hussein, Proc. R. Soc. A 465, 2825 (2009)).

    The ``TRAINING_K`` path points with indices ``round(linspace(0, nk - 1,
    TRAINING_K))`` are solved directly up front, each for
    ``ARPACK_GUARD_MODES`` modes more than kept, and an orthonormal basis W
    of all their vectors (an economic QR) is projected once onto each
    series term.  At every other k the projected pencil, with the series'
    own weights, is solved densely and its Ritz vectors W y are kept only
    if every one has a relative residual on the sector's whole pencil of at
    most ``PROJECTED_RESIDUAL_TOL``; otherwise that k is solved directly
    as a training point is.  The projection costs about as much as a few
    direct solves, so a path that would project fewer k than it trains on,
    or a basis that would span the whole sector, is solved directly at
    every k, exactly as without the expansion.

    The check certifies each published mode, not that none is missing:
    Ritz values only bound the eigenvalues from above, so a band whose mode
    lies almost wholly outside W could drop out of the kept set, shifting
    the bands above it, while every kept mode still passes.  Vectors are
    mass-orthonormal in the sector's basis, the kept modes' leading; each
    k's are made only when it is reached.
    """
    nk = len(k_points)
    training = np.unique(np.round(np.linspace(0, nk - 1, TRAINING_K)).astype(int))
    width = training.size * min(n_modes + ARPACK_GUARD_MODES, series.size)
    if nk < 2 * training.size or width >= series.size:
        for k in k_points:
            yield _solve_sector(series, k, n_modes)
        return
    solved = {i: _solve_sector(series, k_points[i], n_modes, ARPACK_GUARD_MODES)
              for i in training}
    basis = np.linalg.qr(np.hstack([v for _, v in solved.values()]))[0]
    terms = series.project(basis)
    kept = min(n_modes, series.size)
    for i, k in enumerate(k_points):
        if i in solved:
            yield solved.pop(i)
            continue
        weights = series.weights(k)
        vals, coords = eigh(
            *(np.tensordot(weights, term, axes=1) for term in terms),
            subset_by_index=[0, kept - 1],
        )
        vecs = basis @ coords
        if (_relative_residuals(*series.at(k), vals, vecs).max()
                <= PROJECTED_RESIDUAL_TOL):
            yield _frequencies_ghz(vals), vecs
        else:
            yield _solve_sector(series, k, n_modes, ARPACK_GUARD_MODES)


def _merge_sectors(
    found: list[np.ndarray], n_modes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``n_modes`` of a Bloch pencil at one k from the ascending
    frequencies (GHz) of each of its sectors, in the order of
    ``_parity_sectors``.

    Returns the ascending frequencies and the sector index of each.  Every
    sector holds ``n_modes`` (or all of its modes), so the lowest
    ``n_modes`` of the merged list are the pencil's lowest, whatever their
    parities.  The sort is stable, so each sector's modes keep their order.
    """
    freqs = np.concatenate(found)
    found_in = np.concatenate([np.full(f.size, index) for index, f in enumerate(found)])
    order = np.argsort(freqs, kind="stable")[:n_modes]
    return freqs[order], found_in[order]


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


def default_k_path(n_points: int) -> np.ndarray:
    """Uniform reduced-wavenumber path over the irreducible zone [0, 1]."""
    if n_points < 1:
        raise InvalidParameterError("k path needs at least one point")
    return np.linspace(0.0, 1.0, n_points)


def band_diagram(
    mesh: Mesh, material: Material, k_points: np.ndarray, n_modes: int
) -> BandStructure:
    """Lowest ``n_modes`` bands and their mirror parities along a k path.

    ``k_points`` are reduced wavenumbers in [0, 1].  The mesh must have
    matched periodic faces and be mirror-symmetric about its three
    mid-planes.  Once per call the Bloch operator is built and reduced to
    the real series in k of each of the four sectors of the y and z mirrors
    (``_parity_sectors``); the whole pencil of ``make_bloch_problem`` is
    their direct sum.  Every sector is solved on its own along the path by
    a reduced Bloch mode expansion (``_sector_bands``): directly at
    ``TRAINING_K`` training k, and at every other k on its pencil projected
    onto the training modes, each projected mode checked against
    ``PROJECTED_RESIDUAL_TOL`` on the sector's whole pencil and the k
    solved directly if one misses it.  A path of fewer than
    ``2 * TRAINING_K`` points is solved directly at every k.  The check
    certifies the published modes, not that no band below them was missed
    (see ``_sector_bands``).  A band's parities are those of its sector,
    exact by construction.  At each k the lowest ``n_modes`` of the four
    sectors are merged.  ``n_dofs_reduced`` is the size of the whole
    reduced pencil.
    """
    k_points = np.asarray(k_points, dtype=float)
    if k_points.ndim != 1 or k_points.size == 0:
        raise InvalidParameterError("k path needs at least one point")
    k_mat, m_mat = assemble(mesh, material)
    operator = _bloch_operator(mesh, k_mat, m_mat)
    n_reduced = operator.x_mirror.shape[0]
    if not 1 <= n_modes <= n_reduced:
        raise InvalidParameterError(
            f"n_modes must be between 1 and the reduced size {n_reduced}, "
            f"got {n_modes}"
        )
    maps = reflection_maps(mesh)
    sectors = [operator.series(unitary)
               for unitary in _parity_sectors(operator, maps, k_mat, m_mat)]
    # Sector by sector, keeping only frequencies: no k's vectors outlive it.
    by_sector = [[found for found, _ in _sector_bands(pencil, k_points, n_modes)]
                 for pencil in sectors]
    freqs, labels = [], []
    for found_per_sector in zip(*by_sector):
        found, found_in = _merge_sectors(found_per_sector, n_modes)
        freqs.append(found)
        labels.append(classify_parities(found_in))
    parity_y, parity_z = (np.vstack(column) for column in zip(*labels))
    return BandStructure(k_points, np.vstack(freqs), parity_y, parity_z, n_reduced)
