"""Bloch-periodic linear elastodynamics on hexahedral meshes.

Builds sparse stiffness/mass matrices for trilinear hexahedra with a 2x2x2
Gauss rule, applies the Bloch phase by eliminating the slave periodic face,
and solves the reduced generalized eigenproblem for the lowest bands.  The
element lives here whole: its shape functions, its Gauss rule and the one
check of a mesh, the positive Jacobian that ``assemble`` requires of every
mesh, hand-built ones included.  ``geometry`` only lays out the node lattice
and the corner order ``HEX_REF_NODES``.

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
transverse mirrors Y (y -> -y) and Z (z -> -z) are flips of the node
lattice, so they act on the reduced DOFs as commuting signed-permutation
involutions, the same at every k, by construction; only their symmetry of
K and M is checked.  One construction serves all three: their orthonormal
joint +-1 eigenbasis, one vector per orbit.  The +1 eigenbasis of X beside
i times its -1 eigenbasis is T-invariant (``make_bloch_problem``); taken
within one joint eigenspace of Y and Z it spans one parity sector.
``band_diagram`` reduces the pencil to the real series of each of the four
sectors once per call and at each k solves each sector on its own, so a
band's mirror parities are those of its sector, exact by construction (the
standard symmetry reduction; Bossavit, Comput. Methods Appl. Mech. Eng. 56,
167 (1986)).

Along a path of at least ``2 * TRAINING_K`` points every sector is solved
by a reduced Bloch mode expansion (Hussein, loc. cit.): directly at
``TRAINING_K`` training points and at every other k on its pencil projected
onto the training modes, each projected mode checked on the sector's whole
pencil.  A shorter path is solved directly at every k.  ``_sector_bands``
gives the full account.  Each sector has its own basis, so the parities
stay exact.  Every mode not solved densely, from ARPACK or the expansion,
is a Ritz pair (``_ritz``) with a residual of at most ``RESIDUAL_TOL``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.sparse.linalg import norm as sparse_norm

from .errors import ClassificationError, InvalidParameterError, NumericalError
from .geometry import HEX_REF_NODES, Material, Mesh
from .spectrum import BandStructure

GHZ = 1e9
_EIGSH_SEED = 20240817  # fixed ARPACK start vector => reproducible iterates

#: Eigenvalues of magnitude below this (1 MHz) are numerically zero.
FREQ_FLOOR_RAD2 = (2 * math.pi * 1e-3 * GHZ) ** 2

#: Largest entry of |V^H M V - I| accepted for a mass-orthonormal basis.
MASS_ORTHONORMAL_TOL = 1e-8

#: Largest imaginary part, relative to the whole pencil, that the real form
#: may drop; more means the cell is not x-mirror symmetric.  The same bound
#: holds the y and z mirror symmetry of the operators.
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

#: Vectors asked beyond the modes kept, of ARPACK and of each training
#: solve of ``_sector_bands``: the highest Ritz pairs are the least
#: converged, and the extra vectors widen the mode expansion's basis.
ARPACK_GUARD_MODES = 6

#: Largest relative residual |K v - lam M v| / (max(lam, LAMBDA_1GHZ) |M v|)
#: of every Ritz pair published from ARPACK's vectors (``solve_reduced``)
#: or from the mode expansion (``_sector_bands``); a looser pair sends its
#: solve dense or direct.  A Ritz value's error goes as its residual
#: squared, so this holds eigenvalues to about 1e-10.
RESIDUAL_TOL = 1e-5

#: Path points per parity sector solved directly to train the reduced
#: Bloch mode expansion of ``_sector_bands``.
TRAINING_K = 5

#: Largest reduced size solved densely from the start.
DENSE_MAX_DOFS = 600

#: Largest reduced size that a failed sparse solve may repeat densely.
DENSE_FALLBACK_MAX_DOFS = 6000


_G = 1.0 / math.sqrt(3.0)
#: 2x2x2 Gauss points (unit weights) on the reference hexahedron.
GAUSS_POINTS_2 = np.array(
    [[sx * _G, sy * _G, sz * _G] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
)


def hex_shape_functions(xi: np.ndarray) -> np.ndarray:
    """Trilinear shape function values at reference coordinates ``xi`` (3,)."""
    r = HEX_REF_NODES
    return 0.125 * (1 + r[:, 0] * xi[0]) * (1 + r[:, 1] * xi[1]) * (1 + r[:, 2] * xi[2])


def hex_shape_gradients(xi: np.ndarray) -> np.ndarray:
    """Reference-space gradients dN/dxi, shape (8, 3), at ``xi`` (3,)."""
    r = HEX_REF_NODES
    fx = 1 + r[:, 0] * xi[0]
    fy = 1 + r[:, 1] * xi[1]
    fz = 1 + r[:, 2] * xi[2]
    out = np.empty((8, 3))
    out[:, 0] = 0.125 * r[:, 0] * fy * fz
    out[:, 1] = 0.125 * r[:, 1] * fx * fz
    out[:, 2] = 0.125 * r[:, 2] * fx * fy
    return out


# Gradients are constant data; precompute them for the standard rule.
GAUSS_GRADIENTS_2 = np.array([hex_shape_gradients(xi) for xi in GAUSS_POINTS_2])
GAUSS_SHAPES_2 = np.array([hex_shape_functions(xi) for xi in GAUSS_POINTS_2])


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

    Raises
    ------
    InvalidParameterError
        If the Jacobian determinant is not positive at some Gauss point of
        some element: the element is degenerate or turned inside out.
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
    B_2.  ``x_mirror`` is T_r, the x-mirror on the reduced DOFs: X flips
    the node lattice, layer i onto layer n_x - i, and the slave layer n_x
    stands for layer 0, so by construction T_r maps layer i onto
    (n_x - i) mod n_x, a signed-permutation involution the same at every k.
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
    perm = mesh.mirror_nodes(0)
    if perm is None:
        raise NumericalError(
            "mesh is not mirror-symmetric along the beam axis in its node "
            "lattice; the real Bloch form needs it"
        )
    # In lattice order the master face's DOFs come first and the slave
    # face's last, so the reduced DOFs are all but the last face, and slave
    # DOF d is tied to master column d % keep.
    n, face = mesh.n_dofs, 3 * mesh.master_nodes.size
    keep = n - face
    faces = tuple(
        sp.csr_matrix((np.ones(rows.size), (rows, rows % keep)), shape=(n, keep))
        for rows in (np.arange(face, keep), np.arange(face), np.arange(keep, n))
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
    x_mirror = _reduced_mirror(faces, _signed_mirror(perm, 0))
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


def _ritz(
    k_red: sp.spmatrix,
    m_red: sp.spmatrix,
    basis: np.ndarray,
    k_small: np.ndarray,
    m_small: np.ndarray,
    n_modes: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lowest ``n_modes`` Ritz pairs of the pencil ``(k_red, m_red)`` on the
    columns of ``basis`` V, from its projection ``(k_small, m_small)``
    = ``V^H (K, M) V``, with their certificate.

    Returns the Ritz values (rad/s)^2, their vectors ``V y`` and the largest
    relative residual ``|K v - lam M v| / (max(lam, LAMBDA_1GHZ) |M v|)`` on
    the whole pencil; that is inf if the projected mass is not positive
    definite or ``max|V^H M V - I|`` of the vectors exceeds
    ``MASS_ORTHONORMAL_TOL``.  A Ritz value bounds its eigenvalue from
    above, with an error of second order in the residual (Parlett, The
    Symmetric Eigenvalue Problem, ch. 11).
    """
    try:
        vals, coords = eigh(k_small, m_small, subset_by_index=[0, n_modes - 1])
    except LinAlgError:
        return None, None, math.inf
    vecs = basis @ coords
    m_vecs = m_red @ vecs
    if np.abs(vecs.conj().T @ m_vecs - np.eye(n_modes)).max() > MASS_ORTHONORMAL_TOL:
        return vals, vecs, math.inf
    resid = np.linalg.norm(k_red @ vecs - m_vecs * vals, axis=0)
    resid /= np.maximum(vals, LAMBDA_1GHZ) * np.linalg.norm(m_vecs, axis=0)
    return vals, vecs, float(resid.max())


def solve_reduced(
    k_red: sp.csr_matrix, m_red: sp.csr_matrix, n_modes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest modes of a reduced symmetric (real) or Hermitian pencil.

    Returns ``(frequencies_ghz, vectors)`` in the space of the arguments,
    real for a real pencil, with mass-orthonormal columns
    (``max|V^H M V - I| <= MASS_ORTHONORMAL_TOL``).  Systems of up to
    ``DENSE_MAX_DOFS`` (or three times ``n_modes``) are solved densely.
    Larger ones use shift-invert Lanczos (for a real pencil a real LU and
    ARPACK's symmetric driver) with a deterministic start vector.  It is
    asked for ``ARPACK_GUARD_MODES`` more vectors than modes kept, since
    its highest are the loosest, on a Krylov space of three times the
    vectors asked (at least 20, at most the size): ARPACK's default of
    about twice left kept modes of the 16,12,6 mesh loose (on ``ncv``, see
    Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998).  The
    published modes are the lowest Ritz pairs of the pencil on all of
    ARPACK's vectors (``_ritz``), not ARPACK's own eigenvalues, so each
    frequency is its own vector's Rayleigh quotient and bounds the
    eigenvalue from above; every kept mode must have a relative residual
    of at most ``RESIDUAL_TOL``.  If ARPACK stalls or the Ritz pairs fail
    their certificate, the dense solve is used, up to
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
        asked = min(n_modes + ARPACK_GUARD_MODES, n - 1)
        try:
            _, basis = eigsh(
                k_red,
                k=asked,
                M=m_red,
                sigma=sigma,
                which="LM",
                v0=v0,
                ncv=min(n, max(20, 3 * asked)),
            )
        except ArpackNoConvergence:
            vals, vecs = dense_solve("ARPACK failed to converge")
        else:
            projected = (basis.conj().T @ (op @ basis) for op in (k_red, m_red))
            vals, vecs, worst = _ritz(k_red, m_red, basis, *projected, n_modes)
            if worst > RESIDUAL_TOL:
                vals, vecs = dense_solve(
                    f"ARPACK's vectors gave a Ritz pair with relative residual "
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


def reflection_maps(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """``(perm_y, perm_z)``: every node's partner under the y and z mirrors
    (``Mesh.mirror_nodes``); error if the mesh is asymmetric or its nodes
    are not in lattice order."""
    perms = tuple(mesh.mirror_nodes(axis) for axis in (1, 2))
    for axis, perm in zip((1, 2), perms):
        if perm is None:
            raise ClassificationError(
                f"mesh is not mirror-symmetric about axis {axis} in its "
                "node lattice; its bands have no mirror parities"
            )
    return perms


def _parity_sectors(
    operator: _BlochOperator,
    perms: tuple[np.ndarray, np.ndarray],
    k_mat: sp.spmatrix,
    m_mat: sp.spmatrix,
) -> list[sp.csc_matrix]:
    """Unitaries U of the (y, z) mirror-parity sectors (even, even),
    (even, odd), (odd, even) and (odd, odd) of the node permutations
    ``perms`` of ``reflection_maps``: ``_real_form(T_r, (Y_r, Z_r),
    (a, b))``, at most eight nonzeros per column.

    A transverse mirror flips the node lattice across the beam, so it maps
    every x layer, each periodic face included, onto itself, the slave
    face as the master; on the reduced DOFs it acts at every k as the
    signed permutation Y_r it induces there (``Y P'(k) = P'(k) Y_r``).  It
    commutes with the pencil if it commutes with K and M, which is checked,
    so the pencil splits exactly into the sector blocks; a break raises
    ``NumericalError``.
    """
    reduced = []
    for perm, axis, name in zip(perms, (1, 2), "yz"):
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


def _modes_given(found: list[np.ndarray], n_modes: int) -> np.ndarray:
    """How many of the merged lowest ``n_modes`` each sector's ascending
    frequencies in ``found`` give."""
    return np.bincount(_merge_sectors(found, n_modes)[1], minlength=len(found))


def _sector_budgets(trained: list[list[np.ndarray]], n_modes: int) -> np.ndarray:
    """Modes each sector solves for at a projected k of ``_sector_bands``.

    ``trained`` holds, per training k, the kept frequencies of each sector,
    all ``min(n_modes, size)`` of them.  A sector's budget is one more than
    the most modes it gives the merged lowest ``n_modes`` at any training
    k, so that its top computed mode can show the merge passing it over, and
    at most all the modes it keeps.
    """
    most = np.max([_modes_given(found, n_modes) for found in trained], axis=0)
    return np.minimum(most + 1, [f.size for f in trained[0]])


def _uncertified(found: list[np.ndarray], kept: list[int], n_modes: int) -> list[int]:
    """Sectors at one k whose unsolved modes could reach the merged lowest
    ``n_modes``: those with fewer computed modes than the ``kept`` they
    hold, every one of which the merge takes.  A sector whose top computed
    mode the merge passes over hides nothing, as its unsolved modes lie
    above that one."""
    given = _modes_given(found, n_modes)
    return [s for s, f in enumerate(found) if f.size < kept[s] and given[s] == f.size]


def _sector_bands(
    sectors: list[_Series], k_points: np.ndarray, n_modes: int
) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """``(frequencies_ghz, vectors)`` of each sector's lowest modes at each k
    in turn, in the order of ``sectors``, by a reduced Bloch mode expansion
    (Hussein, Proc. R. Soc. A 465, 2825 (2009)).  Their merge
    (``_merge_sectors``) takes the same lowest ``n_modes`` as the sectors'
    whole ``min(n_modes, size)`` lists would.

    A path of fewer than ``2 * TRAINING_K`` points would project fewer k
    than it trains on, and the projection costs about as much as a few
    direct solves, so every sector is solved directly at every k, for the
    ``min(n_modes, size)`` modes it keeps.

    On a longer path the ``TRAINING_K`` points with indices
    ``round(linspace(0, nk - 1, TRAINING_K))`` are solved directly up front,
    each sector for ``ARPACK_GUARD_MODES`` modes more than it keeps, and an
    orthonormal basis W of each sector's training vectors (an economic QR)
    is projected once onto each series term; where W spans the whole
    sector the projection is exact.  The training merges give each sector a
    budget b (``_sector_budgets``): one more than the most modes it gives
    the merged lowest ``n_modes`` at any training k.  At every other k each
    sector's projected pencil, with the series' own weights, is solved
    densely for its lowest b Ritz pairs (``_ritz``), and their vectors W y
    are kept only if they are mass-orthonormal and every one has a relative
    residual on the sector's whole pencil of at most ``RESIDUAL_TOL``;
    otherwise that sector is solved directly there for the modes it keeps.
    Then the merge is certified (``_uncertified``): a sector with fewer
    computed modes than it keeps must have one that the merge leaves out,
    and one that has none is solved directly there too.  A sector solved in
    full always passes, and its extra modes only push the others' out, so
    one round of direct solves certifies the k.

    The residual check certifies each computed mode, not that none is
    missing: Ritz values only bound the eigenvalues from above, so a band
    whose mode lies almost wholly outside W could drop out of a sector's
    computed modes, shifting the ones above it, while every computed mode
    still passes.  Every eigenvalue not solved densely is a Ritz value, an
    upper bound.  Vectors are mass-orthonormal in each sector's basis, the
    kept modes' leading; each k's are made only when it is reached.
    """
    if len(k_points) < 2 * TRAINING_K:
        for k in k_points:
            yield [_solve_sector(series, k, n_modes) for series in sectors]
        return
    training = np.round(np.linspace(0, len(k_points) - 1, TRAINING_K)).astype(int)
    solved = {
        i: [_solve_sector(series, k_points[i], n_modes, ARPACK_GUARD_MODES)
            for series in sectors]
        for i in training
    }
    budgets = _sector_budgets([[f for f, _ in solved[i]] for i in training], n_modes)
    kept = [min(n_modes, series.size) for series in sectors]
    bases = [np.linalg.qr(np.hstack([solved[i][s][1] for i in training]))[0]
             for s in range(len(sectors))]
    projected = [series.project(basis) for series, basis in zip(sectors, bases)]

    def project(s: int, k: float) -> tuple[np.ndarray, np.ndarray]:
        series, weights = sectors[s], sectors[s].weights(k)
        small = (np.tensordot(weights, term, axes=1) for term in projected[s])
        vals, vecs, worst = _ritz(*series.at(k), bases[s], *small, budgets[s])
        if worst <= RESIDUAL_TOL:
            return _frequencies_ghz(vals), vecs
        return _solve_sector(series, k, n_modes)

    for i, k in enumerate(k_points):
        if i in solved:
            yield solved.pop(i)
            continue
        found = [project(s, k) for s in range(len(sectors))]
        for s in _uncertified([f for f, _ in found], kept, n_modes):
            found[s] = _solve_sector(sectors[s], k, n_modes)
        yield found


def _merge_sectors(
    found: list[np.ndarray], n_modes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``n_modes`` of a Bloch pencil at one k from the ascending
    frequencies (GHz) of each of its sectors, in the order of
    ``_parity_sectors``.

    Returns the ascending frequencies and the sector index of each.  Every
    sector holds its lowest ``min(n_modes, size)`` modes, or fewer with one
    that the merge leaves out (``_uncertified``), so the lowest ``n_modes``
    of the merged list are the pencil's lowest, whatever their parities.
    The sort is stable, so each sector's modes keep their order.
    """
    freqs = np.concatenate(found)
    found_in = np.concatenate([np.full(f.size, index) for index, f in enumerate(found)])
    order = np.argsort(freqs, kind="stable")[:n_modes]
    return freqs[order], found_in[order]


def band_diagram(
    mesh: Mesh, material: Material, k_points: np.ndarray, n_modes: int
) -> BandStructure:
    """Lowest ``n_modes`` bands and their mirror parities along a k path.

    ``k_points`` are reduced wavenumbers in [0, 1].  The mesh must have
    matched periodic faces, its nodes in lattice order (``Mesh``), and be
    mirror-symmetric about its three mid-planes.  Once per call the Bloch
    operator is built and reduced to the real series in k of each of the
    four sectors of the y and z mirrors (``_parity_sectors``); the whole
    pencil of ``make_bloch_problem`` is their direct sum.  Every sector is
    solved on its own along the path (``_sector_bands``): directly at every
    k of a path of fewer than ``2 * TRAINING_K`` points, otherwise by a
    reduced Bloch mode expansion, trained at ``TRAINING_K`` direct solves
    and projected at every other k.  A band's parities are those of its
    sector, exact by construction.  At each k the lowest ``n_modes`` of the
    four sectors are merged into a ``spectrum.BandStructure``, whose
    ``n_dofs_reduced`` is the size of the whole reduced pencil.
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
    perms = reflection_maps(mesh)
    sectors = [operator.series(unitary)
               for unitary in _parity_sectors(operator, perms, k_mat, m_mat)]
    # Keeping only frequencies: no k's vectors outlive it.
    freqs, labels = [], []
    for solved in _sector_bands(sectors, k_points, n_modes):
        found, found_in = _merge_sectors([f for f, _ in solved], n_modes)
        freqs.append(found)
        labels.append(classify_parities(found_in))
    parity_y, parity_z = (np.vstack(column) for column in zip(*labels))
    return BandStructure(k_points, np.vstack(freqs), parity_y, parity_z, n_reduced)
