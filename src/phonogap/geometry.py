"""Parametric unit-cell geometry and structured hexahedral meshing.

The periodic unit cell of the phononic crystal is an elliptical block
suspended by a narrow tether running along the beam axis, with a circular
fillet smoothing the block/tether junction.  Because the cross section at
every axial position is a single centered interval ``|y| <= Y(x)``, the solid
can be meshed as a graded channel: a uniform grid along the beam axis whose
transverse node lines are scaled to the local half-width and extruded through
the thickness.  This yields guaranteed positive Jacobians and exactly matched
node sets on the two periodic faces.

All user-facing lengths are in nanometres; node coordinates of generated
meshes are converted to metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidParameterError, MeshingError

NM = 1e-9

# Reference-element node coordinates of the 8-node hexahedron, ordered
# bottom face counter-clockwise then top face counter-clockwise.
HEX_REF_NODES = np.array(
    [
        [-1.0, -1.0, -1.0],
        [+1.0, -1.0, -1.0],
        [+1.0, +1.0, -1.0],
        [-1.0, +1.0, -1.0],
        [-1.0, -1.0, +1.0],
        [+1.0, -1.0, +1.0],
        [+1.0, +1.0, +1.0],
        [-1.0, +1.0, +1.0],
    ]
)

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


@dataclass(frozen=True)
class UnitCellParams:
    """Geometric parameters of one phononic-crystal unit cell, in nanometres.

    Attributes
    ----------
    w, h : float
        Major (along the beam) and minor (transverse) axes of the elliptical
        block.
    a : float
        Lattice constant (axial period).
    t : float
        Tether width.
    r : float
        Fillet radius at the block/tether junction; ``0`` disables the fillet.
    d : float
        Device-layer thickness (extrusion depth).
    """

    w: float = 95.7
    h: float = 89.9
    a: float = 129.6
    t: float = 22.1
    r: float = 16.9
    d: float = 70.3

    def validate(self) -> None:
        """Raise :class:`InvalidParameterError` on an unbuildable cell."""
        for name in ("w", "h", "a", "t", "d"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {value!r}")
        if not math.isfinite(self.r) or self.r < 0:
            raise InvalidParameterError(f"r must be non-negative, got {self.r!r}")
        if self.w >= self.a:
            raise InvalidParameterError(
                f"block length w={self.w} must be smaller than the period a={self.a}"
            )
        if self.h >= self.a:
            raise InvalidParameterError(
                f"block width h={self.h} must be smaller than the period a={self.a}"
            )
        # t == h degenerates to a uniform beam, which is allowed; wider
        # tethers than the block are not.
        if self.t > self.h:
            raise InvalidParameterError(
                f"tether width t={self.t} must not exceed block width h={self.h}"
            )
        if self.r > 0:
            solve_fillet(self)  # raises if not constructible

    def replace(self, **changes: float) -> "UnitCellParams":
        """Return a copy with the given fields updated."""
        return replace(self, **changes)


@dataclass(frozen=True)
class Material:
    """Cubic elastic medium (GPa, kg m^-3) aligned with the device axes.

    The default values are the standard single-crystal diamond constants.
    The cubic symmetry keeps the three device mirrors, which the real Bloch
    form and the parity labels rely on.
    """

    c11_gpa: float = 1079.0
    c12_gpa: float = 124.0
    c44_gpa: float = 578.0
    rho_kgm3: float = 3515.0

    def validate(self) -> None:
        c11, c12, c44 = self.c11_gpa, self.c12_gpa, self.c44_gpa
        if not (math.isfinite(self.rho_kgm3) and self.rho_kgm3 > 0):
            raise InvalidParameterError(
                f"density must be finite and positive, got {self.rho_kgm3}"
            )
        # Positive-definiteness of the cubic stiffness tensor.
        if not all(map(math.isfinite, (c11, c12, c44))) or (
            c44 <= 0 or c11 <= abs(c12) or c11 + 2 * c12 <= 0
        ):
            raise InvalidParameterError(
                "cubic stiffness constants must be finite and define a stable "
                f"material: C11={c11}, C12={c12}, C44={c44}"
            )

    def stiffness_voigt_pa(self) -> np.ndarray:
        """6x6 stiffness in Pa, Voigt order (xx, yy, zz, yz, xz, xy)."""
        c11 = self.c11_gpa * 1e9
        c12 = self.c12_gpa * 1e9
        c44 = self.c44_gpa * 1e9
        c = np.zeros((6, 6))
        c[:3, :3] = c12
        np.fill_diagonal(c[:3, :3], c11)
        c[3, 3] = c[4, 4] = c[5, 5] = c44
        return c


DIAMOND = Material()


class FilletArc(NamedTuple):
    """Fillet circle tangent to the tether edge and the block ellipse.

    Coordinates are in nanometres, measured from the block centre; the arc
    described is the one in the first quadrant (mirror images handle the
    other three junctions).
    """

    center_x: float
    center_y: float
    touch_x: float  # tangency with the ellipse
    touch_y: float


def solve_fillet(params: UnitCellParams) -> FilletArc | None:
    """Locate the fillet circle for ``params``.

    The circle must be tangent to the straight tether edge ``y = t/2`` (so its
    centre sits at height ``t/2 + r``) and externally tangent to the block
    ellipse.  Returns ``None`` when ``r == 0``; raises
    :class:`InvalidParameterError` when no such circle fits inside the cell.
    """
    if params.r == 0:
        return None
    ax, ay = params.w / 2.0, params.h / 2.0
    half_t, r = params.t / 2.0, params.r
    if ay <= half_t:
        raise InvalidParameterError(
            "fillet requires the block to be wider than the tether (t < h)"
        )

    def height_error(theta: float) -> float:
        # Signed height of the tangent circle centre above t/2 + r when the
        # tangency point sits at ellipse parameter theta.
        nx = ay * math.cos(theta)
        ny = ax * math.sin(theta)
        norm = math.hypot(nx, ny)
        return ay * math.sin(theta) + r * ny / norm - (half_t + r)

    lo, hi = 1e-9, math.pi / 2.0
    if height_error(hi) <= 0:
        raise InvalidParameterError(
            f"fillet radius r={params.r} cannot reach the block ellipse"
        )
    theta = brentq(height_error, lo, hi, xtol=1e-14)
    touch_x = ax * math.cos(theta)
    touch_y = ay * math.sin(theta)
    nx = ay * math.cos(theta)
    ny = ax * math.sin(theta)
    norm = math.hypot(nx, ny)
    center_x = touch_x + r * nx / norm
    center_y = half_t + r
    if center_x > params.a / 2.0:
        raise InvalidParameterError(
            f"fillet radius r={params.r} does not fit within the period a={params.a}"
        )
    if touch_x <= 0:
        raise InvalidParameterError(
            f"fillet radius r={params.r} wraps past the top of the block"
        )
    return FilletArc(center_x, center_y, touch_x, touch_y)


def half_width_profile(params: UnitCellParams, x_nm: np.ndarray) -> np.ndarray:
    """Half-width ``Y(x)`` of the solid cross section, in nanometres.

    ``x_nm`` is measured along the beam axis from the cell start (a periodic
    face); the block is centred at ``a/2``.  The profile is the pointwise
    maximum of the tether strip, the block ellipse and the fillet arc, which
    is exactly the outline of their union because all three regions are
    centered intervals in ``y``.
    """
    x = np.asarray(x_nm, dtype=float)
    u = np.abs(x - params.a / 2.0)
    y = np.full_like(u, params.t / 2.0)

    ax, ay = params.w / 2.0, params.h / 2.0
    inside = u < ax
    y[inside] = np.maximum(y[inside], ay * np.sqrt(1.0 - (u[inside] / ax) ** 2))

    arc = solve_fillet(params)
    if arc is not None:
        span = (u >= arc.touch_x) & (u <= arc.center_x)
        dx = u[span] - arc.center_x
        y[span] = np.maximum(
            y[span], arc.center_y - np.sqrt(params.r**2 - dx**2)
        )
    return y


@dataclass
class Mesh:
    """Structured 8-node hexahedral mesh with one periodic direction (x).

    Attributes
    ----------
    nodes : ndarray, shape (N, 3)
        Node coordinates in metres.
    elements : ndarray, shape (E, 8)
        Connectivity; node ordering follows :data:`HEX_REF_NODES`.
    master_nodes, slave_nodes : ndarray
        Matching node indices on the ``x = 0`` and ``x = period`` faces,
        aligned entry by entry.
    period_m : float
        Axial period in metres.
    grid_shape : tuple
        Element counts ``(nx, ny, nz)`` of the structured grid.
    """

    nodes: np.ndarray
    elements: np.ndarray
    master_nodes: np.ndarray
    slave_nodes: np.ndarray
    period_m: float
    grid_shape: tuple

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_dofs(self) -> int:
        return 3 * self.nodes.shape[0]

    def element_corner_coords(self) -> np.ndarray:
        """Per-element corner coordinates, shape (E, 8, 3)."""
        return self.nodes[self.elements]


def _element_jacobians(corner_coords: np.ndarray) -> np.ndarray:
    """det(J) at the 2x2x2 Gauss points for every element, shape (E, 8)."""
    dets = np.empty((corner_coords.shape[0], len(GAUSS_POINTS_2)))
    for g, grad in enumerate(GAUSS_GRADIENTS_2):
        jac = np.einsum("ia,eib->eab", grad, corner_coords)
        dets[:, g] = np.linalg.det(jac)
    return dets


def _build_channel_mesh(
    profile_nm: Callable[[np.ndarray], np.ndarray],
    period_nm: float,
    depth_nm: float,
    resolution: Sequence[int],
) -> Mesh:
    """Mesh the solid ``|y| <= Y(x), 0 <= z <= d`` on a structured grid."""
    nx, ny, nz = (int(n) for n in resolution)
    if min(nx, ny, nz) < 1:
        raise InvalidParameterError(f"resolution must be positive, got {resolution}")
    x = np.linspace(0.0, period_nm, nx + 1)
    half_width = profile_nm(x)
    if np.any(half_width <= 0):
        raise MeshingError("cross-section half-width must be positive everywhere")
    eta = np.linspace(-1.0, 1.0, ny + 1)
    z = np.linspace(0.0, depth_nm, nz + 1)

    # Node layout: x-major, then y, then z.
    nodes = np.empty(((nx + 1) * (ny + 1) * (nz + 1), 3))
    node_id = np.arange(len(nodes)).reshape(nx + 1, ny + 1, nz + 1)
    xx = np.repeat(x, (ny + 1) * (nz + 1))
    yy = np.tile(np.repeat(eta, nz + 1), nx + 1) * np.repeat(
        half_width, (ny + 1) * (nz + 1)
    )
    zz = np.tile(z, (nx + 1) * (ny + 1))
    nodes[:, 0], nodes[:, 1], nodes[:, 2] = xx * NM, yy * NM, zz * NM

    i, j, k = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    elements = np.stack(
        [
            node_id[i, j, k],
            node_id[i + 1, j, k],
            node_id[i + 1, j + 1, k],
            node_id[i, j + 1, k],
            node_id[i, j, k + 1],
            node_id[i + 1, j, k + 1],
            node_id[i + 1, j + 1, k + 1],
            node_id[i, j + 1, k + 1],
        ],
        axis=1,
    ).astype(np.int64)

    mesh = Mesh(
        nodes=nodes,
        elements=elements,
        master_nodes=node_id[0].ravel().copy(),
        slave_nodes=node_id[nx].ravel().copy(),
        period_m=period_nm * NM,
        grid_shape=(nx, ny, nz),
    )
    _validate_mesh(mesh)
    return mesh


def _validate_mesh(mesh: Mesh) -> None:
    dets = _element_jacobians(mesh.element_corner_coords())
    if np.any(dets <= 0):
        raise MeshingError(
            f"{int(np.sum(np.any(dets <= 0, axis=1)))} degenerate elements "
            "(non-positive Jacobian)"
        )
    master = mesh.nodes[mesh.master_nodes]
    slave = mesh.nodes[mesh.slave_nodes]
    tol = 1e-9 * mesh.period_m
    if np.abs(master[:, 0]).max() > tol:
        raise MeshingError("master face is not at x = 0")
    if np.abs(slave[:, 0] - mesh.period_m).max() > tol:
        raise MeshingError("slave face is not at x = period")
    if np.abs(master[:, 1:] - slave[:, 1:]).max() > tol:
        raise MeshingError("periodic faces have mismatched node positions")


def build_unit_cell_mesh(params: UnitCellParams, resolution: Sequence[int]) -> Mesh:
    """Mesh one phononic-crystal unit cell.

    Parameters
    ----------
    params : UnitCellParams
        Validated cell geometry (nanometres).
    resolution : (nx, ny, nz)
        Element counts along the beam axis, across the width and through the
        thickness; at least 4 per axis.

    Returns
    -------
    Mesh
        Hexahedral mesh in metres with matched periodic faces.
    """
    params.validate()
    nx, ny, nz = (int(n) for n in resolution)
    if min(nx, ny, nz) < 4:
        raise InvalidParameterError(
            f"unit-cell resolution must be at least 4 per axis, got {resolution}"
        )
    return _build_channel_mesh(
        lambda x: half_width_profile(params, x), params.a, params.d, (nx, ny, nz)
    )


def build_nanobeam_mesh(
    width_nm: float,
    thickness_nm: float,
    period_nm: float,
    resolution: Sequence[int],
) -> Mesh:
    """Mesh a straight rectangular beam segment of the given period.

    The beam is uniform, so the period is only a bookkeeping length for the
    Bloch phase; it must still be positive.
    """
    for name, value in (
        ("width", width_nm),
        ("thickness", thickness_nm),
        ("period", period_nm),
    ):
        if not math.isfinite(value) or value <= 0:
            raise InvalidParameterError(f"nanobeam {name} must be positive, got {value}")
    half = width_nm / 2.0
    return _build_channel_mesh(
        lambda x: np.full_like(np.asarray(x, dtype=float), half),
        period_nm,
        thickness_nm,
        resolution,
    )
