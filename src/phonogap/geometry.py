"""Parametric unit-cell geometry and structured hexahedral meshing.

The periodic unit cell of the phononic crystal is an elliptical block
suspended by a narrow tether running along the beam axis, with a circular
fillet smoothing the block/tether junction.  Because the cross section at
every axial position is a single centered interval ``|y| <= Y(x)``, the solid
can be meshed as a graded channel: a uniform grid along the beam axis whose
transverse node lines are scaled to the local half-width and extruded through
the thickness.  The meshers only lay out node coordinates; the element, its
quadrature and the one Jacobian check live in :func:`phonogap.elastics.assemble`.

A built mesh is valid by construction, so nothing here checks it.  Each
element maps x and z uniformly and y = eta * Y(x), so det J = (hx/2)(hz/2)
dy/deta, which interpolates Y at the element's two x planes: positive, since
Y >= t/2 > 0 for a validated cell and Y = width/2 > 0 for a nanobeam.  The
periodic faces sit at x = 0 and x = a exactly (the ends of ``linspace``) and
|x - a/2| is the same at both, so their node sets match bit for bit.

All user-facing lengths are in nanometres; node coordinates of generated
meshes are converted to metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError

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


def _bisect(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """A root of ``f`` in ``[lo, hi]``, where ``f`` changes sign, to within
    ``xtol``: the midpoint of the last bracket no wider than ``2 xtol``."""
    f_lo = f(lo)
    while hi - lo > 2.0 * xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid <= 0.0) == (f_lo <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    theta = _bisect(height_error, lo, hi, xtol=1e-14)
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


@dataclass(frozen=True)
class Mesh:
    """Structured 8-node hexahedral mesh with one periodic direction (x).

    A mesh is its node lattice: node ``(i * (ny + 1) + j) * (nz + 1) + k``
    is the node at grid index ``(i, j, k)`` of ``grid_shape``
    ``(nx, ny, nz)``, x-major, then y, then z, each index counting up its
    axis.  Everything else is read from that numbering: the elements, the
    periodic faces (lattice planes ``i = 0`` and ``i = nx``) and the mirrors
    across the mid-planes (the lattice read backwards along an axis).

    Attributes
    ----------
    nodes : ndarray, shape ((nx + 1) (ny + 1) (nz + 1), 3)
        Node coordinates in metres, in lattice order.
    period_m : float
        Axial period in metres.
    grid_shape : tuple
        Element counts ``(nx, ny, nz)`` of the structured grid.
    """

    nodes: np.ndarray
    period_m: float
    grid_shape: tuple

    def __post_init__(self):
        expected = (math.prod(n + 1 for n in self.grid_shape), 3)
        if np.shape(self.nodes) != expected:
            raise InvalidParameterError(
                f"a {self.grid_shape} mesh needs nodes of shape {expected}, "
                f"got {np.shape(self.nodes)}"
            )

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_dofs(self) -> int:
        return 3 * self.nodes.shape[0]

    def _lattice(self) -> np.ndarray:
        """Node numbers laid out on the grid, shape ``grid_shape + 1``."""
        return np.arange(self.n_nodes).reshape([n + 1 for n in self.grid_shape])

    @property
    def elements(self) -> np.ndarray:
        """Connectivity, shape (E, 8): element ``(i * ny + j) * nz + k``
        spans grid cell ``(i, j, k)``, its corners in the order of
        :data:`HEX_REF_NODES`."""
        lattice = self._lattice()
        nx, ny, nz = self.grid_shape
        return np.stack(
            [lattice[a : a + nx, b : b + ny, c : c + nz].ravel()
             for a, b, c in ((HEX_REF_NODES + 1) // 2).astype(int)],
            axis=1,
        )

    @property
    def master_nodes(self) -> np.ndarray:
        """Nodes of the ``x = 0`` face, in lattice order."""
        return self._lattice()[0].ravel()

    @property
    def slave_nodes(self) -> np.ndarray:
        """Nodes of the ``x = period`` face, aligned with ``master_nodes``."""
        return self._lattice()[-1].ravel()

    def element_corner_coords(self) -> np.ndarray:
        """Per-element corner coordinates, shape (E, 8, 3)."""
        return self.nodes[self.elements]

    def mirror_nodes(self, axis: int) -> np.ndarray | None:
        """Node permutation of the mirror across the mid-plane of ``axis``:
        ``perm[node]`` is the node at the mirror image of ``node``, read
        from the node lattice backwards along the axis.

        None if some node lies further than 1e-6 of the cell's largest
        extent from the mirror image of its partner: the mesh is crooked,
        or its nodes are not in lattice order.
        """
        perm = np.flip(self._lattice(), axis).ravel()
        coords = self.nodes
        along = coords[:, axis]
        flipped = coords.copy()
        flipped[:, axis] = along.min() + along.max() - along
        scale = max(self.period_m, np.ptp(coords[:, 1]), np.ptp(coords[:, 2]))
        if np.linalg.norm(coords[perm] - flipped, axis=1).max() > 1e-6 * scale:
            return None
        return perm


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
    eta = np.linspace(-1.0, 1.0, ny + 1)
    z = np.linspace(0.0, depth_nm, nz + 1)

    # C order of the "ij" grid is the lattice order of ``Mesh``.
    xx, ee, zz = np.meshgrid(x, eta, z, indexing="ij")
    yy = ee * half_width[:, None, None]
    return Mesh(
        nodes=np.stack([xx, yy, zz], axis=-1).reshape(-1, 3) * NM,
        period_m=period_nm * NM,
        grid_shape=(nx, ny, nz),
    )


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
