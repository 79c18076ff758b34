"""Shared fixtures: one reference cell and its band structure per session."""

import numpy as np
import pytest

from phonogap import elastics
from phonogap.geometry import (
    DIAMOND,
    UnitCellParams,
    build_nanobeam_mesh,
    build_unit_cell_mesh,
)

#: Element counts giving a quick but physically meaningful reference mesh.
REFERENCE_RESOLUTION = (12, 10, 5)


@pytest.fixture(scope="session")
def reference_params() -> UnitCellParams:
    return UnitCellParams()


@pytest.fixture(scope="session")
def reference_mesh(reference_params):
    return build_unit_cell_mesh(reference_params, REFERENCE_RESOLUTION)


@pytest.fixture(scope="session")
def reference_operators(reference_mesh):
    return elastics.assemble(reference_mesh, DIAMOND)


@pytest.fixture(scope="session")
def reference_bands(reference_mesh):
    """Bands and parities of the default cell, dense enough for DOS work."""
    return elastics.band_diagram(
        reference_mesh,
        DIAMOND,
        np.linspace(0.0, 1.0, 17),
        n_modes=24,
    )


@pytest.fixture(scope="session")
def nanobeam_mesh():
    return build_nanobeam_mesh(90.0, 70.0, 129.6, (6, 6, 4))
