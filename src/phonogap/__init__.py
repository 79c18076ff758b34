"""Phononic-crystal band engineering and phonon-limited relaxation toolkit.

The band solver, ``elastics``, is the one module that imports SciPy when it
loads.  It and its ``band_diagram`` are imported on first access, so the
relaxation side, and gaps and DOS of a ``BandStructure`` (``spectrum``),
start on numpy alone.
"""

import importlib

__version__ = "0.1.0"

from .dynamics import (  # noqa: F401
    LevelSystem,
    PulseSequence,
    extract_peak_ratio,
    simulate_sequence,
    thermalization_curve,
)
from .fitkit import (  # noqa: F401
    fit_circle,
    fit_ellipse,
    fit_recovery,
    fit_tether_width,
)
from .geometry import DIAMOND, Material, Mesh, UnitCellParams  # noqa: F401
from .rates import (  # noqa: F401
    OrbitalSystem,
    crossover_temperature,
    raman_rate,
    single_phonon_rates,
    total_relaxation,
)
from .spectrum import (  # noqa: F401
    BandStructure,
    compute_dos,
    default_k_path,
    find_complete_gaps,
    primary_gap,
)
from .tempfit import (  # noqa: F401
    RateSeries,
    crossing_report,
    fit_power_model,
    select_model,
)


def __getattr__(name: str):
    if name in ("elastics", "band_diagram"):
        # Not ``from . import elastics``: that asks this hook again.
        elastics = importlib.import_module(f"{__name__}.elastics")
        return elastics if name == "elastics" else elastics.band_diagram
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
