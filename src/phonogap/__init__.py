"""Phononic-crystal band engineering and phonon-limited relaxation toolkit."""

__version__ = "0.1.0"

from .dynamics import (  # noqa: F401
    LevelSystem,
    PulseSequence,
    extract_peak_ratio,
    simulate_sequence,
    thermalization_curve,
)
from .elastics import BandStructure, band_diagram, default_k_path  # noqa: F401
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
from .spectrum import compute_dos, find_complete_gaps, primary_gap  # noqa: F401
from .tempfit import (  # noqa: F401
    RateSeries,
    crossing_report,
    fit_power_model,
    select_model,
)
