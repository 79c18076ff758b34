"""Band structures and their post-processing: complete gaps and the DOS.

``BandStructure`` holds the bands of a k path, whichever solver made them
(``elastics.band_diagram`` builds it), and ``default_k_path`` samples that
path; this module needs numpy alone, so a gap or a DOS loads no SciPy.

A *complete* gap is a frequency interval that no band touches at any
wavenumber.  Detection works on the per-band frequency extents: each band
sweeps out the interval [min over k, max over k], and the gaps are the holes
left between the merged intervals.  That is only trustworthy when the band
set actually covers the search window, so the top band must stay above the
requested ceiling everywhere -- otherwise states missing from the
computation could sit inside a reported "gap".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoverageError, InvalidParameterError, SamplingError


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


@dataclass(frozen=True)
class Gap:
    """A complete phononic gap, bounded below and above by band edges."""

    f_lo_ghz: float
    f_hi_ghz: float

    def __post_init__(self):
        if not (
            math.isfinite(self.f_lo_ghz)
            and math.isfinite(self.f_hi_ghz)
            and 0.0 <= self.f_lo_ghz < self.f_hi_ghz
        ):
            raise InvalidParameterError(
                f"gap edges must satisfy 0 <= f_lo < f_hi, got "
                f"({self.f_lo_ghz}, {self.f_hi_ghz})"
            )

    @property
    def center_ghz(self) -> float:
        return 0.5 * (self.f_lo_ghz + self.f_hi_ghz)

    @property
    def width_ghz(self) -> float:
        return self.f_hi_ghz - self.f_lo_ghz


def band_extents(bands: BandStructure) -> np.ndarray:
    """Per-band frequency span over the k path, shape (n_bands, 2)."""
    f = np.asarray(bands.frequencies_ghz, dtype=float)
    return np.stack([f.min(axis=0), f.max(axis=0)], axis=1)


def find_complete_gaps(bands: BandStructure, f_max_ghz: float) -> list[Gap]:
    """All complete gaps opening below ``f_max_ghz``, sorted by lower edge.

    Gaps are reported with their full extent even when the upper edge lies
    above ``f_max_ghz``; the threshold only decides which gaps qualify.

    Raises
    ------
    CoverageError
        If the computed bands do not cover frequencies up to ``f_max_ghz``
        at every wavenumber, since undetected higher bands could then
        invalidate any gap claim.
    """
    if not (math.isfinite(f_max_ghz) and f_max_ghz > 0):
        raise InvalidParameterError(f"f_max_ghz must be positive, got {f_max_ghz}")
    f = np.asarray(bands.frequencies_ghz, dtype=float)
    if f.ndim != 2 or f.size == 0:
        raise CoverageError("band structure holds no frequencies")
    top_floor = f[:, -1].min()
    if top_floor <= f_max_ghz:
        raise CoverageError(
            f"bands reach only {top_floor:.3f} GHz at some wavenumber; gap "
            f"detection up to {f_max_ghz:.3f} GHz needs more modes"
        )

    extents = band_extents(bands)
    order = np.argsort(extents[:, 0])
    gaps: list[Gap] = []
    covered_to = extents[order[0], 1]
    for idx in order[1:]:
        lo, hi = extents[idx]
        if lo > covered_to and covered_to < f_max_ghz:
            gaps.append(Gap(covered_to, lo))
        covered_to = max(covered_to, hi)
    return gaps


def primary_gap(gaps: Sequence[Gap], window_ghz: tuple[float, float]) -> Gap | None:
    """Widest gap whose centre falls inside ``window_ghz`` (None if none)."""
    lo, hi = window_ghz
    if not lo < hi:
        raise InvalidParameterError(f"empty gap window {window_ghz}")
    best: Gap | None = None
    for gap in gaps:
        if lo <= gap.center_ghz <= hi:
            if best is None or gap.width_ghz > best.width_ghz:
                best = gap
    return best


#: Grid rows of the DOS kernel held at once.  1601 = 12 x 128 + 65: the last
#: block has many rows, so every block takes the same matrix-vector product
#: and the curve matches the whole kernel's bit for bit (a one-row tail
#: would take another BLAS path and can differ by one ulp).
_DOS_BLOCK_ROWS = 128


@dataclass(frozen=True)
class DosCurve:
    """Phonon density of states per unit cell, states per GHz."""

    frequency_ghz: np.ndarray
    dos_per_ghz: np.ndarray


def _k_weights(k_points: np.ndarray) -> np.ndarray:
    k = np.asarray(k_points, dtype=float)
    if k.ndim != 1 or k.size < 2:
        raise SamplingError("density of states needs at least two k points")
    if np.any(np.diff(k) <= 0):
        raise InvalidParameterError("k points must be strictly increasing")
    w = np.empty_like(k)
    w[0] = 0.5 * (k[1] - k[0])
    w[-1] = 0.5 * (k[-1] - k[-2])
    w[1:-1] = 0.5 * (k[2:] - k[:-2])
    return w / w.sum()


def compute_dos(bands: BandStructure, broadening_ghz: float) -> DosCurve:
    """Gaussian-broadened density of states, normalized to one state per band.

    Each sampled frequency contributes a Gaussian of width ``broadening_ghz``
    weighted by its trapezoidal share of the k path, so every band integrates
    to one state.  The curve is sampled at 1601 points from 0 GHz to five
    widths above the highest band; tails below 0 GHz fall off it.  The k
    sampling must resolve the band slopes: if any band jumps by more than
    three broadening widths between adjacent k points the histogram would
    alias, which raises :class:`SamplingError`.

    The Gaussian kernel is evaluated ``_DOS_BLOCK_ROWS`` grid rows at a time,
    so memory scales with block rows x samples (samples = k points x bands),
    not with the 1601 grid rows x samples of the whole kernel.
    """
    if not (math.isfinite(broadening_ghz) and broadening_ghz > 0):
        raise InvalidParameterError(
            f"broadening must be positive, got {broadening_ghz}"
        )
    f = np.asarray(bands.frequencies_ghz, dtype=float)
    weights = _k_weights(bands.k_points)

    max_step = float(np.abs(np.diff(f, axis=0)).max()) if f.shape[0] > 1 else 0.0
    if max_step > 3.0 * broadening_ghz:
        raise SamplingError(
            f"band sampling too coarse for the kernel: adjacent k points jump "
            f"by up to {max_step:.2f} GHz, above 3 x broadening = "
            f"{3.0 * broadening_ghz:.2f} GHz; refine the k grid or broaden"
        )

    grid = np.linspace(0.0, f.max() + 5.0 * broadening_ghz, 1601)
    sigma = broadening_ghz
    samples = f.reshape(1, -1)
    per_sample = np.repeat(weights, f.shape[1])
    dos = np.empty_like(grid)
    for start in range(0, grid.size, _DOS_BLOCK_ROWS):
        rows = slice(start, start + _DOS_BLOCK_ROWS)
        diff = grid[rows, None] - samples
        kernel = np.exp(-0.5 * (diff / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        dos[rows] = kernel @ per_sample
    return DosCurve(grid, dos)
