"""Command-line front end for the band-structure and relaxation pipeline.

Each band subcommand (bands, dos, gap, sweep, fig1b) reads the subset of
``RunConfig`` fields that ``BAND_COMMANDS`` names for it (``phonogap <cmd>
--help`` lists them) and takes them from one JSON config plus one flag per
field (flags win); a config-file key the command does not read is an error.
The other subcommands take only their own flags, and the fits record the
SHA-256 of each file they read in place of its path.  That request lands as
``config.json`` in ``<out_dir>/<subcommand>-<run_id>/``, the run ID being a
short hash of the request without ``out_dir``: identical inputs reuse
identical paths and never collide with other runs.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
failure (no gap coverage, non-convergent fit, ...).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    WINDOW_NS,
    LevelSystem,
    PulseSequence,
    simulate_sequence,
    thermalization_curve,
)
from .elastics import BandStructure, band_diagram, default_k_path
from .errors import ConfigError, InvalidParameterError, PhonogapError
from .fitkit import fit_circle, fit_ellipse, fit_recovery, fit_tether_width
from .geometry import (
    Material,
    UnitCellParams,
    build_nanobeam_mesh,
    build_unit_cell_mesh,
)
from .rates import OrbitalSystem, RateModel, total_relaxation
from .spectrum import (
    SWEEPABLE_PARAMS,
    compute_dos,
    find_complete_gaps,
    parameter_sweep,
    primary_gap,
)
from .tempfit import RateSeries, select_model

OUT_DIR_ENV = "PHONOGAP_OUT_DIR"
STRUCTURES = ("pnc", "nanobeam")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved pipeline configuration; every quantity carries its
    unit in the field name.  The cell and material default to
    ``UnitCellParams`` and ``Material``."""

    structure: str = "pnc"
    w_nm: float = UnitCellParams.w
    h_nm: float = UnitCellParams.h
    a_nm: float = UnitCellParams.a
    t_nm: float = UnitCellParams.t
    r_nm: float = UnitCellParams.r
    d_nm: float = UnitCellParams.d
    beam_width_nm: float = 90.0
    beam_thickness_nm: float = 70.0
    c11_gpa: float = Material.c11_gpa
    c12_gpa: float = Material.c12_gpa
    c44_gpa: float = Material.c44_gpa
    rho_kgm3: float = Material.rho_kgm3
    resolution: tuple[int, int, int] = (10, 8, 4)
    n_kpoints: int = 48
    n_modes: int = 26
    broadening_ghz: float = 0.5
    f_max_ghz: float = 100.0
    window_lo_ghz: float = 30.0
    window_hi_ghz: float = 100.0
    reference_center_ghz: float = 59.1
    reference_width_ghz: float = 17.3
    center_tolerance_pct: float = 15.0
    width_tolerance_pct: float = 30.0
    sweep_param: str = "t"
    sweep_values_nm: tuple[float, ...] = (19.1, 22.1, 25.1)
    out_dir: str = ""

    def cell_params(self) -> UnitCellParams:
        return UnitCellParams(
            w=self.w_nm, h=self.h_nm, a=self.a_nm,
            t=self.t_nm, r=self.r_nm, d=self.d_nm,
        )

    def material(self) -> Material:
        return Material(
            c11_gpa=self.c11_gpa, c12_gpa=self.c12_gpa,
            c44_gpa=self.c44_gpa, rho_kgm3=self.rho_kgm3,
        )

    def validate(self) -> None:
        """Check every module's preconditions before any compute starts."""
        if self.structure not in STRUCTURES:
            raise ConfigError(
                f"structure must be one of {STRUCTURES}, got {self.structure!r}"
            )
        self.cell_params().validate()
        self.material().validate()
        if self.structure == "nanobeam":
            if self.beam_width_nm <= 0 or self.beam_thickness_nm <= 0:
                raise ConfigError("nanobeam cross-section must be positive")
        if len(self.resolution) != 3 or any(
            int(n) != n or n < 1 for n in self.resolution
        ):
            raise ConfigError(
                f"resolution must be three positive integers, got {self.resolution}"
            )
        if self.n_kpoints < 1:
            raise ConfigError("n_kpoints must be >= 1")
        if self.n_modes < 1:
            raise ConfigError("n_modes must be >= 1")
        if self.broadening_ghz <= 0:
            raise ConfigError("broadening_ghz must be positive")
        if not 0 < self.f_max_ghz:
            raise ConfigError("f_max_ghz must be positive")
        if not self.window_lo_ghz < self.window_hi_ghz:
            raise ConfigError("gap window must have window_lo_ghz < window_hi_ghz")
        if not (self.reference_center_ghz > 0 and self.reference_width_ghz > 0):
            raise ConfigError(
                "reference_center_ghz and reference_width_ghz must be positive"
            )
        if not (self.center_tolerance_pct >= 0 and self.width_tolerance_pct >= 0):
            raise ConfigError(
                "center_tolerance_pct and width_tolerance_pct must be >= 0"
            )
        if self.sweep_param not in SWEEPABLE_PARAMS:
            raise ConfigError(
                f"sweep_param must be one of {SWEEPABLE_PARAMS}, got "
                f"{self.sweep_param!r}"
            )
        if len(self.sweep_values_nm) < 1:
            raise ConfigError("sweep_values_nm must not be empty")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["resolution"] = list(self.resolution)
        out["sweep_values_nm"] = list(self.sweep_values_nm)
        return out

    @classmethod
    def from_dict(cls, data: dict, fields: tuple[str, ...] | None = None
                  ) -> "RunConfig":
        known = fields or [f.name for f in dataclasses.fields(cls)]
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{name: _field_value(name, value)
                      for name, value in data.items()})


def _field_value(name: str, value):
    """``value`` as the ``RunConfig`` field ``name`` holds it; a value of
    the wrong type raises ``ConfigError`` before anything is built."""
    def number(v) -> bool:  # bool is not a number here
        return type(v) in (int, float) and math.isfinite(v)

    kind = type(getattr(RunConfig, name))
    listed = isinstance(value, (list, tuple))
    if name == "resolution":
        want = "three integers"
        ok = listed and len(value) == 3 and all(type(n) is int for n in value)
    elif kind is tuple:
        want, ok = "a list of numbers", listed and all(map(number, value))
    else:
        want, ok = {str: ("a string", isinstance(value, str)),
                    int: ("an integer", type(value) is int),
                    float: ("a finite number", number(value))}[kind]
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    if kind is float:  # 90 and 90.0 are one input, with one run ID
        return float(value)
    if name == "sweep_values_nm":
        return tuple(float(v) for v in value)
    return tuple(value) if kind is tuple else value


#: ``RunConfig`` fields by what reads them.  Every band command reads the
#: cell, the material, the mesh and k sampling, and the output root.
_SHARED = (
    "w_nm", "h_nm", "a_nm", "t_nm", "r_nm", "d_nm",
    "c11_gpa", "c12_gpa", "c44_gpa", "rho_kgm3",
    "resolution", "n_kpoints", "n_modes", "out_dir",
)
#: The commands that solve one diagram can take the nanobeam instead.
_ONE_DIAGRAM = ("structure", "beam_width_nm", "beam_thickness_nm", *_SHARED)
_WINDOW = ("f_max_ghz", "window_lo_ghz", "window_hi_ghz")
_REFERENCE = ("reference_center_ghz", "reference_width_ghz",
              "center_tolerance_pct", "width_tolerance_pct")


def load_config(path: str | None, overrides: dict,
                fields: tuple[str, ...] | None = None) -> RunConfig:
    """Defaults, then the config file, then flag overrides (flags win).
    Every key must be among ``fields``, the ones the command reads."""
    data = {} if path is None else _read_json_object(path, "config file")
    data.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig.from_dict(data, fields)
    config.validate()
    return config


def _read_json_object(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def run_id(request: dict) -> str:
    """Short digest of everything that shapes the numbers.  Storage
    location does not affect results, so the same computation keeps the
    same ID wherever it lands."""
    payload = {key: value for key, value in request.items() if key != "out_dir"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:10]


def _out_root(out_dir: str) -> Path:
    return Path(out_dir or os.environ.get(OUT_DIR_ENV, "runs"))


# ---------------------------------------------------------------------------
# argument parsing


def _parse_int_triple(text: str) -> tuple[int, int, int]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated integers, got {text!r}"
        )
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _parse_grid(text: str) -> np.ndarray:
    """Either 'lo:hi:n' (inclusive linspace) or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"range spec must be lo:hi:n, got {text!r}"
            )
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise argparse.ArgumentTypeError("range spec needs n >= 1")
        return np.linspace(lo, hi, n)
    return np.array(_parse_float_list(text))


#: Flag settings that the type of a ``RunConfig`` default cannot give.
_FLAG_SPECS: dict[str, dict] = {
    "structure": {"choices": STRUCTURES},
    "sweep_param": {"choices": SWEEPABLE_PARAMS},
    "resolution": {"type": _parse_int_triple, "metavar": "NX,NY,NZ"},
    "sweep_values_nm": {"type": _parse_float_list, "metavar": "V1,V2,..."},
}


def _add_config_flags(parser: argparse.ArgumentParser,
                      fields: tuple[str, ...]) -> None:
    group = parser.add_argument_group("configuration overrides")
    group.add_argument("--config", metavar="FILE", help="JSON config file")
    for name in fields:
        spec = {"type": type(getattr(RunConfig, name)), **_FLAG_SPECS.get(name, {})}
        group.add_argument(
            f"--{name.replace('_', '-')}", dest=name, default=None, **spec
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonogap",
        description="Phononic-crystal bands, rates, and fitting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, band in BAND_COMMANDS.items():
        _add_config_flags(sub.add_parser(name, help=band.help), band.fields)

    def command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out-dir", default="", help="artifact root "
                       f"(default ${OUT_DIR_ENV}, else ./runs)")
        return p

    p = command("rates", "phonon-induced orbital relaxation rates")
    p.add_argument("--delta-ghz", type=float, required=True,
                   help="orbital splitting in GHz")
    temps = p.add_mutually_exclusive_group(required=True)
    temps.add_argument("--temp-k", type=float, help="single temperature")
    temps.add_argument("--temp-range", type=_parse_grid, metavar="LO:HI:N",
                       help="temperature grid (or comma list)")
    p.add_argument("--chi-rho", type=float, default=0.0,
                   help="one-phonon coupling-density product")
    p.add_argument("--chi-rho-sq", type=float, default=0.0,
                   help="two-phonon coupling-density product")
    p.add_argument("--convention", choices=("plain_frequency", "angular"),
                   default="plain_frequency")

    p = command("pumpprobe", "simulated two-pulse recovery curve")
    p.add_argument("--t1-ns", type=float, help="orbital lifetime; implies "
                   "equal up/down rates")
    p.add_argument("--gamma-up-mhz", type=float)
    p.add_argument("--gamma-down-mhz", type=float)
    p.add_argument("--omega-mhz", type=float, default=LevelSystem.omega_mhz)
    p.add_argument("--beta", type=float, default=LevelSystem.beta)
    p.add_argument("--taus", type=_parse_grid, metavar="LO:HI:N",
                   help="pump-probe delays in ns (default 0:5*T1:13)")
    p.add_argument("--pulse-width-ns", type=float,
                   default=PulseSequence.width_ns)
    p.add_argument("--window-ns", type=float, default=WINDOW_NS)
    p.add_argument("--noise", type=float, default=0.0,
                   help="Gaussian sigma added to each ratio")
    p.add_argument("--dump-trace-ns", type=float, metavar="TAU",
                   help="also write the full trace at this delay")
    p.add_argument("--seed", type=int, default=0, help="noise seed")

    p = command("fit-t1", "fit a recovery curve CSV (tau_ns, ratio[, sigma])")
    p.add_argument("--input", required=True, metavar="FILE")

    p = command("fit-temp", "power-law fits of rate vs temperature CSV")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="CSV with temperature_K, rate_MHz, sigma_MHz")
    p.add_argument("--models", type=str, default="1,3,5,7",
                   help="candidate exponents, comma separated")
    p.add_argument("--t-max", type=float,
                   help="fit only points at or below this temperature")

    p = command("fit-geom", "fabricated-geometry statistics from contours")
    p.add_argument("--manifest", required=True, metavar="FILE",
                   help="JSON manifest: contours: [{path, role}, ...]")

    return parser


# ---------------------------------------------------------------------------
# artifact helpers


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_artifacts(command: str, request: dict, files: dict[str, str]) -> int:
    """Make ``<out_dir>/<command>-<run_id>/``, record the request in it as
    ``config.json``, write ``files`` (name -> contents) beside it, and
    return exit code 0.  Commands compute every file first, so a failed run
    leaves no directory."""
    directory = _out_root(request["out_dir"]) / f"{command}-{run_id(request)}"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(_json_text(request), encoding="utf-8")
    for name, text in files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8", newline="")
        print(f"wrote {path}")
    return 0


def _sha256(path: str | Path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err


def _request(args: argparse.Namespace, *input_paths: str | Path) -> dict:
    """A non-band command's flags, grids as lists, and in place of the input
    path the SHA-256 of each file read: moving a file keeps the run ID."""
    request = {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in vars(args).items()
        if key not in ("command", "input", "manifest")
    }
    if input_paths:
        request["input_sha256"] = [_sha256(path) for path in input_paths]
    return request


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


GAP_HEADER = ["param_value_nm", "center_GHz", "width_GHz"]


def gap_row(value_nm: float, center_ghz: float, width_ghz: float) -> list[str]:
    """One sweep-CSV row; the standalone gap report reuses this so both
    outputs agree byte for byte."""
    return [_fmt(value_nm), _fmt(center_ghz), _fmt(width_ghz)]


# ---------------------------------------------------------------------------
# band subcommands

#: An artifact writer: file name -> contents, computed from the resolved
#: config and the solved diagram before any directory exists.
Writer = Callable[[RunConfig, BandStructure], dict[str, str]]


def _bands_csv(config: RunConfig, bands: BandStructure) -> dict[str, str]:
    return {"bands.csv": _csv_text(
        ["k_reduced", "band_index", "frequency_GHz", "parity_y", "parity_z"],
        (
            [_fmt(k), str(j), _fmt(bands.frequencies_ghz[i, j]),
             bands.parity_y[i, j], bands.parity_z[i, j]]
            for i, k in enumerate(bands.k_points)
            for j in range(bands.n_bands)
        ),
    )}


def _dos_csv(config: RunConfig, bands: BandStructure) -> dict[str, str]:
    dos = compute_dos(bands, config.broadening_ghz)
    return {"dos.csv": _csv_text(
        ["frequency_GHz", "dos_per_GHz"],
        ([_fmt(f), _fmt(d)] for f, d in zip(dos.frequency_ghz, dos.dos_per_ghz)),
    )}


def _gap_files(config: RunConfig, bands: BandStructure) -> dict[str, str]:
    """``gap.csv`` and ``gap.json``; prints the comparison summary."""
    gaps = find_complete_gaps(bands, config.f_max_ghz)
    window = (config.window_lo_ghz, config.window_hi_ghz)
    in_window = [g for g in gaps if window[0] <= g.center_ghz <= window[1]]
    gap = primary_gap(gaps, window)
    report: dict = {
        "run_id": run_id(_band_request("gap", config)),
        "n_gaps_in_window": len(in_window),
        "n_dofs_reduced": bands.n_dofs_reduced,
        "reference_center_ghz": config.reference_center_ghz,
        "reference_width_ghz": config.reference_width_ghz,
        "gap": None,
    }
    if gap is not None:
        center_dev = 100.0 * abs(
            gap.center_ghz - config.reference_center_ghz
        ) / config.reference_center_ghz
        width_dev = 100.0 * abs(
            gap.width_ghz - config.reference_width_ghz
        ) / config.reference_width_ghz
        report["gap"] = {
            "f_lo_ghz": float(gap.f_lo_ghz),
            "f_hi_ghz": float(gap.f_hi_ghz),
            "center_ghz": float(gap.center_ghz),
            "width_ghz": float(gap.width_ghz),
        }
        report["comparison"] = {
            "center_deviation_pct": float(center_dev),
            "width_deviation_pct": float(width_dev),
            "center_within_tolerance": bool(center_dev <= config.center_tolerance_pct),
            "width_within_tolerance": bool(width_dev <= config.width_tolerance_pct),
        }
    gap = report["gap"]
    value_nm = getattr(config.cell_params(), config.sweep_param)
    if gap is None:
        row = gap_row(value_nm, math.nan, 0.0)
        print("no complete gap inside the window")
    else:
        row = gap_row(value_nm, gap["center_ghz"], gap["width_ghz"])
        comp = report["comparison"]
        print(
            f"gap {gap['f_lo_ghz']:.2f}-{gap['f_hi_ghz']:.2f} GHz "
            f"(center {gap['center_ghz']:.2f}, width {gap['width_ghz']:.2f})"
        )
        print(
            f"center off reference by {comp['center_deviation_pct']:.1f}% "
            f"({'within' if comp['center_within_tolerance'] else 'OUTSIDE'} "
            f"{config.center_tolerance_pct:g}%), width off by "
            f"{comp['width_deviation_pct']:.1f}% "
            f"({'within' if comp['width_within_tolerance'] else 'OUTSIDE'} "
            f"{config.width_tolerance_pct:g}%)"
        )
    return {"gap.csv": _csv_text(GAP_HEADER, [row]),
            "gap.json": _json_text(report)}


_GNUPLOT_TEMPLATE = """\
# Two-panel dispersion + density-of-states figure.
set datafile separator ","
set terminal pngcairo size 900,600
set output "fig1b.png"
set multiplot layout 1,2
set yrange [0:{f_max}]
{shading}set xlabel "k (pi/a)"
set ylabel "frequency (GHz)"
set key off
plot "bands.csv" skip 1 using 1:(strcol(4) eq "even" ? $3 : NaN) \\
         with points pt 7 ps 0.4 lc rgb "#1f77b4", \\
     "bands.csv" skip 1 using 1:(strcol(4) eq "odd" ? $3 : NaN) \\
         with points pt 6 ps 0.4 lc rgb "#d62728"
set xlabel "DOS (states/GHz)"
unset ylabel
plot "dos.csv" skip 1 using 2:1 with lines lc rgb "#2ca02c"
unset multiplot
"""


def _fig1b_gp(config: RunConfig, bands: BandStructure) -> dict[str, str]:
    """The two-panel plot script over ``bands.csv`` and ``dos.csv``, with the
    primary gap shaded."""
    gap = primary_gap(
        find_complete_gaps(bands, config.f_max_ghz),
        (config.window_lo_ghz, config.window_hi_ghz),
    )
    if gap is None:
        shading = ""
    else:
        shading = (
            f"set object 1 rectangle from graph 0, first {_fmt(gap.f_lo_ghz)} "
            f"to graph 1, first {_fmt(gap.f_hi_ghz)} "
            "behind fillcolor rgb \"#d9d9d9\" fillstyle solid noborder\n"
        )
    return {"fig1b.gp": _GNUPLOT_TEMPLATE.format(
        f_max=_fmt(config.f_max_ghz), shading=shading
    )}


class BandCommand(NamedTuple):
    """A band command's help line, the ``RunConfig`` fields it reads (its
    flags and config-file keys, and what its ``config.json`` and run ID
    record), and the writers ``run_band_command`` runs on its diagram."""

    help: str
    fields: tuple[str, ...]
    writers: tuple[Writer, ...]


BAND_COMMANDS = {
    "bands": BandCommand("band structure along the reduced k path",
                         _ONE_DIAGRAM, (_bands_csv,)),
    "dos": BandCommand("Gaussian-broadened phonon density of states",
                       (*_ONE_DIAGRAM, "broadening_ghz"), (_dos_csv,)),
    # sweep_param names the cell value in the gap.csv row.
    "gap": BandCommand("complete-gap report with reference comparison",
                       (*_ONE_DIAGRAM, *_WINDOW, *_REFERENCE, "sweep_param"),
                       (_gap_files,)),
    # One periodic-cell diagram per value, solved by cmd_sweep.
    "sweep": BandCommand("gap center/width vs one geometry parameter",
                         (*_SHARED, *_WINDOW, "sweep_param", "sweep_values_nm"),
                         ()),
    "fig1b": BandCommand("bands + DOS CSVs and a two-panel gnuplot script",
                         (*_ONE_DIAGRAM, "broadening_ghz", *_WINDOW),
                         (_bands_csv, _dos_csv, _fig1b_gp)),
}


def _band_config(args: argparse.Namespace) -> RunConfig:
    fields = BAND_COMMANDS[args.command].fields
    overrides = {name: getattr(args, name) for name in fields}
    return load_config(args.config, overrides, fields)


def _band_request(command: str, config: RunConfig) -> dict:
    """The fields ``command`` reads, as its ``config.json`` records them."""
    resolved = config.to_dict()
    return {name: resolved[name] for name in BAND_COMMANDS[command].fields}


def run_band_command(args: argparse.Namespace) -> int:
    """Validate the config, solve its band diagram once, compute every
    artifact, and only then make the run's directory: a run that exits 2 or
    3 leaves none."""
    config = _band_config(args)
    if config.structure == "nanobeam":
        mesh = build_nanobeam_mesh(
            config.beam_width_nm,
            config.beam_thickness_nm,
            config.a_nm,
            config.resolution,
        )
    else:
        mesh = build_unit_cell_mesh(config.cell_params(), config.resolution)
    bands = band_diagram(
        mesh,
        config.material(),
        default_k_path(config.n_kpoints),
        config.n_modes,
    )
    files: dict[str, str] = {}
    for writer in BAND_COMMANDS[args.command].writers:
        files.update(writer(config, bands))
    return _write_artifacts(args.command, _band_request(args.command, config),
                            files)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _band_config(args)
    points = parameter_sweep(
        config.cell_params(),
        config.sweep_param,
        config.sweep_values_nm,
        material=config.material(),
        resolution=config.resolution,
        k_points=default_k_path(config.n_kpoints),
        n_modes=config.n_modes,
        f_max_ghz=config.f_max_ghz,
        window_ghz=(config.window_lo_ghz, config.window_hi_ghz),
    )
    rows = (gap_row(p.value_nm, p.center_ghz, p.width_ghz) for p in points)
    return _write_artifacts(args.command, _band_request(args.command, config),
                            {"sweep.csv": _csv_text(GAP_HEADER, rows)})


# ---------------------------------------------------------------------------
# other subcommands


def cmd_rates(args: argparse.Namespace) -> int:
    temps = (
        np.array([args.temp_k]) if args.temp_k is not None else args.temp_range
    )
    system = OrbitalSystem(delta_gs_ghz=args.delta_ghz)
    model = RateModel(
        chi_rho=args.chi_rho,
        chi_rho_sq=args.chi_rho_sq,
        rate_unit_convention=args.convention,
    )
    rows = []
    for t_k in temps:
        rates = total_relaxation(system, model, float(t_k))
        rows.append([
            _fmt(rates.temperature_k),
            _fmt(rates.gamma_up_mhz),
            _fmt(rates.gamma_down_mhz),
            _fmt(rates.gamma_raman_mhz),
            _fmt(rates.t1_ns),
        ])
    return _write_artifacts("rates", _request(args), {"rates.csv": _csv_text(
        ["temperature_K", "gamma_up_MHz", "gamma_down_MHz",
         "gamma_raman_MHz", "t1_ns"],
        rows,
    )})


def _pumpprobe_system(args: argparse.Namespace) -> LevelSystem:
    if args.t1_ns is not None:
        if args.gamma_up_mhz is not None or args.gamma_down_mhz is not None:
            raise ConfigError("give either --t1-ns or explicit rates, not both")
        if args.t1_ns <= 0:
            raise ConfigError("--t1-ns must be positive")
        rate = 500.0 / args.t1_ns  # split 1/T1 evenly between up and down
        up = down = rate
    else:
        if args.gamma_up_mhz is None or args.gamma_down_mhz is None:
            raise ConfigError(
                "give --t1-ns or both --gamma-up-mhz and --gamma-down-mhz"
            )
        up, down = args.gamma_up_mhz, args.gamma_down_mhz
    return LevelSystem(
        omega_mhz=args.omega_mhz,
        beta=args.beta,
        gamma_up_mhz=up,
        gamma_down_mhz=down,
    )


def cmd_pumpprobe(args: argparse.Namespace) -> int:
    system = _pumpprobe_system(args)
    taus = args.taus
    if taus is None:
        taus = np.linspace(0.0, 5.0 * system.t1_ns, 13)
    taus, ratios = thermalization_curve(
        system,
        taus,
        width_ns=args.pulse_width_ns,
        window_ns=args.window_ns,
        noise=args.noise,
        seed=args.seed,
    )
    files = {"pumpprobe.csv": _csv_text(
        ["tau_ns", "ratio"],
        ([_fmt(t), _fmt(r)] for t, r in zip(taus, ratios)),
    )}
    if args.dump_trace_ns is not None:
        sequence = PulseSequence(
            delay_ns=args.dump_trace_ns, width_ns=args.pulse_width_ns
        )
        trace = simulate_sequence(system, sequence)
        files["trace.csv"] = _csv_text(
            ["time_ns", "signal"],
            ([_fmt(t), _fmt(s)] for t, s in zip(trace.times_ns, trace.signal)),
        )
    return _write_artifacts("pumpprobe", _request(args), files)


def _read_csv_columns(path: str, required: tuple[str, ...],
                      optional: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            fields = reader.fieldnames or []
            missing = [c for c in required if c not in fields]
            if missing:
                raise ConfigError(
                    f"{path} is missing required columns: {missing}"
                )
            rows = list(reader)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    if not rows:
        raise ConfigError(f"{path} has no data rows")
    out = {}
    for col in required + tuple(c for c in optional if c in (fields or [])):
        try:
            out[col] = np.array([float(r[col]) for r in rows])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{path}: non-numeric value in {col}") from err
        if not np.all(np.isfinite(out[col])):
            raise ConfigError(f"{path}: non-finite value in {col}")
    return out


def cmd_fit_t1(args: argparse.Namespace) -> int:
    data = _read_csv_columns(args.input, ("tau_ns", "ratio"), ("sigma",))
    request = _request(args, args.input)
    fit = fit_recovery(data["tau_ns"], data["ratio"], data.get("sigma"))
    report = {
        "run_id": run_id(request),
        "n_points": int(data["tau_ns"].size),
        "t1_ns": fit["t1"],
        "t1_err_ns": fit.error_of("t1"),
        "wrss": fit.wrss,
        "dof": fit.dof,
        "n_iterations": fit.n_iterations,
    }
    print(f"T1 = {report['t1_ns']:.3f} +/- {report['t1_err_ns']:.3f} ns")
    return _write_artifacts("fit-t1", request, {"fit_t1.json": _json_text(report)})


def cmd_fit_temp(args: argparse.Namespace) -> int:
    cols = _read_csv_columns(
        args.input, ("temperature_K", "rate_MHz", "sigma_MHz")
    )
    request = _request(args, args.input)
    data = RateSeries(cols["temperature_K"], cols["rate_MHz"], cols["sigma_MHz"])
    if args.t_max is not None:
        data = data.restrict(args.t_max)
    try:
        exponents = tuple(int(p) for p in args.models.split(","))
    except ValueError as err:
        raise ConfigError(f"bad --models list {args.models!r}") from err
    ranked = select_model(data, exponents)
    report = {
        "run_id": run_id(request),
        "n_points": len(data),
        "t_max_k": args.t_max,
        "best_exponent": ranked[0].exponent,
        "models": [
            {
                "exponent": fit.exponent,
                "a_mhz": fit.a_mhz,
                "a_err_mhz": fit.a_err_mhz,
                "b_mhz_per_k_pow": fit.b_mhz,
                "b_err_mhz_per_k_pow": fit.b_err_mhz,
                "wrss": fit.wrss,
                "dof": fit.dof,
                "unphysical_offset": fit.unphysical,
            }
            for fit in ranked
        ],
    }
    grid = np.linspace(data.temperatures_k[0], data.temperatures_k[-1], 200)
    header = ["temperature_K"] + [f"rate_p{f.exponent}_MHz" for f in ranked]
    curves = np.column_stack([grid] + [f.predict(grid) for f in ranked])
    best = ranked[0]
    print(
        f"best exponent {best.exponent}: A = {best.a_mhz:.4g} +/- "
        f"{best.a_err_mhz:.2g} MHz, B = {best.b_mhz:.4g} +/- "
        f"{best.b_err_mhz:.2g} MHz/K^{best.exponent}"
    )
    return _write_artifacts("fit-temp", request, {
        "fit_temp.json": _json_text(report),
        "fit_temp_curves.csv": _csv_text(
            header, ([_fmt(v) for v in row] for row in curves)),
    })


_GEOM_ROLES = ("block", "corner", "tether-edge")


def _aligned_diameters(fit) -> tuple[float, float]:
    """Block diameters along the contour x and y axes.

    The ellipse fit reports its longer semi-axis first with the rotation
    folded into [-pi/2, pi/2), so a block taller than it is wide comes back
    rotated by ~pi/2 and the axes must be unswapped.
    """
    if abs(fit.rotation_rad) < math.pi / 4.0:
        return 2.0 * fit.semi_x, 2.0 * fit.semi_y
    return 2.0 * fit.semi_y, 2.0 * fit.semi_x


def cmd_fit_geom(args: argparse.Namespace) -> int:
    entries = _read_json_object(args.manifest, "manifest").get("contours")
    if not isinstance(entries, list) or not entries:
        raise ConfigError('manifest must hold {"contours": [{path, role}, ...]}')
    base = Path(args.manifest).parent
    paths, widths, heights, radii, tether_edges = [], [], [], [], []
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        role, rel = fields.get("role"), fields.get("path")
        if role not in _GEOM_ROLES or not isinstance(rel, str) or not rel:
            raise ConfigError(
                f"each contour needs a path and a role from {_GEOM_ROLES}, "
                f"got {entry!r}"
            )
        paths.append(base / rel)
        cols = _read_csv_columns(str(paths[-1]), ("x_nm", "y_nm"))
        points = np.column_stack([cols["x_nm"], cols["y_nm"]])
        if role == "block":
            width_nm, height_nm = _aligned_diameters(fit_ellipse(points))
            widths.append(width_nm)
            heights.append(height_nm)
        elif role == "corner":
            radii.append(fit_circle(points).radius)
        else:
            tether_edges.append(points)
    if len(tether_edges) % 2:
        raise ConfigError(
            "tether-edge contours must come in upper/lower pairs; got "
            f"{len(tether_edges)}"
        )
    tether_widths = []
    for first, second in zip(tether_edges[::2], tether_edges[1::2]):
        # Larger mean height is the upper edge, whichever order the
        # manifest listed them in.
        if np.mean(first[:, 1]) >= np.mean(second[:, 1]):
            upper, lower = first, second
        else:
            upper, lower = second, first
        tether_widths.append(fit_tether_width(upper, lower).width_nm)

    rows = []
    for name, values in (
        ("w", widths), ("h", heights), ("r", radii), ("t", tether_widths)
    ):
        if not values:
            continue
        arr = np.asarray(values)
        sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        rows.append([name, _fmt(float(arr.mean())), _fmt(sd)])
    if not rows:
        raise ConfigError("manifest produced no fitted parameters")
    return _write_artifacts(
        "fit-geom", _request(args, args.manifest, *paths),
        {"fit_geom.csv": _csv_text(["parameter", "average_nm", "sd_nm"], rows)},
    )


_COMMANDS = {
    "bands": run_band_command,
    "dos": run_band_command,
    "gap": run_band_command,
    "sweep": cmd_sweep,
    "fig1b": run_band_command,
    "rates": cmd_rates,
    "pumpprobe": cmd_pumpprobe,
    "fit-t1": cmd_fit_t1,
    "fit-temp": cmd_fit_temp,
    "fit-geom": cmd_fit_geom,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse errors already printed a message
        return int(exc.code or 0)
    except (ConfigError, InvalidParameterError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PhonogapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
