"""Command-line front end for the band-structure and relaxation pipeline.

The band subcommands (bands, dos, gap, sweep, fig1b) take one JSON config
plus one flag per ``RunConfig`` field (flags win); the others take only
their own flags, and the fits record the SHA-256 of each file they read in
place of its path.  That request lands as ``config.json`` in
``<out_dir>/<subcommand>-<run_id>/``, the run ID being a short hash of the
request without ``out_dir``: identical inputs reuse identical paths and
never collide with other runs.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
failure (no gap coverage, non-convergent fit, ...).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import LevelSystem, PulseSequence, simulate_sequence, thermalization_curve
from .elastics import band_diagram, default_k_path
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
    unit in the field name."""

    structure: str = "pnc"
    w_nm: float = 95.7
    h_nm: float = 89.9
    a_nm: float = 129.6
    t_nm: float = 22.1
    r_nm: float = 16.9
    d_nm: float = 70.3
    beam_width_nm: float = 90.0
    beam_thickness_nm: float = 70.0
    c11_gpa: float = 1079.0
    c12_gpa: float = 124.0
    c44_gpa: float = 578.0
    rho_kgm3: float = 3515.0
    resolution: tuple[int, int, int] = (10, 8, 4)
    n_kpoints: int = 20
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
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {**data}
        if "resolution" in merged:
            merged["resolution"] = tuple(int(n) for n in merged["resolution"])
        if "sweep_values_nm" in merged:
            merged["sweep_values_nm"] = tuple(
                float(v) for v in merged["sweep_values_nm"]
            )
        return cls(**merged)

    @property
    def run_id(self) -> str:
        return run_id(self.to_dict())

    def resolved_out_dir(self) -> Path:
        return _out_root(self.out_dir)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then the config file, then flag overrides (flags win)."""
    data = {} if path is None else _read_json_object(path, "config file")
    data.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig.from_dict(data)
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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration overrides")
    group.add_argument("--config", metavar="FILE", help="JSON config file")
    for field in dataclasses.fields(RunConfig):
        spec = {"type": type(field.default), **_FLAG_SPECS.get(field.name, {})}
        group.add_argument(
            f"--{field.name.replace('_', '-')}", dest=field.name, default=None,
            **spec,
        )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonogap",
        description="Phononic-crystal bands, rates, and fitting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, *, config: bool = True):
        p = sub.add_parser(name, help=help_text)
        if config:
            _add_config_flags(p)
        else:
            p.add_argument("--out-dir", default="", help="artifact root "
                           f"(default ${OUT_DIR_ENV}, else ./runs)")
        return p

    command("bands", "band structure along the reduced k path")
    command("dos", "Gaussian-broadened phonon density of states")
    command("gap", "complete-gap report with reference comparison")
    command("sweep", "gap center/width vs one geometry parameter")
    command("fig1b", "bands + DOS CSVs and a two-panel gnuplot script")

    p = command("rates", "phonon-induced orbital relaxation rates", config=False)
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

    p = command("pumpprobe", "simulated two-pulse recovery curve", config=False)
    p.add_argument("--t1-ns", type=float, help="orbital lifetime; implies "
                   "equal up/down rates")
    p.add_argument("--gamma-up-mhz", type=float)
    p.add_argument("--gamma-down-mhz", type=float)
    p.add_argument("--omega-mhz", type=float, default=200.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--taus", type=_parse_grid, metavar="LO:HI:N",
                   help="pump-probe delays in ns (default 0:5*T1:13)")
    p.add_argument("--pulse-width-ns", type=float, default=300.0)
    p.add_argument("--window-ns", type=float, default=10.0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="Gaussian sigma added to each ratio")
    p.add_argument("--dump-trace-ns", type=float, metavar="TAU",
                   help="also write the full trace at this delay")
    p.add_argument("--seed", type=int, default=0, help="noise seed")

    p = command("fit-t1", "fit a recovery curve CSV (tau_ns, ratio[, sigma])",
                config=False)
    p.add_argument("--input", required=True, metavar="FILE")

    p = command("fit-temp", "power-law fits of rate vs temperature CSV",
                config=False)
    p.add_argument("--input", required=True, metavar="FILE",
                   help="CSV with temperature_K, rate_MHz, sigma_MHz")
    p.add_argument("--models", type=str, default="1,3,5,7",
                   help="candidate exponents, comma separated")
    p.add_argument("--t-max", type=float,
                   help="fit only points at or below this temperature")

    p = command("fit-geom", "fabricated-geometry statistics from contours",
                config=False)
    p.add_argument("--manifest", required=True, metavar="FILE",
                   help="JSON manifest: contours: [{path, role}, ...]")

    return parser


# ---------------------------------------------------------------------------
# artifact helpers


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _artifact_dir(command: str, request: dict) -> Path:
    """Make ``<out_dir>/<command>-<run_id>/`` and record the request in it."""
    directory = _out_root(request["out_dir"]) / f"{command}-{run_id(request)}"
    directory.mkdir(parents=True, exist_ok=True)
    _write_json(directory / "config.json", request)
    return directory


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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_bands_csv(path: Path, bands) -> None:
    _write_csv(
        path,
        ["k_reduced", "band_index", "frequency_GHz", "parity_y", "parity_z"],
        (
            [_fmt(k), str(j), _fmt(bands.frequencies_ghz[i, j]),
             bands.parity_y[i, j], bands.parity_z[i, j]]
            for i, k in enumerate(bands.k_points)
            for j in range(bands.n_bands)
        ),
    )


def _write_dos_csv(path: Path, dos) -> None:
    _write_csv(
        path,
        ["frequency_GHz", "dos_per_GHz"],
        ([_fmt(f), _fmt(d)] for f, d in zip(dos.frequency_ghz, dos.dos_per_ghz)),
    )


def _note(path: Path) -> None:
    print(f"wrote {path}")


def gap_row(value_nm: float, center_ghz: float, width_ghz: float) -> list[str]:
    """One sweep-CSV row; the standalone gap report reuses this so both
    outputs agree byte for byte."""
    return [_fmt(value_nm), _fmt(center_ghz), _fmt(width_ghz)]


def _compute_bands(config: RunConfig):
    if config.structure == "nanobeam":
        mesh = build_nanobeam_mesh(
            config.beam_width_nm,
            config.beam_thickness_nm,
            config.a_nm,
            config.resolution,
        )
    else:
        mesh = build_unit_cell_mesh(config.cell_params(), config.resolution)
    return band_diagram(
        mesh,
        config.material(),
        default_k_path(config.n_kpoints),
        config.n_modes,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_bands(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    bands = _compute_bands(config)
    out = _artifact_dir("bands", config.to_dict())
    path = out / "bands.csv"
    _write_bands_csv(path, bands)
    _note(path)
    return 0


def cmd_dos(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    bands = _compute_bands(config)
    dos = compute_dos(bands, config.broadening_ghz)
    out = _artifact_dir("dos", config.to_dict())
    path = out / "dos.csv"
    _write_dos_csv(path, dos)
    _note(path)
    return 0


def _gap_report(config: RunConfig, bands) -> dict:
    gaps = find_complete_gaps(bands, config.f_max_ghz)
    window = (config.window_lo_ghz, config.window_hi_ghz)
    in_window = [g for g in gaps if window[0] <= g.center_ghz <= window[1]]
    gap = primary_gap(gaps, window)
    report: dict = {
        "run_id": config.run_id,
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
    return report


def cmd_gap(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    bands = _compute_bands(config)
    report = _gap_report(config, bands)
    gap = report["gap"]
    out = _artifact_dir("gap", config.to_dict())
    value_nm = getattr(config.cell_params(), config.sweep_param)
    if gap is None:
        row = gap_row(value_nm, math.nan, 0.0)
    else:
        row = gap_row(value_nm, gap["center_ghz"], gap["width_ghz"])
    csv_path = out / "gap.csv"
    _write_csv(csv_path, ["param_value_nm", "center_GHz", "width_GHz"], [row])
    json_path = out / "gap.json"
    _write_json(json_path, report)
    if gap is None:
        print("no complete gap inside the window")
    else:
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
    _note(csv_path)
    _note(json_path)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.structure != "pnc":
        raise ConfigError("sweep requires the periodic-cell structure")
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
    out = _artifact_dir("sweep", config.to_dict())
    path = out / "sweep.csv"
    _write_csv(
        path,
        ["param_value_nm", "center_GHz", "width_GHz"],
        (gap_row(p.value_nm, p.center_ghz, p.width_ghz) for p in points),
    )
    _note(path)
    return 0


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


def cmd_fig1b(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    bands = _compute_bands(config)
    dos = compute_dos(bands, config.broadening_ghz)
    gap = primary_gap(
        find_complete_gaps(bands, config.f_max_ghz),
        (config.window_lo_ghz, config.window_hi_ghz),
    )
    out = _artifact_dir("fig1b", config.to_dict())
    _write_bands_csv(out / "bands.csv", bands)
    _write_dos_csv(out / "dos.csv", dos)
    if gap is None:
        shading = ""
    else:
        shading = (
            f"set object 1 rectangle from graph 0, first {_fmt(gap.f_lo_ghz)} "
            f"to graph 1, first {_fmt(gap.f_hi_ghz)} "
            "behind fillcolor rgb \"#d9d9d9\" fillstyle solid noborder\n"
        )
    script = _GNUPLOT_TEMPLATE.format(
        f_max=_fmt(config.f_max_ghz), shading=shading
    )
    (out / "fig1b.gp").write_text(script, encoding="utf-8")
    for name in ("bands.csv", "dos.csv", "fig1b.gp"):
        _note(out / name)
    return 0


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
    out = _artifact_dir("rates", _request(args))
    path = out / "rates.csv"
    _write_csv(
        path,
        ["temperature_K", "gamma_up_MHz", "gamma_down_MHz",
         "gamma_raman_MHz", "t1_ns"],
        rows,
    )
    _note(path)
    return 0


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
    out = _artifact_dir("pumpprobe", _request(args))
    path = out / "pumpprobe.csv"
    _write_csv(
        path,
        ["tau_ns", "ratio"],
        ([_fmt(t), _fmt(r)] for t, r in zip(taus, ratios)),
    )
    _note(path)
    if args.dump_trace_ns is not None:
        sequence = PulseSequence(
            delay_ns=args.dump_trace_ns, width_ns=args.pulse_width_ns
        )
        trace = simulate_sequence(system, sequence)
        trace_path = out / "trace.csv"
        _write_csv(
            trace_path,
            ["time_ns", "signal"],
            ([_fmt(t), _fmt(s)] for t, s in zip(trace.times_ns, trace.signal)),
        )
        _note(trace_path)
    return 0


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
    out = _artifact_dir("fit-t1", request)
    path = out / "fit_t1.json"
    _write_json(path, report)
    print(f"T1 = {report['t1_ns']:.3f} +/- {report['t1_err_ns']:.3f} ns")
    _note(path)
    return 0


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
    out = _artifact_dir("fit-temp", request)
    json_path = out / "fit_temp.json"
    csv_path = out / "fit_temp_curves.csv"
    _write_json(json_path, report)
    _write_csv(csv_path, header, ([_fmt(v) for v in row] for row in curves))
    best = ranked[0]
    print(
        f"best exponent {best.exponent}: A = {best.a_mhz:.4g} +/- "
        f"{best.a_err_mhz:.2g} MHz, B = {best.b_mhz:.4g} +/- "
        f"{best.b_err_mhz:.2g} MHz/K^{best.exponent}"
    )
    _note(json_path)
    _note(csv_path)
    return 0


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
    out = _artifact_dir("fit-geom", _request(args, args.manifest, *paths))
    path = out / "fit_geom.csv"
    _write_csv(path, ["parameter", "average_nm", "sd_nm"], rows)
    _note(path)
    return 0


_COMMANDS = {
    "bands": cmd_bands,
    "dos": cmd_dos,
    "gap": cmd_gap,
    "sweep": cmd_sweep,
    "fig1b": cmd_fig1b,
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
