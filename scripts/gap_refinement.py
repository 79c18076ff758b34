#!/usr/bin/env python3
"""Mesh-refinement ladder for the complete gap of the block-tether cell.

Runs the band pipeline at successively finer meshes and tabulates how the
gap edges move; the quickest way to judge whether a resolution is converged
enough to commit to a long sweep.
"""

import argparse
import csv
import sys
import time

from phonogap import (
    DIAMOND,
    UnitCellParams,
    band_diagram,
    default_k_path,
    find_complete_gaps,
    primary_gap,
)
from phonogap.geometry import build_unit_cell_mesh

LADDER = ((8, 6, 4), (10, 8, 4), (13, 10, 5), (16, 12, 6))


def run_level(params, resolution, n_kpoints, n_modes):
    mesh = build_unit_cell_mesh(params, resolution)
    start = time.perf_counter()
    bands = band_diagram(mesh, DIAMOND, default_k_path(n_kpoints), n_modes)
    elapsed = time.perf_counter() - start
    gap = primary_gap(find_complete_gaps(bands, f_max_ghz=100.0))
    return gap, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-kpoints", type=int, default=16)
    parser.add_argument("--n-modes", type=int, default=30)
    parser.add_argument(
        "--levels", type=int, default=3, choices=range(1, len(LADDER) + 1),
        help="how many rungs of the refinement ladder to run",
    )
    parser.add_argument("--csv", help="optional path for a summary CSV")
    args = parser.parse_args(argv)

    params = UnitCellParams()
    header = ["nx", "ny", "nz", "f_lo_GHz", "f_hi_GHz",
              "center_GHz", "width_GHz", "wall_s"]
    rows = []
    print(f"{'resolution':>12} {'f_lo':>8} {'f_hi':>8} {'center':>8} "
          f"{'width':>7} {'time_s':>7}")
    for resolution in LADDER[: args.levels]:
        gap, elapsed = run_level(
            params, resolution, args.n_kpoints, args.n_modes
        )
        if gap is None:
            print(f"{str(resolution):>12}   -- no gap in the window --")
            continue
        print(f"{str(resolution):>12} {gap.f_lo_ghz:8.3f} {gap.f_hi_ghz:8.3f}"
              f" {gap.center_ghz:8.3f} {gap.width_ghz:7.3f} {elapsed:7.2f}")
        rows.append([*resolution, gap.f_lo_ghz, gap.f_hi_ghz,
                     gap.center_ghz, gap.width_ghz, round(elapsed, 2)])

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
