"""Workload definitions and seeded input generation.

Each workload turns a seed into its inputs.  The program under test only
ever sees those: the band workloads get one CLI config file per child, for
one of the run's fabrication-perturbed cells, and the relaxation chain gets
noise seeds and imaged contour points.  The same seed always gives the same
inputs.
"""

from __future__ import annotations

import numpy as np

#: Nominal cell (nm) and its one-sigma fabrication spread (nm).
NOMINAL_NM = {"w": 95.7, "h": 89.9, "a": 129.6, "t": 22.1, "r": 16.9, "d": 70.3}
FAB_SD_NM = {"w": 4.9, "h": 4.2, "a": 2.6, "t": 3.0, "r": 5.6, "d": 3.7}

#: Single-crystal diamond, written into every config so that the CLI run
#: and the dense reference build the same pencil from the same constants.
DIAMOND = {"c11_gpa": 1079.0, "c12_gpa": 124.0, "c44_gpa": 578.0,
           "rho_kgm3": 3515.0}

BAND_WORKLOADS = {
    # Many cheap k points: per-k work dominates, and 48 points clear the
    # DOS aliasing guard of the nominal cell with margin (max step ~1.15 GHz
    # vs 1.5 GHz).  One cell costs 8 s to 11 s at the reference speed, so
    # a run takes two, in turn.  The reference checks k = 0, the gap-edge k,
    # two seeded picks and the pair with the largest band step, where a
    # missed mode shows.
    "bands_dense_k": {
        "command": "fig1b", "resolution": [10, 8, 4], "n_kpoints": 48,
        "n_modes": 26, "ref_random_k": 2,
        "ref_max_step_pair": True, "cells_per_run": 2,
    },
    # Few large k points: factorize-and-Lanczos is ~90 % of the time.  Runs
    # by hand but is not in BENCHMARK.json: its cost follows the LU fill of
    # six factorizations, which moves by up to 1.5x between cells and
    # processes, and its run-to-run spread stayed near 30 %.  Only k = 0 and
    # the gap-edge k are checked: a dense solve takes ~10 s at k = 0 (real
    # pencil) and four times that elsewhere.
    "gap_fine_mesh": {
        "command": "gap", "resolution": [16, 12, 6], "n_kpoints": 6,
        "n_modes": 30, "ref_random_k": 0,
        "ref_max_step_pair": False, "cells_per_run": 1,
    },
}

RELAXATION = {
    "delta_ghz": 46.0,
    # Couplings chosen so that the fitted lifetimes span ~30-200 ns: a bulk
    # host dominated by the linear one-phonon channel, and a gap-protected
    # crystal (one-phonon coupling suppressed 1000x) dominated by the T^3
    # two-phonon channel.
    "models": [
        {"name": "bulk", "chi_rho": 2.0e-6, "chi_rho_sq": 1.5e-12,
         "temps_k": np.linspace(4.4, 12.0, 10).tolist(),
         "true_exponent": 1},
        {"name": "protected", "chi_rho": 2.0e-9, "chi_rho_sq": 1.5e-12,
         "temps_k": np.linspace(16.0, 30.0, 10).tolist(),
         "true_exponent": 3},
    ],
    "n_delays": 16,
    "delay_span_t1": 5.0,
    "ratio_noise": 0.02,
    "n_cells": 20,
    "contour_noise_nm": 0.2,
}

WORKLOADS = (*BAND_WORKLOADS, "relaxation_chain")


def _perturbed_cell(rng: np.random.Generator) -> dict[str, float]:
    """Cell dimensions drawn within one fabrication sigma of nominal."""
    return {
        name: float(NOMINAL_NM[name]
                    + FAB_SD_NM[name] * np.clip(rng.standard_normal(), -1.0, 1.0))
        for name in NOMINAL_NM
    }


def band_config(spec: dict, index: int) -> dict:
    """CLI config of the ``index``-th seeded cell of a band-workload run."""
    cell = _perturbed_cell(np.random.default_rng([spec["seed"], 1, index]))
    config = {f"{name}_nm": value for name, value in cell.items()}
    config.update(DIAMOND)
    config.update(resolution=spec["resolution"], n_kpoints=spec["n_kpoints"],
                  n_modes=spec["n_modes"])
    return config


def _contours(rng: np.random.Generator, n_cells: int, noise: float) -> list[dict]:
    """Imaged block, fillet and tether-edge contours of perturbed cells."""
    cells = []
    for _ in range(n_cells):
        dims = _perturbed_cell(rng)
        theta = (np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
                 + rng.uniform(0.0, 2.0 * np.pi / 40))
        block = np.column_stack([dims["w"] / 2.0 * np.cos(theta),
                                 dims["h"] / 2.0 * np.sin(theta)])
        arc = np.linspace(0.0, np.pi / 2.0, 15)
        fillet = np.column_stack([dims["r"] * np.cos(arc),
                                  dims["r"] * np.sin(arc)])
        x = np.linspace(-30.0, 30.0, 21)
        edge = dims["t"] / 2.0 + 0.05 * x**2 / (1.0 + np.abs(x) / 40.0)
        upper = np.column_stack([x, edge])
        lower = np.column_stack([x, -edge])
        noisy = {
            name: (pts + rng.normal(0.0, noise, pts.shape)).tolist()
            for name, pts in (("block", block), ("fillet", fillet),
                              ("upper", upper), ("lower", lower))
        }
        cells.append({"truth_nm": {k: dims[k] for k in ("w", "h", "r", "t")},
                      **noisy})
    return cells


def relaxation_spec(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    models = [
        {**model, "noise_seeds": [int(s) for s in
                                  rng.integers(0, 2**31, len(model["temps_k"]))]}
        for model in RELAXATION["models"]
    ]
    return {
        "workload": "relaxation_chain", "seed": seed, **RELAXATION,
        "models": models,
        "cells": _contours(rng, RELAXATION["n_cells"],
                           RELAXATION["contour_noise_nm"]),
    }


def make_spec(workload: str, seed: int) -> dict:
    if workload in BAND_WORKLOADS:
        return {"workload": workload, "seed": seed, **BAND_WORKLOADS[workload]}
    if workload == "relaxation_chain":
        return relaxation_spec(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def operation_keys(spec: dict) -> list[str]:
    """Keys of the operations one child attempts, as checks.py names them:
    k-point solves plus the gap report, or recovery curves, exponent
    rankings and contour fits."""
    if spec["workload"] in BAND_WORKLOADS:
        return [f"k{i}" for i in range(spec["n_kpoints"])] + ["gap"]
    models = spec["models"]
    n_curves = sum(len(m["temps_k"]) for m in models)
    return ([f"curve{i}" for i in range(n_curves)]
            + [f"exponent {m['name']}" for m in models]
            + [f"cell{j} {dims}" for j in range(len(spec["cells"]))
               for dims in ("w/h", "r", "t")])


def throughput(spec: dict) -> tuple[str, int]:
    """The workload's throughput metric name and its count per child."""
    if spec["workload"] in BAND_WORKLOADS:
        return "kpoints_per_s", spec["n_kpoints"]
    return "curves_per_s", sum(len(m["temps_k"]) for m in spec["models"])
