"""Metric tables and their derivation from child samples and spans.

``END_TO_END`` and ``PER_LAYER`` mirror BENCHMARK.json; the self-tests hold
the two in step.  Each per-layer metric names the spans it is built from: if
one of them is missing from the traced child (its function was renamed or
removed), the metric is reported missing, never as zero.  Metrics with no
spans listed come from the checker or the process accounting.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import span_table

#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SOLVE = "elastics.solve_reduced"

#: name -> (unit, better, spans it is built from)
PER_LAYER = {
    "elastics.eigensolve_s": ("s", "lower", (SOLVE,)),
    "elastics.eigensolve_share": ("ratio", "lower", (SOLVE,)),
    "elastics.eigensolve_per_k_median_s": ("s", "lower", (SOLVE,)),
    "elastics.eigensolve_per_k_tail_s": ("s", "lower", (SOLVE,)),
    "elastics.n_solves": ("count", "lower", (SOLVE,)),
    "elastics.n_dofs_reduced": ("count", "lower", (SOLVE,)),
    "elastics.nnz": ("count", "lower", (SOLVE,)),
    "elastics.max_morth_err": ("ratio", "lower", (SOLVE,)),
    "elastics.max_rel_residual": ("ratio", "lower", (SOLVE,)),
    "elastics.bloch_reduce_s": ("s", "lower", ("elastics.make_bloch_problem",)),
    "elastics.classify_s": ("s", "lower", ("elastics.classify_parities",)),
    "elastics.mixed_labels": ("count", "lower", ("elastics.classify_parities",)),
    "elastics.band_diagram_self_s": ("s", "lower", ("elastics.band_diagram",)),
    "elastics.assemble_s": ("s", "lower", ("elastics.assemble",)),
    "elastics.reflection_maps_s": ("s", "lower", ("elastics.reflection_maps",)),
    "geometry.build_s": ("s", "lower", ("geometry.build_unit_cell_mesh",
                                        "geometry.build_nanobeam_mesh")),
    "geometry.n_elements": ("count", "lower", ("geometry.build_unit_cell_mesh",
                                               "geometry.build_nanobeam_mesh")),
    "spectrum.dos_s": ("s", "lower", ("spectrum.compute_dos",)),
    "spectrum.gaps_s": ("s", "lower", ("spectrum.find_complete_gaps",
                                       "spectrum.primary_gap")),
    "spectrum.dos_max_step_ghz": ("GHz", "lower", ("spectrum.compute_dos",)),
    "spectrum.band_rel_err": ("ratio", "lower", ()),
    "spectrum.gap_edge_err_ghz": ("GHz", "lower", ()),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "cli.artifact_bytes": ("bytes", "lower", ()),
    "dynamics.simulate_s": ("s", "lower", ("dynamics.simulate_sequence",)),
    "dynamics.samples": ("count", "lower", ("dynamics.simulate_sequence",)),
    "dynamics.extract_s": ("s", "lower", ("dynamics.extract_peak_ratio",)),
    "rates.eval_s": ("s", "lower", ("rates.total_relaxation",)),
    "rates.calls": ("count", "lower", ("rates.total_relaxation",)),
    "fitkit.recovery_s": ("s", "lower", ("fitkit.fit_recovery",)),
    "fitkit.lm_iterations": ("count", "lower", ("fitkit.fit_nonlinear",)),
    "fitkit.conic_s": ("s", "lower", ("fitkit.fit_ellipse", "fitkit.fit_circle")),
    "fitkit.tether_s": ("s", "lower", ("fitkit.fit_tether_width",)),
    "fitkit.t1_rel_err": ("ratio", "lower", ()),
    "tempfit.select_s": ("s", "lower", ("tempfit.select_model",)),
    "tempfit.exponent_hits": ("count", "higher", ()),
    "process.cpu_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


def tail(values: list[float]) -> float:
    """Highest of p99/p90/p75 with at least ten samples beyond it, else max."""
    for q in (0.99, 0.90, 0.75):
        if len(values) * (1.0 - q) >= 10:
            return float(np.quantile(values, q))
    return float(max(values, default=0.0))


def span_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer values that come from one traced child's spans and counters."""
    table = span_table(trace["spans"])
    counters = trace["counters"]

    def total(*names, key="total"):
        return sum(table[n][key] for n in names if n in table)

    solves = table.get(SOLVE, {}).get("durations", [])
    eigensolve_s = total(SOLVE)
    return {
        "elastics.eigensolve_s": eigensolve_s,
        "elastics.eigensolve_share": eigensolve_s / wall_s,
        "elastics.eigensolve_per_k_median_s":
            float(statistics.median(solves)) if solves else 0.0,
        "elastics.eigensolve_per_k_tail_s": tail(solves),
        "elastics.n_solves": len(solves),
        "elastics.n_dofs_reduced": counters.get("n_dofs_reduced", 0),
        "elastics.nnz": counters.get("nnz", 0),
        "elastics.max_morth_err": counters.get("max_morth_err", 0.0),
        "elastics.max_rel_residual": counters.get("max_rel_residual", 0.0),
        "elastics.bloch_reduce_s": total("elastics.make_bloch_problem"),
        "elastics.classify_s": total("elastics.classify_parities"),
        "elastics.mixed_labels": counters.get("mixed_labels", 0),
        "elastics.band_diagram_self_s":
            total("elastics.band_diagram", key="self"),
        "elastics.assemble_s": total("elastics.assemble"),
        "elastics.reflection_maps_s": total("elastics.reflection_maps"),
        "geometry.build_s": total("geometry.build_unit_cell_mesh",
                                  "geometry.build_nanobeam_mesh"),
        "geometry.n_elements": counters.get("n_elements", 0),
        "spectrum.dos_s": total("spectrum.compute_dos"),
        "spectrum.gaps_s": total("spectrum.find_complete_gaps",
                                 "spectrum.primary_gap"),
        "spectrum.dos_max_step_ghz": counters.get("dos_max_step_ghz", 0.0),
        "cli.self_s": total("cli.main", key="self"),
        "dynamics.simulate_s": total("dynamics.simulate_sequence"),
        "dynamics.samples": counters.get("samples", 0),
        "dynamics.extract_s": total("dynamics.extract_peak_ratio"),
        "rates.eval_s": total("rates.total_relaxation"),
        "rates.calls": table.get("rates.total_relaxation", {}).get("count", 0),
        "fitkit.recovery_s": total("fitkit.fit_recovery"),
        "fitkit.lm_iterations": counters.get("lm_iterations", 0),
        "fitkit.conic_s": total("fitkit.fit_ellipse", "fitkit.fit_circle"),
        "fitkit.tether_s": total("fitkit.fit_tether_width"),
        "tempfit.select_s": total("tempfit.select_model"),
    }


def missing_metrics(missing_spans: list[str]) -> list[str]:
    """Per-layer metrics built on a span the traced child could not wrap."""
    gone = set(missing_spans)
    return [name for name, (_, _, needs) in PER_LAYER.items()
            if gone.intersection(needs)]


def emit(values: dict[str, float], table: dict, skip=()) -> dict:
    """The result line's metrics: every metric of ``table`` not in ``skip``."""
    return {name: {"value": values[name], "unit": spec[0]}
            for name, spec in table.items() if name not in skip}
