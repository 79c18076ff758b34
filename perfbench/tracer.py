"""Spans around calls into phonogap's public functions, recorded from outside.

A traced child replaces each function listed in ``TRACED`` -- the module
attribute and every by-name binding of the same object in other phonogap
modules (``cli`` and ``spectrum`` import ``band_diagram`` by name, ``cli``
imports the fit and rate functions the same way) -- with a wrapper that keeps
one span (name, start, end, parent) in memory.  The child writes the spans
out when it ends.  Nothing inside the package changes.

A function that no longer exists is reported as missing, so that the
metrics built on it are reported missing rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import numpy as np

#: Public functions wrapped per layer; spans are named "<layer>.<function>".
TRACED = {
    "geometry": ("build_unit_cell_mesh", "build_nanobeam_mesh"),
    "elastics": ("band_diagram", "assemble", "reflection_maps",
                 "make_bloch_problem", "solve_bands", "solve_reduced",
                 "classify_parities"),
    "spectrum": ("compute_dos", "find_complete_gaps", "primary_gap"),
    "cli": ("main",),
    "rates": ("total_relaxation",),
    "dynamics": ("thermalization_curve", "simulate_sequence",
                 "extract_peak_ratio"),
    "fitkit": ("fit_recovery", "fit_nonlinear", "fit_ellipse", "fit_circle",
               "fit_tether_width"),
    "tempfit": ("select_model",),
}

#: Eigenvalue scale (rad/s)^2 of 1 GHz; residuals of near-zero modes are
#: measured against it instead of their own vanishing eigenvalue.
_LAMBDA_1GHZ = (2.0 * math.pi * 1e9) ** 2


def rebind(original, replacement) -> None:
    """Point every phonogap module's binding of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "phonogap" or name.startswith("phonogap."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _keep_max(counters: dict, key: str, value: float) -> None:
    counters[key] = max(counters.get(key, 0.0), float(value))


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0.0) + float(value)


def _solve_hook(counters, args, result):
    """Problem size and postconditions of one reduced eigensolve."""
    k_red, m_red = args[0], args[1]
    freqs, vecs = result
    _keep_max(counters, "n_dofs_reduced", k_red.shape[0])
    _keep_max(counters, "nnz", k_red.nnz + m_red.nnz)
    m_vecs = m_red @ vecs
    gram = vecs.conj().T @ m_vecs
    _keep_max(counters, "max_morth_err",
              np.abs(gram - np.eye(gram.shape[0])).max())
    lam = (2.0 * math.pi * 1e9 * np.asarray(freqs)) ** 2
    resid = np.linalg.norm(k_red @ vecs - m_vecs * lam, axis=0)
    scale = np.maximum(lam, _LAMBDA_1GHZ) * np.linalg.norm(m_vecs, axis=0)
    _keep_max(counters, "max_rel_residual", (resid / scale).max())


def _classify_hook(counters, args, result):
    _add(counters, "mixed_labels",
         sum(int(np.count_nonzero(np.asarray(p) == "mixed")) for p in result))


def _mesh_hook(counters, args, result):
    _keep_max(counters, "n_elements", result.elements.shape[0])


def _dos_hook(counters, args, result):
    freqs = np.asarray(args[0].frequencies_ghz)
    if freqs.shape[0] > 1:
        _keep_max(counters, "dos_max_step_ghz",
                  np.abs(np.diff(freqs, axis=0)).max())


def _simulate_hook(counters, args, result):
    _add(counters, "samples", result.times_ns.size)


def _lm_hook(counters, args, result):
    _add(counters, "lm_iterations", result.n_iterations)


#: Counters read from a call's inputs and outputs, after its span closes.
HOOKS = {
    "elastics.solve_reduced": _solve_hook,
    "elastics.classify_parities": _classify_hook,
    "geometry.build_unit_cell_mesh": _mesh_hook,
    "geometry.build_nanobeam_mesh": _mesh_hook,
    "spectrum.compute_dos": _dos_hook,
    "dynamics.simulate_sequence": _simulate_hook,
    "fitkit.fit_nonlinear": _lm_hook,
}


class Tracer:
    """In-memory span recorder for one single-threaded child process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"phonogap.{layer}")
            for function in functions:
                name = f"{layer}.{function}"
                original = getattr(module, function, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                rebind(original, self._wrap(name, original, HOOKS.get(name)))

    def _wrap(self, name, function, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "missing": self.missing}


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total and self time, and each duration.

    Self time is a span's duration minus the time its child spans cover;
    children of one parent never overlap in a single-threaded process.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = table.setdefault(
            name, {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - covered[index]
        entry["durations"].append(end - start)
    return table
