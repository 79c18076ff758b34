"""Output checks: dense-reference bands, gap edges, and the relaxation chain.

Band frequencies must match dense ``scipy.linalg.eigh`` on the same reduced
pencils to 0.1 %, and the reported gap edges must match the reference band
values at the k points where they are attained to 0.05 GHz.  These are the
gates an approximate solver has to meet too.  A ``mixed`` parity label fails
its k point.  In the relaxation chain, each fitted T1 must match the lifetime
that was simulated, each model's best-ranked exponent must be the true one,
and each contour fit must recover the dimension it was drawn from.

Every failed check fails one operation and shows in ``failed``.  Each
operation has a key, so that an input run by several children counts its
operations once: one fails when it failed in any of them.  The counts then
follow the seed, not how many children fitted in the time.  A run is
incorrect only when its outputs could not be checked: a child crashed or
left no result.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FREQ_REL_TOL = 1e-3
#: Frequencies below this compare on an absolute 1 MHz scale: the rigid-body
#: modes at k = 0 are numerically zero and have no relative error.
FREQ_FLOOR_GHZ = 1.0
GAP_EDGE_TOL_GHZ = 0.05
#: Fitted T1 may be off by five of its own standard errors plus the ~0.7 ns
#: offset the 5 ns settle window puts on every extracted ratio.
T1_SIGMAS = 5.0
T1_OFFSET_NS = 1.0
#: Fit error above this share of T1 means the error estimate is unusable.
T1_MAX_REL_ERR = 0.1
#: Contour-fit tolerance per dimension; the quarter-arc fillet fit is the
#: worst conditioned (worst of 200 seeds: 0.33 nm for w/h/t, 1.7 nm for r).
DIM_TOL_NM = {"w": 1.0, "h": 1.0, "t": 1.0, "r": 3.0}


@dataclass
class Outcome:
    """Checked operations of one input (or one probe)."""

    attempted: int = 0
    correct: bool = True
    #: operation key -> why it failed
    failures: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def notes(self) -> list[str]:
        return list(self.failures.values())

    def fail(self, key: str, note: str) -> None:
        self.failures.setdefault(key, note)

    def merge(self, other: "Outcome", tag: str) -> None:
        """Add the operations of another input; ``tag`` keeps their keys
        apart and prefixes their notes."""
        self.attempted += other.attempted
        self.correct = self.correct and other.correct
        for key, note in other.failures.items():
            self.fail(f"{tag}/{key}", f"{tag}: {note}")


def repeated(outcomes: list[Outcome]) -> Outcome:
    """One input checked in several children: each operation counts once and
    fails when it failed in any child."""
    out = Outcome(attempted=max(o.attempted for o in outcomes))
    for other in outcomes:
        out.correct = out.correct and other.correct
        for key, note in other.failures.items():
            out.fail(key, note)
    return out


# ---------------------------------------------------------------------------
# dense reference


def _pencil_digest(k_red, m_red, n_modes: int) -> str:
    digest = hashlib.sha256(str(n_modes).encode())
    for mat in (k_red, m_red):
        for part in (mat.data, mat.indices, mat.indptr):
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def reference_bands(config: dict, k_values, n_modes: int,
                    cache_dir: Path) -> dict[float, np.ndarray]:
    """Lowest ``n_modes`` frequencies (GHz) at each k from dense ``eigh``.

    The pencil is built by the package's own assembly and Bloch reduction
    from the same config the CLI read, so the check isolates the solver.
    Results are cached by a digest of the pencil.
    """
    from scipy.linalg import eigh

    from phonogap import elastics
    from phonogap.geometry import Material, UnitCellParams, build_unit_cell_mesh

    params = UnitCellParams(**{name: config[f"{name}_nm"]
                               for name in ("w", "h", "a", "t", "r", "d")})
    material = Material(c11_gpa=config["c11_gpa"], c12_gpa=config["c12_gpa"],
                        c44_gpa=config["c44_gpa"], rho_kgm3=config["rho_kgm3"])
    mesh = build_unit_cell_mesh(params, config["resolution"])
    k_mat, m_mat = elastics.assemble(mesh, material)
    cache_dir.mkdir(parents=True, exist_ok=True)
    out = {}
    for k in sorted(set(float(k) for k in k_values)):
        problem = elastics.make_bloch_problem(mesh, k, k_mat, m_mat)
        path = cache_dir / (_pencil_digest(problem.stiffness, problem.mass,
                                           n_modes) + ".npy")
        if path.exists():
            out[k] = np.load(path)
            continue
        k_dense, m_dense = problem.stiffness.toarray(), problem.mass.toarray()
        if k in (0.0, 1.0):
            # The Bloch phase is +-1 there: the pencil is real up to rounding
            # and the real solve is four times cheaper.
            k_dense, m_dense = k_dense.real.copy(), m_dense.real.copy()
        vals = eigh(k_dense, m_dense, eigvals_only=True,
                    subset_by_index=[0, n_modes - 1])
        freqs = np.sqrt(np.clip(vals, 0.0, None)) / (2.0 * np.pi * 1e9)
        np.save(path, freqs)
        out[k] = freqs
    return out


# ---------------------------------------------------------------------------
# band workloads


def gap_edge_points(freqs: np.ndarray, gap) -> list[tuple[int, int]]:
    """(k index, band index) of the table entries nearest the gap edges."""
    return [np.unravel_index(np.argmin(np.abs(freqs - edge)), freqs.shape)
            for edge in gap]


def reference_k(bands: dict, gap, spec: dict,
                rng: np.random.Generator) -> set[float]:
    """k points to check: the first (k = 0, where the rigid-body modes sit),
    the gap-edge k, the adjacent pair with the largest band step if the spec
    asks, and ``ref_random_k`` seeded picks among the rest."""
    k_points = [float(k) for k in bands["k_points"]]
    freqs = np.asarray(bands["frequencies_ghz"])
    chosen = {k_points[0]}
    if gap is not None:
        chosen.update(k_points[i] for i, _ in gap_edge_points(freqs, gap))
    if spec["ref_max_step_pair"] and len(k_points) > 1:
        i = int(np.abs(np.diff(freqs, axis=0)).max(axis=1).argmax())
        chosen.update(k_points[i:i + 2])
    rest = [k for k in k_points if k not in chosen]
    count = min(spec["ref_random_k"], len(rest))
    chosen.update(rest[i] for i in rng.choice(len(rest), count, replace=False))
    return chosen


def check_bands(bands: dict, gap, reference: dict[float, np.ndarray],
                exit_code: int) -> Outcome:
    """One operation per k point plus one for the gap report.

    ``bands`` holds ``k_points``, ``frequencies_ghz`` and (when classified)
    ``parity_y``/``parity_z``; ``gap`` is the reported (f_lo, f_hi) or None.
    A command that exits non-zero fails its gap report.
    """
    out = Outcome()
    freqs = np.asarray(bands["frequencies_ghz"], dtype=float)
    worst = 0.0
    for i, k in enumerate(map(float, bands["k_points"])):
        out.attempted += 1
        if k in reference:
            ref = reference[k]
            err = float((np.abs(freqs[i] - ref)
                         / np.maximum(ref, FREQ_FLOOR_GHZ)).max())
            worst = max(worst, err)
            if err > FREQ_REL_TOL:
                out.fail(f"k{i}", f"k={k:.4f}: band error {err:.2e} > {FREQ_REL_TOL}")
                continue
        labels = [bands.get(p) for p in ("parity_y", "parity_z")]
        n_mixed = sum(list(row[i]).count("mixed") for row in labels if row)
        if n_mixed:
            out.fail(f"k{i}", f"k={k:.4f}: {n_mixed} mixed parity labels")
    out.values["spectrum.band_rel_err"] = worst

    out.attempted += 1
    if exit_code != 0:
        out.fail("gap", f"command exited {exit_code}")
        return out
    if gap is None:
        out.fail("gap", "no gap reported")
        return out
    edge_err = 0.0
    for edge, (i, j) in zip(gap, gap_edge_points(freqs, gap)):
        k = float(bands["k_points"][i])
        if abs(freqs[i, j] - edge) > 1e-6 or k not in reference:
            edge_err = np.inf
        else:
            edge_err = max(edge_err, abs(edge - reference[k][j]))
    out.values["spectrum.gap_edge_err_ghz"] = edge_err
    if edge_err > GAP_EDGE_TOL_GHZ:
        out.fail("gap", f"gap edges off the reference by {edge_err:.3g} GHz")
    return out


_SHADING = re.compile(r"first (\S+) to graph 1, first (\S+) ")


def read_gap_report(command: str, artifact_dir: Path):
    """Reported primary-gap edges (GHz) of a ``gap`` or ``fig1b`` run."""
    if command == "gap":
        gap = json.loads((artifact_dir / "gap.json").read_text())["gap"]
        return None if gap is None else (gap["f_lo_ghz"], gap["f_hi_ghz"])
    match = _SHADING.search((artifact_dir / "fig1b.gp").read_text())
    return None if match is None else (float(match[1]), float(match[2]))


# ---------------------------------------------------------------------------
# relaxation chain


def check_relaxation(spec: dict, result: dict) -> Outcome:
    """One operation per recovery curve, per model's exponent ranking and
    per contour fit."""
    out = Outcome()
    worst = 0.0
    for i, curve in enumerate(result["curves"]):
        out.attempted += 1
        if curve.get("error"):
            out.fail(f"curve{i}", f"curve {curve['model']} {curve['t_k']} K: {curve['error']}")
            continue
        t1_true = 1e3 / (curve["gamma_up_mhz"] + curve["gamma_down_mhz"])
        off = abs(curve["t1_fit_ns"] - t1_true)
        worst = max(worst, off / t1_true)
        if (off > T1_SIGMAS * curve["t1_err_ns"] + T1_OFFSET_NS
                or curve["t1_err_ns"] > T1_MAX_REL_ERR * t1_true):
            out.fail(f"curve{i}", f"curve {curve['model']} {curve['t_k']} K: T1 "
                     f"{curve['t1_fit_ns']:.2f} +- {curve['t1_err_ns']:.2f} ns "
                     f"vs {t1_true:.2f} ns")
    out.values["fitkit.t1_rel_err"] = worst

    hits = 0
    for model in spec["models"]:
        out.attempted += 1
        best = result["selections"].get(model["name"])
        if best == model["true_exponent"]:
            hits += 1
        else:
            out.fail(f"exponent {model['name']}",
                     f"{model['name']}: best exponent {best}, "
                     f"true {model['true_exponent']}")
    out.values["tempfit.exponent_hits"] = hits

    for j, (cell, fitted) in enumerate(zip(spec["cells"], result["contours"])):
        for dims in (("w", "h"), ("r",), ("t",)):
            out.attempted += 1
            key = f"cell{j} {'/'.join(dims)}"
            if any(fitted.get(d) is None for d in dims):
                out.fail(key, f"{key} fit: {fitted.get('error')}")
                continue
            off = {d: abs(fitted[d] - cell["truth_nm"][d]) for d in dims}
            if any(off[d] > DIM_TOL_NM[d] for d in dims):
                out.fail(key, f"{key} fit off by {off}")
    return out
