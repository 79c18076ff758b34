"""phonogap benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Works from any directory of a source checkout; the package is imported from
the checkout's ``src``.  Each timed run is a fresh child process, started one
at a time, so interpreter start and ``import phonogap`` count as they do for
every CLI call.  Timed children start until the next one would end past
``--seconds`` (at least one per input: ``bands_dense_k`` has two cells,
which its children take in turn).  Extra set-up-only children give
``setup_s`` several samples.  Times are rescaled to a reference host speed
sampled during each child, after taking out the time the child waited for
a CPU another task held (see calibrate.py).  Reported values are medians
over the children of the run.

With ``--trace 1`` the run adds one traced child and reports the per-layer
metrics instead; ``trace.overhead_s`` is the traced child's wall time minus
the untraced median.  After the children, and untimed, this process builds
the dense reference, runs the documented ``phonogap fig1b`` defaults once
(``bands_dense_k``), and checks every child's outputs.  Operations are
counted once per input, so ``attempted`` and ``failed`` follow the seed.

Prints a metrics table, then the result as one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run record
(versions, machine, seed, resolved inputs, every child) goes to
``.perfbench/records/``.
"""

from __future__ import annotations

import os

#: One BLAS/OpenMP thread here and in every child.  Set before
#: numpy loads: OpenBLAS reads it once, at load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Every invocation ends within this many seconds of its start.
INVOCATION_BUDGET_S = 170.0
SETUP_ONLY_CHILDREN = 3


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    """One finished child process as its parent saw it."""

    kind: str  # "setup", "timed", "traced" or "probe"
    started: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    setup_s: float = float("nan")
    slowness: float = 1.0  # host slowness during the child, see calibrate.py
    wait_s: float = 0.0  # time the child waited for a CPU another task held
    setup_wait_s: float = 0.0  # the part of it before set-up ended
    result: dict = field(default_factory=dict)
    config: dict | None = None  # the cell of a band-workload child
    gap: tuple | None = None
    artifact_bytes: int = 0
    cell: int = 0  # which of the run's cells a band-workload child ran
    outcome: checks.Outcome | None = None

    def summary(self) -> dict:
        return {"kind": self.kind, "wall_s": self.wall_s, "setup_s": self.setup_s,
                "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
                "slowness": self.slowness, "wait_s": self.wait_s,
                "setup_wait_s": self.setup_wait_s, "status": self.status,
                "exit_code": self.result.get("exit_code"), "cell": self.cell,
                "config": self.config}


class Runner:
    """Starts children one at a time under a shared deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ,
                    "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        self.env.pop("PHONOGAP_OUT_DIR", None)
        self.log = open(work / "children.log", "wb")

    def close(self) -> None:
        self.log.close()

    def spawn(self, kind: str, argv: list[str]) -> Child:
        """Run one child to its end; kill it if it outlives the deadline."""
        self.log.write(f"--- {kind}: {' '.join(argv)}\n".encode())
        self.log.flush()
        start = now()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=self.log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
        timer.start()
        probe = calibrate.SpeedProbe(proc.pid)
        probe.start()
        try:
            # Stop the probe before reaping, while the pid is still the child's.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = now() - start
            slowness = probe.stop()
            wait = calibrate.cpu_wait_s(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            probe.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(kind=kind, started=start, wall_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0,
                     status=proc.returncode, slowness=slowness, wait_s=wait)

    def child(self, kind: str, spec_path: Path) -> Child:
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        flags = {"setup": ["--setup-only"], "traced": ["--trace"]}.get(kind, [])
        child = self.spawn(kind, [str(HERE / "child.py"), str(spec_path),
                                  str(result_path), *flags])
        if child.status == 0 and result_path.exists():
            child.result = json.loads(result_path.read_text())
            child.setup_s = child.result["t_first"] - child.started
            child.setup_wait_s = child.result["wait_first_s"]
        return child


# ---------------------------------------------------------------------------
# workloads


def timed_children(runner: Runner, spec_path: Path, seconds: float,
                   trace: bool, run, at_least: int = 1) -> list[Child]:
    """Set-up-only children, then timed children until ``seconds`` would be
    overrun (but at least ``at_least``), then the traced child when asked
    for."""
    children = [runner.child("setup", spec_path)
                for _ in range(SETUP_ONLY_CHILDREN)]
    start = now()
    while True:
        child = run("timed")
        children.append(child)
        if now() + 2 * child.wall_s > runner.deadline:
            break
        n_timed = sum(c.kind == "timed" for c in children)
        if n_timed >= at_least and now() - start + child.wall_s > seconds:
            break
    if trace:
        children.append(run("traced"))
    return children


def checked(children: list[Child]) -> list[Child]:
    """Children whose outputs are checked: the timed and traced ones."""
    return [c for c in children if c.kind in ("timed", "traced")]


def crashed(spec: dict, child: Child | None) -> checks.Outcome:
    """A child that left nothing to check fails all its operations; so does
    an input that no child ran (``child`` None)."""
    keys = workloads.operation_keys(spec)
    note = ("no child ran" if child is None else
            f"{child.kind} child left no result: status {child.status}")
    return checks.Outcome(attempted=len(keys), correct=False,
                          failures={key: f"{key}: {note}" for key in keys})


#: Children of a run, and each input's checked operations under its tag.
RunResult = tuple[list[Child], list[tuple[str, checks.Outcome]]]


def band_run(runner: Runner, spec: dict, args) -> RunResult:
    work = runner.work
    out_dir = work / "out"
    config_path = work / "config.json"
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(
        {**spec, "argv": [spec["command"], "--config", str(config_path),
                          "--out-dir", str(out_dir)]}))
    n_cells = spec["cells_per_run"]
    timed = 0

    def run(kind: str) -> Child:
        # Timed children take the run's seeded cells in turn; the traced
        # child repeats the first.
        nonlocal timed
        cell = timed % n_cells if kind == "timed" else 0
        timed += kind == "timed"
        config = workloads.band_config(spec, cell)
        config_path.write_text(json.dumps(config, indent=1))
        shutil.rmtree(out_dir, ignore_errors=True)
        child = runner.child(kind, spec_path)
        child.config, child.cell = config, cell
        if child.result.get("exit_code") == 0:
            (artifacts,) = out_dir.iterdir()
            child.gap = checks.read_gap_report(spec["command"], artifacts)
            child.artifact_bytes = sum(p.stat().st_size
                                       for p in artifacts.iterdir())
        return child

    children = timed_children(runner, spec_path, args.seconds, args.trace,
                              run, at_least=n_cells)
    probe = None
    if spec["command"] == "fig1b":
        # The documented default command, untimed.  At the commit that
        # introduced this benchmark it exits 3 (DOS aliasing guard at the
        # default 20 k points); that counts as one failed operation.
        probe = runner.spawn("probe", ["-m", "phonogap", "fig1b",
                                       "--out-dir", str(work / "probe")])

    for child in checked(children):
        bands = child.result.get("bands")
        if not bands:
            child.outcome = crashed(spec, child)
            continue
        # The same picks for every child of a cell, so that their
        # operations line up.
        rng = np.random.default_rng([args.seed, 3, child.cell])
        reference = checks.reference_bands(
            child.config, checks.reference_k(bands, child.gap, spec, rng),
            spec["n_modes"], STATE / "cache")
        child.outcome = checks.check_bands(bands, child.gap, reference,
                                           child.result["exit_code"])
    outcomes = []
    for cell in range(n_cells):
        ran = [c.outcome for c in checked(children) if c.cell == cell]
        outcomes.append((f"cell {cell}", checks.repeated(ran) if ran
                         else crashed(spec, None)))
    if probe is not None:
        probe.outcome = checks.Outcome(attempted=1)
        if probe.status != 0:
            probe.outcome.fail("exit", f"default fig1b exited {probe.status}")
        children.append(probe)
        outcomes.append(("probe", probe.outcome))
    return children, outcomes


def relaxation_run(runner: Runner, spec: dict, args) -> RunResult:
    spec_path = runner.work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    children = timed_children(runner, spec_path, args.seconds, args.trace,
                              lambda kind: runner.child(kind, spec_path))
    for child in checked(children):
        child.outcome = (checks.check_relaxation(spec, child.result["relaxation"])
                         if "relaxation" in child.result else crashed(spec, child))
    # Every child runs the same chain.
    return children, [("chain", checks.repeated(
        [c.outcome for c in checked(children)]))]


# ---------------------------------------------------------------------------
# metrics and run record


def end_to_end(children: list[Child], spec: dict) -> dict[str, float]:
    """End-to-end values of a run.

    Times leave out waits for a CPU another task held and are at the
    reference host speed (see calibrate.py).  ``wall_s``
    and ``peak_rss_mb`` are medians over each input's timed children,
    averaged over the run's inputs (its cells, or the one relaxation chain);
    ``setup_s`` is the median over all children.  The raw medians and the
    throughput under its per-workload name (``kpoints_per_s`` or
    ``curves_per_s``) are for the table only.
    """
    timed = [c for c in children if c.kind == "timed"]
    setups = [c for c in children
              if c.kind in ("setup", "timed") and not np.isnan(c.setup_s)]

    def per_input(value) -> float:
        inputs: dict[int, list[float]] = {}
        for c in timed:
            inputs.setdefault(c.cell, []).append(value(c))
        return statistics.mean(statistics.median(v) for v in inputs.values())

    name, count = workloads.throughput(spec)
    return {
        "wall_s": per_input(lambda c: (c.wall_s - c.wait_s) / c.slowness),
        "setup_s": (statistics.median((c.setup_s - c.setup_wait_s) / c.slowness
                                      for c in setups)
                    if setups else float("nan")),
        "peak_rss_mb": per_input(lambda c: c.peak_rss_mb),
        "wall_raw_s": statistics.median(c.wall_s for c in timed),
        "setup_raw_s": (statistics.median(c.setup_s for c in setups)
                        if setups else float("nan")),
        "host_slowness": statistics.median(c.slowness for c in timed),
        "cpu_wait_s": statistics.median(c.wait_s for c in timed),
        name: statistics.median(count / (c.wall_s - c.setup_s) for c in timed),
    }


def per_layer(children: list[Child]) -> tuple[dict, list[str]]:
    """Per-layer values of the traced child, and the metrics it could not
    measure because a traced function is missing."""
    timed = [c for c in children if c.kind == "timed"]
    traced = next(c for c in children if c.kind == "traced")
    if "trace" not in traced.result:
        return {}, list(metrics.PER_LAYER)
    values = metrics.span_metrics(traced.result["trace"], traced.wall_s)
    found = traced.outcome.values
    values.update({
        "spectrum.band_rel_err": found.get("spectrum.band_rel_err", 0.0),
        "spectrum.gap_edge_err_ghz": found.get("spectrum.gap_edge_err_ghz", 0.0),
        "fitkit.t1_rel_err": found.get("fitkit.t1_rel_err", 0.0),
        "tempfit.exponent_hits": found.get("tempfit.exponent_hits", 0),
        "cli.artifact_bytes": traced.artifact_bytes,
        "process.cpu_s": statistics.median(c.cpu_s for c in timed),
        "trace.overhead_s": (traced.wall_s - traced.wait_s) / traced.slowness
            - statistics.median((c.wall_s - c.wait_s) / c.slowness
                                for c in timed if c.cell == traced.cell),
    })
    return values, metrics.missing_metrics(traced.result["trace"]["missing"])


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of src/ always."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        text = head.read_text().strip()
        ref = ROOT / ".git" / text[5:] if text.startswith("ref: ") else None
        commit = ref.read_text().strip() if ref and ref.is_file() else text
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def print_table(values: dict, table: dict, skip: list[str],
                total: checks.Outcome) -> None:
    units = {name: spec[0] for name, spec in table.items()}
    units.update(kpoints_per_s="1/s", curves_per_s="1/s", wall_raw_s="s",
                 setup_raw_s="s", host_slowness="ratio", cpu_wait_s="s")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for name in skip:
        print(f"  {name:40s} missing")
    print(f"  {'failed_ratio':40s} {total.failed / total.attempted:14.6g} "
          f"({total.failed} failed of {total.attempted} attempted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = now()
    if not (SRC / "phonogap" / "__init__.py").is_file():
        print(f"error: no phonogap sources under {SRC}; run inside a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = workloads.make_spec(args.workload, args.seed)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + INVOCATION_BUDGET_S)
    try:
        run = relaxation_run if args.workload == "relaxation_chain" else band_run
        children, outcomes = run(runner, spec, args)
    finally:
        runner.close()

    total = checks.Outcome()
    for tag, outcome in outcomes:
        total.merge(outcome, tag)
    if args.trace:
        values, skip = per_layer(children)
        table = metrics.PER_LAYER
    else:
        values, skip = end_to_end(children, spec), []
        table = metrics.END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **environment(), **source_identity(),
        "params": {k: v for k, v in spec.items() if k != "cells"},
        "children": [c.summary() for c in children],
        "attempted": total.attempted, "failed": total.failed,
        "correct": total.correct, "notes": total.notes[:100],
        "metrics": values, "missing": skip,
    }
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    n_timed = sum(c.kind == "timed" for c in children)
    print(f"{args.workload} seed {args.seed}: {n_timed} timed children, "
          f"{now() - started:.1f} s in all")
    print_table(values, table, skip, total)
    for note in total.notes[:20]:
        print(f"  note: {note}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": total.correct, "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics.emit(values, table, skip),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
