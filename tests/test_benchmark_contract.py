"""What the benchmark in ``perfbench/`` reads of the package, held as tests.

The benchmark starts ``perfbench/child.py`` in a fresh interpreter, wraps
the functions that ``perfbench/tracer.py`` lists in ``TRACED`` by name, runs
the CLI, and builds a dense reference through ``assemble`` and
``make_bloch_problem``.  A metric whose function is gone is reported
missing, so every traced name has to stay callable.  Nothing under
``perfbench/`` is written here: the child's spec, config and output go to a
temporary directory.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phonogap import cli, elastics
from phonogap.geometry import DIAMOND, UnitCellParams, build_unit_cell_mesh

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name):
    """Import ``perfbench/<name>.py`` without leaving bytecode there."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


tracer = _perfbench_module("tracer")
workloads = _perfbench_module("workloads")

#: One BLAS thread, as ``perfbench/run.py`` starts its children.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("layer", sorted(tracer.TRACED))
def test_traced_names_are_callable(layer):
    module = importlib.import_module(f"phonogap.{layer}")
    for name in tracer.TRACED[layer]:
        assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.fixture(scope="module")
def traced_fig1b(tmp_path_factory):
    """One traced child on a coarse ``fig1b`` of the benchmark's first cell."""
    work = tmp_path_factory.mktemp("bench")
    spec = {**workloads.make_spec("bands_dense_k", 601),
            "resolution": [6, 5, 4], "n_kpoints": 8, "n_modes": 12}
    config = {**workloads.band_config(spec, 0), "broadening_ghz": 3.0}
    (work / "config.json").write_text(json.dumps(config))
    spec["argv"] = ["fig1b", "--config", str(work / "config.json"),
                    "--out-dir", str(work / "out")]
    (work / "spec.json").write_text(json.dumps(spec))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **BLAS_ENV, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    env.pop("PHONOGAP_OUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(work / "spec.json"),
         str(work / "result.json"), "--trace"],
        cwd=work, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return spec, json.loads((work / "result.json").read_text())


def test_traced_child_misses_nothing(traced_fig1b):
    spec, result = traced_fig1b
    assert result["exit_code"] == 0
    trace = result["trace"]
    assert trace["missing"] == []
    names = {span[0] for span in trace["spans"]}
    assert {"elastics.reflection_maps", "elastics.classify_parities",
            "elastics.solve_reduced"} <= names
    assert trace["counters"]["mixed_labels"] == 0
    bands = result["bands"]
    shape = (spec["n_kpoints"], spec["n_modes"])
    for key in ("frequencies_ghz", "parity_y", "parity_z"):
        assert np.shape(bands[key]) == shape
    assert set(np.ravel(bands["parity_y"] + bands["parity_z"])) == {"even", "odd"}


@pytest.mark.parametrize("workload", sorted(workloads.BAND_WORKLOADS))
def test_band_config_keys_are_read(tmp_path, workload):
    """The benchmark's per-cell config files parse for the command each band
    workload runs, and fig1b also takes the broadening the fixture above
    adds.  Parsing only: no band diagram is solved."""
    spec = workloads.make_spec(workload, 601)
    config = workloads.band_config(spec, 0)
    if spec["command"] == "fig1b":
        config["broadening_ghz"] = 3.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = cli.build_parser().parse_args([spec["command"], "--config", str(path)])
    assert cli._band_config(args).resolution == tuple(spec["resolution"])


def test_reference_call_forms():
    mesh = build_unit_cell_mesh(UnitCellParams(), (5, 4, 4))
    k_mat, m_mat = elastics.assemble(mesh, DIAMOND)
    problem = elastics.make_bloch_problem(mesh, 0.5, k_mat, m_mat)
    assert problem.stiffness.shape == problem.mass.shape == (problem.n_dofs,) * 2
    bands = elastics.band_diagram(mesh, DIAMOND, [0.0, 0.5], 6)
    assert isinstance(bands, elastics.BandStructure)
    assert bands.n_dofs_reduced == problem.n_dofs
    for parity in (bands.parity_y, bands.parity_z):
        assert parity.shape == bands.frequencies_ghz.shape == (2, 6)
        assert set(np.ravel(parity)) <= {"even", "odd"}
