"""Self-tests of the benchmark's checker, tracer and metric tables.

    python3 -m pytest perfbench
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_table  # noqa: E402

K_POINTS = [0.0, 0.5, 1.0]
REFERENCE = {
    0.0: np.array([0.0, 0.0, 40.0, 55.0, 80.0]),
    0.5: np.array([10.0, 20.0, 45.0, 60.0, 75.0]),
    1.0: np.array([15.0, 25.0, 50.0, 72.0, 78.0]),
}
GAP = (60.0, 72.0)


def band_table(changes=None):
    freqs = np.array([REFERENCE[k] for k in K_POINTS])
    for (i, j), value in (changes or {}).items():
        freqs[i, j] = value
    return {"k_points": K_POINTS, "frequencies_ghz": freqs.tolist()}


def check(bands, gap=GAP, exit_code=0):
    return checks.check_bands(bands, gap, REFERENCE, exit_code)


class TestBandChecker:
    def test_exact_bands_pass(self):
        out = check(band_table())
        assert (out.attempted, out.failed, out.correct) == (4, 0, True)

    def test_band_within_tolerance_passes(self):
        out = check(band_table({(1, 2): 45.0 * (1 + 0.5 * checks.FREQ_REL_TOL)}))
        assert (out.failed, out.correct) == (0, True)

    def test_band_beyond_tolerance_fails_its_k_point(self):
        out = check(band_table({(1, 2): 45.0 * (1 + 2 * checks.FREQ_REL_TOL)}))
        assert (out.attempted, out.failed) == (4, 1)
        assert out.values["spectrum.band_rel_err"] == pytest.approx(
            2 * checks.FREQ_REL_TOL)

    def test_nonzero_exit_fails_the_gap_report(self):
        out = check(band_table({(1, 2): 50.0}), None, exit_code=3)
        assert (out.attempted, out.failed) == (4, 2)

    def test_gap_edge_beyond_tolerance_fails(self):
        moved = GAP[0] + 2 * checks.GAP_EDGE_TOL_GHZ
        out = check(band_table({(1, 3): moved}), (moved, GAP[1]))
        # The band itself is 0.17 % off too.
        assert out.failed == 2
        assert out.values["spectrum.gap_edge_err_ghz"] == pytest.approx(
            2 * checks.GAP_EDGE_TOL_GHZ)

    def test_missing_gap_report_fails(self):
        out = check(band_table(), None)
        assert out.failed == 1

    def test_mixed_label_fails_its_k_point_only(self):
        bands = band_table()
        labels = [["even"] * 5 for _ in K_POINTS]
        bands["parity_y"] = labels
        bands["parity_z"] = [row[:3] + ["mixed", "odd"] for row in labels]
        out = check(bands)
        assert out.failed == 3

    def test_reference_k_covers_zero_gap_edges_and_largest_step(self):
        bands = {"k_points": np.linspace(0.0, 1.0, 9).tolist(),
                 "frequencies_ghz": np.outer(np.arange(1, 10), [1.0, 2.0]).tolist()}
        bands["frequencies_ghz"][5][1] = 40.0
        spec = {"ref_random_k": 2, "ref_max_step_pair": True}
        chosen = checks.reference_k(bands, (5.0, 18.0), spec,
                                    np.random.default_rng(0))
        assert {0.0, 0.5, 0.625, 1.0}.issubset(chosen)
        assert len(chosen) == 6


class TestRepeatedInput:
    def test_an_operation_counts_once_however_many_children_ran_it(self):
        bad = band_table({(1, 2): 50.0})
        out = checks.repeated([check(bad), check(bad), check(bad)])
        assert (out.attempted, out.failed) == (4, 1)

    def test_an_operation_failed_in_any_child_fails(self):
        out = checks.repeated([check(band_table({(1, 2): 50.0})),
                               check(band_table({(2, 2): 60.0}))])
        assert (out.attempted, out.failed) == (4, 2)

    def test_inputs_add_up_and_keep_their_keys_apart(self):
        total = checks.Outcome()
        for tag in ("cell 0", "cell 1"):
            total.merge(check(band_table({(1, 2): 50.0})), tag)
        assert (total.attempted, total.failed) == (8, 2)
        assert total.notes[0].startswith("cell 0: k=0.5000")

    def test_crashed_child_fails_every_operation_of_its_input(self):
        spec = workloads.make_spec("relaxation_chain", 0)
        result = {"curves": [], "selections": {}, "contours": []}
        for model in spec["models"]:
            result["selections"][model["name"]] = model["true_exponent"]
        for cell in spec["cells"]:
            result["contours"].append(dict(cell["truth_nm"]))
        checked = checks.check_relaxation(spec, result)
        assert checked.failed == 0
        crash = run.crashed(spec, None)
        out = checks.repeated([crash, checked])
        assert out.failed == out.attempted == len(workloads.operation_keys(spec))
        assert not out.correct


class TestRelaxationChecker:
    def spec_and_result(self):
        spec = {"models": [{"name": "bulk", "true_exponent": 1}],
                "cells": [{"truth_nm": {"w": 95.0, "h": 90.0, "r": 17.0, "t": 22.0}}]}
        result = {
            "curves": [{"model": "bulk", "t_k": 4.4, "gamma_up_mhz": 4.0,
                        "gamma_down_mhz": 6.0, "t1_fit_ns": 101.0,
                        "t1_err_ns": 3.0}],
            "selections": {"bulk": 1},
            "contours": [{"w": 95.2, "h": 89.9, "r": 18.5, "t": 22.3}],
        }
        return spec, result

    def test_good_chain_passes(self):
        out = checks.check_relaxation(*self.spec_and_result())
        assert (out.attempted, out.failed) == (5, 0)

    def test_lifetime_off_its_truth_fails(self):
        spec, result = self.spec_and_result()
        result["curves"][0]["t1_fit_ns"] = 120.0
        out = checks.check_relaxation(spec, result)
        assert out.failed == 1

    def test_wrong_exponent_fails(self):
        spec, result = self.spec_and_result()
        result["selections"]["bulk"] = 3
        out = checks.check_relaxation(spec, result)
        assert out.failed == 1
        assert out.values["tempfit.exponent_hits"] == 0

    def test_contour_dimension_off_fails(self):
        spec, result = self.spec_and_result()
        result["contours"][0]["t"] = 24.0
        out = checks.check_relaxation(spec, result)
        assert out.failed == 1


class TestTracer:
    def test_spans_nest_and_self_time_excludes_children(self):
        tracer = Tracer()
        inner = tracer._wrap("x.inner", lambda: sum(range(10000)), None)
        outer = tracer._wrap("x.outer", lambda: [inner() for _ in range(3)], None)
        outer()
        names = [s[0] for s in tracer.spans]
        assert names == ["x.outer", "x.inner", "x.inner", "x.inner"]
        assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
        table = span_table(tracer.spans)
        assert table["x.inner"]["count"] == 3
        children = table["x.inner"]["total"]
        assert table["x.outer"]["self"] == pytest.approx(
            table["x.outer"]["total"] - children)

    def test_missing_function_drops_its_metrics(self):
        gone = metrics.missing_metrics(["elastics.classify_parities"])
        assert set(gone) == {"elastics.classify_s", "elastics.mixed_labels"}


def fake_children(trace: bool) -> list:
    def child(kind, wall, setup, slowness=1.0):
        return run.Child(kind=kind, started=0.0, wall_s=wall, cpu_s=wall,
                         peak_rss_mb=100.0, status=0, setup_s=setup,
                         slowness=slowness)

    children = [child("setup", 0.6, 0.5), child("timed", 20.0, 1.0, 2.0)]
    if trace:
        traced = child("traced", 11.0, 0.5)
        traced.result = {"trace": {
            "spans": [["cli.main", 1.0, 9.0, -1],
                      ["elastics.band_diagram", 1.5, 8.5, 0],
                      ["elastics.solve_reduced", 2.0, 4.0, 1],
                      ["elastics.solve_reduced", 4.0, 7.0, 1]],
            "counters": {"n_dofs_reduced": 1350}, "missing": []}}
        traced.outcome = checks.Outcome(values={"spectrum.band_rel_err": 1e-5})
        children.append(traced)
    return children


def test_child_without_result_makes_the_run_incorrect():
    spec = workloads.make_spec("gap_fine_mesh", 0)
    child = run.Child(kind="timed", started=0.0, wall_s=1.0, cpu_s=1.0,
                      peak_rss_mb=1.0, status=1)
    out = run.crashed(spec, child)
    assert (out.attempted, out.failed, out.correct) == (7, 7, False)


def test_times_leave_out_cpu_waits_and_are_rescaled_to_the_reference_speed():
    spec = workloads.make_spec("relaxation_chain", 0)
    children = fake_children(False)
    timed = children[1]
    timed.wait_s, timed.setup_wait_s = 4.0, 0.2
    values = run.end_to_end(children, spec)
    assert values["wall_s"] == pytest.approx((20.0 - 4.0) / 2.0)
    assert values["wall_raw_s"] == pytest.approx(20.0)
    assert values["setup_s"] == pytest.approx(statistics.median(
        [0.5, (1.0 - 0.2) / 2.0]))


def test_speed_probe_samples_the_cpu_a_process_runs_on():
    cpus = os.sched_getaffinity(0)
    probe = calibrate.SpeedProbe(os.getpid())
    probe.start()
    time.sleep(3 * calibrate.PERIOD_S)
    slowness = probe.stop()
    assert len(probe.samples) >= 2
    assert 0.2 < slowness < 20.0
    assert os.sched_getaffinity(0) == cpus  # only the probe thread moved


def test_cpu_wait_of_this_process_is_read():
    assert calibrate.cpu_wait_s() >= 0.0
    assert calibrate.cpu_wait_s(2**22 + 1) == 0.0  # no such process


def test_band_wall_time_weighs_each_cell_alike():
    children = [run.Child(kind="timed", started=0.0, wall_s=wall, cpu_s=wall,
                          peak_rss_mb=wall, status=0, setup_s=0.5, cell=cell)
                for wall, cell in ((10.0, 0), (20.0, 1), (12.0, 0))]
    values = run.end_to_end(children, workloads.make_spec("bands_dense_k", 0))
    assert values["wall_s"] == pytest.approx(0.5 * (11.0 + 20.0))


class TestMetricNames:
    def benchmark(self):
        return json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_tables_match_benchmark_json(self):
        bench = self.benchmark()
        assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
            == metrics.END_TO_END
        assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
            == {name: spec[:2] for name, spec in metrics.PER_LAYER.items()}
        assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_emitted_end_to_end_names(self, workload):
        spec = workloads.make_spec(workload, 0)
        values = run.end_to_end(fake_children(False), spec)
        emitted = metrics.emit(values, metrics.END_TO_END)
        assert list(emitted) == [m["name"] for m in self.benchmark()["end_to_end"]]
        assert all(v["value"] > 0 for v in emitted.values())

    def test_emitted_per_layer_names(self):
        values, skip = run.per_layer(fake_children(True))
        emitted = metrics.emit(values, metrics.PER_LAYER, skip)
        assert list(emitted) == [m["name"] for m in self.benchmark()["per_layer"]]
        assert emitted["elastics.eigensolve_s"]["value"] == pytest.approx(5.0)
        assert emitted["elastics.band_diagram_self_s"]["value"] == pytest.approx(2.0)
        assert emitted["cli.self_s"]["value"] == pytest.approx(1.0)
        assert emitted["trace.overhead_s"]["value"] == pytest.approx(1.0)
