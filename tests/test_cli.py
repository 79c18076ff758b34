import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phonogap import cli
from phonogap.errors import ConfigError
from phonogap.rates import KB_OVER_H_GHZ_PER_K

COARSE = ("--resolution", "8,6,4", "--n-kpoints", "8", "--n-modes", "24")
NANOBEAM = (
    "--structure", "nanobeam", "--resolution", "5,4,4", "--n-kpoints", "12",
    "--n-modes", "14",
)
NANOBEAM_DOS = (*NANOBEAM, "--broadening-ghz", "3")
NANOBEAM_FIG1B = (*NANOBEAM_DOS, "--f-max-ghz", "60", "--window-hi-ghz", "60")

GOLDEN = Path(__file__).parent / "data" / "golden"
#: Committed inputs of the fit runs in ``RUNS``.
FITS = Path(__file__).parent / "data" / "fits"
FIG1B_FILES = ("bands.csv", "dos.csv", "fig1b.gp")
#: CLI runs that several tests read: argv without ``--out-dir``, and the
#: artifacts whose numbers ``tests/data/golden/<name>/`` holds
#: (``tests/regenerate_golden.py`` rewrites them).
RUNS = {
    "gap": (("gap", *COARSE), ("gap.csv", "gap.json")),
    "sweep": (("sweep", *COARSE), ("sweep.csv",)),
    "fig1b": (("fig1b", *COARSE, "--broadening-ghz", "3"), FIG1B_FILES),
    "fig1b-nanobeam": (("fig1b", *NANOBEAM_FIG1B), FIG1B_FILES),
    "dos-nanobeam": (("dos", *NANOBEAM_DOS), ("dos.csv",)),
    "bands-single-k": (
        ("bands", "--resolution", "6,5,4", "--n-kpoints", "1", "--n-modes", "6"),
        ("bands.csv",),
    ),
    "rates": (
        ("rates", "--delta-ghz", "46", "--temp-range", "2:20:4",
         "--chi-rho", "2e-8", "--chi-rho-sq", "1e-12"),
        ("rates.csv",),
    ),
    "pumpprobe": (
        ("pumpprobe", "--t1-ns", "34", "--taus", "0:170:5"), ("pumpprobe.csv",),
    ),
    "pumpprobe-noisy": (
        ("pumpprobe", "--t1-ns", "34", "--taus", "0:170:4", "--noise", "0.02",
         "--seed", "5"),
        ("pumpprobe.csv",),
    ),
    "fit-t1": (
        ("fit-t1", "--input", str(FITS / "recovery.csv")), ("fit_t1.json",),
    ),
    # Noisy and sigma-weighted, so the error estimate and wrss sit well
    # above the 1e-12 absolute floor of ``same_float``.
    "fit-t1-noisy": (
        ("fit-t1", "--input", str(FITS / "recovery_noisy.csv")),
        ("fit_t1.json",),
    ),
    "fit-temp": (
        ("fit-temp", "--input", str(FITS / "rates_linear.csv")),
        ("fit_temp.json", "fit_temp_curves.csv"),
    ),
    "fit-temp-t-max": (
        ("fit-temp", "--input", str(FITS / "rates_t_max.csv"), "--models", "1,3",
         "--t-max", "13"),
        ("fit_temp.json", "fit_temp_curves.csv"),
    ),
    "fit-geom": (
        ("fit-geom", "--manifest", str(FITS / "geom" / "manifest.json")),
        ("fit_geom.csv",),
    ),
}


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def only_dir(root, prefix):
    matches = [p for p in root.iterdir() if p.name.startswith(prefix + "-")]
    assert len(matches) == 1, matches
    return matches[0]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Artifact directory of a ``RUNS`` entry, run at most once per module."""
    dirs = {}

    def run(name):
        if name not in dirs:
            argv = RUNS[name][0]
            out = tmp_path_factory.mktemp(name)
            assert cli.main([*argv, "--out-dir", str(out)]) == 0
            dirs[name] = only_dir(out, argv[0])
        return dirs[name]

    return run


class TestConfig:
    def test_round_trip_is_identity(self):
        config = cli.RunConfig(w_nm=91.0, resolution=(6, 5, 4), n_modes=7)
        again = cli.RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again == config

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"w_nm": 90.0, "t_nm": 20.0}))
        config = cli.load_config(str(path), {"t_nm": 25.0, "w_nm": None})
        assert config.w_nm == 90.0
        assert config.t_nm == 25.0

    def test_integer_value_of_float_field_keeps_run_id(self):
        as_int = cli.RunConfig.from_dict({"w_nm": 90, "sweep_values_nm": [20]})
        as_float = cli.RunConfig.from_dict({"w_nm": 90.0, "sweep_values_nm": [20.0]})
        assert as_int == as_float
        assert cli.run_id(as_int.to_dict()) == cli.run_id(as_float.to_dict())
        assert type(as_int.w_nm) is float

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.RunConfig.from_dict({"w_um": 0.09})
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.RunConfig.from_dict({"threads": 2})

    def test_run_id_is_stable_and_sensitive(self):
        request = cli._band_request("gap", cli.RunConfig())
        a = cli.run_id(request)
        assert a == cli.run_id(dict(request))
        assert len(a) == 10
        assert int(a, 16) >= 0
        assert a != cli.run_id({**request, "w_nm": 95.8})
        assert a == cli.run_id({**request, "out_dir": "elsewhere"})

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError, match="structure"):
            cli.RunConfig(structure="slab").validate()
        with pytest.raises(ConfigError, match="sweep_param"):
            cli.RunConfig(sweep_param="q").validate()
        with pytest.raises(ConfigError, match="window"):
            cli.RunConfig(window_lo_ghz=50.0, window_hi_ghz=40.0).validate()

    def test_out_dir_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env-out"))
        request = cli._band_request("bands", cli.RunConfig())
        name = f"bands-{cli.run_id(request)}"
        cli._write_artifacts("bands", request, {})
        assert (tmp_path / "env-out" / name / "config.json").is_file()
        cli._write_artifacts("bands", {**request, "out_dir": "x"}, {})
        assert (tmp_path / "x" / name / "config.json").is_file()


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        text = capsys.readouterr().out
        for name in cli._COMMANDS:
            assert name in text
        assert cli.main(["rates", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--w-nm" not in text and "--config" not in text
        assert cli.main(["gap", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--w-nm" in text and "--config" in text
        assert "--reference-width-ghz" in text and "--broadening-ghz" not in text
        assert cli.main(["bands", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--w-nm" in text and "--f-max-ghz" not in text
        assert cli.main(["sweep", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--sweep-values-nm" in text and "--structure" not in text

    def test_field_the_command_does_not_read_exits_2(self, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path)]
        assert cli.main(["bands", "--broadening-ghz", "1", *out]) == 2
        path = tmp_path / "broadened.json"
        path.write_text(json.dumps({"broadening_ghz": 1.0}))
        assert cli.main(["bands", "--config", str(path), *out]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not list(tmp_path.glob("bands-*"))

    @pytest.mark.parametrize("config", [
        {"resolution": 10}, {"resolution": ["a", 8, 4]}, {"n_kpoints": "48"},
        {"n_modes": 2.5}, {"w_nm": None},
    ], ids=["resolution-scalar", "resolution-string", "n_kpoints-string",
            "n_modes-float", "w_nm-null"])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(config))
        code = cli.main(["bands", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("bands-*"))

    def test_invalid_geometry_exits_2(self, tmp_path, capsys):
        code = cli.main(["bands", "--w-nm", "-4", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("bands-*"))

    @pytest.mark.parametrize("command", ["dos", "fig1b"])
    def test_documented_defaults_run(self, tmp_path, command):
        assert cli.main([command, "--out-dir", str(tmp_path)]) == 0

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = cli.main(["gap", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_malformed_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["gap", "--config", str(path)]) == 2

    def test_seed_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps({"seed": 0}))
        assert cli.main(["gap", "--config", str(path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = [
            line
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.splitlines()
            if line.startswith("phonogap ")
        ]
        assert lines
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


class TestBands:
    def test_single_k_point_csv(self, cli_run):
        header, rows = read_csv(cli_run("bands-single-k") / "bands.csv")
        assert header == [
            "k_reduced", "band_index", "frequency_GHz", "parity_y", "parity_z"
        ]
        assert len(rows) == 6
        assert {r[0] for r in rows} == {"0"}
        assert [int(r[1]) for r in rows] == list(range(6))
        freqs = [float(r[2]) for r in rows]
        assert freqs == sorted(freqs)
        labels = {r[3] for r in rows} | {r[4] for r in rows}
        assert labels <= {"even", "odd"}

    def test_csv_independent_of_blas_threads(self, tmp_path):
        # The four k = 0 rigid modes are numerical zeros: they print 0 and
        # list in sector order, whatever rounding the thread count brings.
        src = Path(cli.__file__).resolve().parents[1]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(src), *filter(None, [env.get("PYTHONPATH")])]
            )
            out = tmp_path / threads
            done = subprocess.run(
                [sys.executable, "-m", "phonogap", *RUNS["bands-single-k"][0],
                 "--out-dir", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append((only_dir(out, "bands") / "bands.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rows = outputs[0].decode().splitlines()[1:5]
        assert [row.split(",")[2] for row in rows] == ["0"] * 4


class TestDos:
    def test_nanobeam_dos_csv(self, cli_run):
        header, rows = read_csv(cli_run("dos-nanobeam") / "dos.csv")
        assert header == ["frequency_GHz", "dos_per_GHz"]
        dos = np.array([float(r[1]) for r in rows])
        assert np.all(dos >= 0)
        assert dos.max() > 0

    def test_undersampled_k_path_exits_3(self, tmp_path, capsys):
        code = cli.main([
            "dos", "--resolution", "8,6,4", "--n-kpoints", "3",
            "--n-modes", "24", "--out-dir", str(tmp_path),
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("dos-*"))


class TestGap:
    def test_report_contents(self, cli_run):
        gap_dir = cli_run("gap")
        report = json.loads((gap_dir / "gap.json").read_text())
        gap = report["gap"]
        assert gap is not None
        assert math.isclose(
            gap["center_ghz"], 0.5 * (gap["f_lo_ghz"] + gap["f_hi_ghz"]),
            rel_tol=1e-12,
        )
        assert report["n_gaps_in_window"] >= 1
        assert report["reference_center_ghz"] == 59.1
        assert report["reference_width_ghz"] == 17.3
        comp = report["comparison"]
        assert comp["center_within_tolerance"] is True
        assert comp["width_within_tolerance"] is True
        assert comp["center_deviation_pct"] < 15.0

    def test_artifacts_namespaced_by_run_id(self, cli_run):
        gap_dir = cli_run("gap")
        report = json.loads((gap_dir / "gap.json").read_text())
        assert gap_dir.name == f"gap-{report['run_id']}"
        request = json.loads((gap_dir / "config.json").read_text())
        assert set(request) == set(cli.BAND_COMMANDS["gap"].fields)
        assert cli.run_id(request) == report["run_id"]
        assert cli.RunConfig.from_dict(request).resolution == (8, 6, 4)

    def test_gap_csv_schema(self, cli_run):
        gap_dir = cli_run("gap")
        header, rows = read_csv(gap_dir / "gap.csv")
        assert header == ["param_value_nm", "center_GHz", "width_GHz"]
        assert len(rows) == 1
        assert rows[0][0] == "22.1"

    def test_sweep_middle_row_matches_gap_run_exactly(self, cli_run):
        gap_dir, sweep_dir = cli_run("gap"), cli_run("sweep")
        gap_line = (gap_dir / "gap.csv").read_text().splitlines()[1]
        sweep_lines = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert sweep_lines[2] == gap_line

    def test_sweep_rows_sorted_by_value(self, cli_run):
        sweep_dir = cli_run("sweep")
        header, rows = read_csv(sweep_dir / "sweep.csv")
        assert header == ["param_value_nm", "center_GHz", "width_GHz"]
        values = [float(r[0]) for r in rows]
        assert values == sorted(values) == [19.1, 22.1, 25.1]

    @pytest.mark.parametrize("flag,value", [
        ("--reference-center-ghz", "0"), ("--reference-width-ghz", "-1"),
        ("--center-tolerance-pct", "-5"), ("--width-tolerance-pct", "-1"),
    ])
    def test_bad_reference_exits_2(self, tmp_path, capsys, flag, value):
        code = cli.main(["gap", *COARSE, flag, value, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("gap-*"))

    def test_config_has_no_seed(self, cli_run):
        gap_dir = cli_run("gap")
        assert "seed" not in json.loads((gap_dir / "config.json").read_text())

    def test_rerun_is_byte_identical(self, cli_run, tmp_path):
        gap_dir = cli_run("gap")
        assert cli.main(["gap", *COARSE, "--out-dir", str(tmp_path)]) == 0
        again = only_dir(tmp_path, "gap")
        assert again.name == gap_dir.name
        # config.json records the differing out_dir; the numeric artifacts
        # must match byte for byte.
        for name in ("gap.csv", "gap.json"):
            assert (again / name).read_bytes() == (gap_dir / name).read_bytes()


class TestFig1b:
    def test_bundle_shades_detected_gap(self, cli_run):
        gap_dir = cli_run("gap")
        bundle = cli_run("fig1b")
        assert (bundle / "bands.csv").exists()
        assert (bundle / "dos.csv").exists()
        script = (bundle / "fig1b.gp").read_text()
        shading = [l for l in script.splitlines() if "set object" in l]
        assert len(shading) == 1
        tokens = shading[0].split()
        lo = float(tokens[tokens.index("first") + 1])
        hi = float(tokens[len(tokens) - 1 - tokens[::-1].index("first") + 1])
        report = json.loads((gap_dir / "gap.json").read_text())
        assert abs(lo - report["gap"]["f_lo_ghz"]) < 1e-8
        assert abs(hi - report["gap"]["f_hi_ghz"]) < 1e-8

    def test_nanobeam_bundle_has_no_shading(self, cli_run):
        script = (cli_run("fig1b-nanobeam") / "fig1b.gp").read_text()
        assert "set object" not in script

    def test_rerun_is_byte_identical(self, cli_run, tmp_path):
        dir_a = cli_run("fig1b-nanobeam")
        assert cli.main(["fig1b", *NANOBEAM_FIG1B, "--out-dir", str(tmp_path)]) == 0
        dir_b = only_dir(tmp_path, "fig1b")
        assert dir_b.name == dir_a.name
        for name in FIG1B_FILES:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def same_frequency(value, golden):
    """The rule of ``relative_errors`` in ``test_elastics.py``: frequencies
    agree to 1e-9 on the eigenvalues, |f^2 - g^2| <= 2e-9 max(g, 1 GHz)^2,
    which is 1e-9 relative at or above 1 GHz; two modes under 1 MHz are
    both numerical zeros.  The k = 0 rigid modes are zero up to the square
    root of eigenvalue round-off, and read 0 to 2.5e-5 GHz depending on the
    BLAS thread count."""
    if math.isnan(golden):
        return math.isnan(value)
    if value < 1e-3 and golden < 1e-3:
        return True
    return abs(value**2 - golden**2) <= 2e-9 * max(golden, 1.0) ** 2


def same_float(value, golden):
    """The fits' rule: 1e-9 relative or 1e-12 absolute."""
    return math.isclose(value, golden, rel_tol=1e-9, abs_tol=1e-12)


def assert_csv_matches(actual, golden):
    header, rows = read_csv(actual)
    golden_header, golden_rows = read_csv(golden)
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    for col, name in enumerate(header):
        got = [row[col] for row in rows]
        want = [row[col] for row in golden_rows]
        if name == "dos_per_GHz":
            # Not a frequency: a 1e-9 relative shift of every band moves the
            # broadened curve by far less than 1e-6 of its peak.
            peak = max(float(v) for v in want)
            assert np.allclose(np.array(got, float), np.array(want, float),
                               rtol=0, atol=1e-6 * peak), name
        elif name.endswith("_GHz"):
            bad = [i for i, (g, w) in enumerate(zip(got, want))
                   if not same_frequency(float(g), float(w))]
            assert not bad, (name, bad[:5])
        elif name.endswith("_MHz") or name == "t1_ns":
            np.testing.assert_allclose(np.array(got, float), np.array(want, float),
                                       rtol=1e-12, atol=0, err_msg=name)
        elif name.endswith("_nm"):
            bad = [i for i, (g, w) in enumerate(zip(got, want))
                   if not same_float(float(g), float(w))]
            assert not bad, (name, bad[:5])
        elif name == "ratio":
            np.testing.assert_allclose(np.array(got, float), np.array(want, float),
                                       rtol=0, atol=1e-12, err_msg=name)
        elif not name.startswith("parity"):
            assert got == want, name
    if "parity_y" in header:
        assert_parities_match(rows, golden_rows)


def assert_parities_match(rows, golden_rows):
    """Per k point, bands whose golden frequencies agree (same rule as the
    frequencies) form a cluster, and each cluster carries the same
    multiset of (parity_y, parity_z) labels."""
    def clusters(table):
        out, current = [], [table[0]]
        for prev, row in zip(table, table[1:]):
            if row[0] == prev[0] and same_frequency(float(row[2]), float(prev[2])):
                current.append(row)
            else:
                out.append(current)
                current = [row]
        return out + [current]

    golden_clusters = clusters(golden_rows)
    start = 0
    for cluster in golden_clusters:
        mine = rows[start:start + len(cluster)]
        start += len(cluster)
        assert sorted(r[3:5] for r in mine) == sorted(r[3:5] for r in cluster), (
            cluster[0][:2]
        )


def assert_json_matches(actual, golden):
    if isinstance(golden, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(golden)
        for key in golden:
            if key.endswith("_ghz") and isinstance(golden[key], float):
                assert same_frequency(actual[key], golden[key]), key
            elif key.endswith("_pct") and isinstance(golden[key], float):
                assert abs(actual[key] - golden[key]) <= 1e-6, key
            else:
                assert_json_matches(actual[key], golden[key])
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden)
        for got, want in zip(actual, golden):
            assert_json_matches(got, want)
    elif isinstance(golden, float):
        assert type(actual) is float and same_float(actual, golden)
    else:
        assert type(actual) is type(golden) and actual == golden


NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[-+]?\d+)?")


@pytest.mark.parametrize("name,artifact", [
    (name, artifact) for name, (_, artifacts) in RUNS.items()
    for artifact in artifacts
])
def test_matches_golden(cli_run, name, artifact):
    """Numeric artifacts agree with the ones in ``tests/data/golden``."""
    actual = cli_run(name) / artifact
    golden = GOLDEN / name / artifact
    if artifact.endswith(".csv"):
        assert_csv_matches(actual, golden)
    elif artifact.endswith(".json"):
        report = json.loads(actual.read_text())
        del report["run_id"]
        assert_json_matches(report, json.loads(golden.read_text()))
    else:
        text, want = actual.read_text(), golden.read_text()
        assert NUMBER.sub("#", text) == NUMBER.sub("#", want)
        for got, expected in zip(NUMBER.findall(text), NUMBER.findall(want)):
            assert same_frequency(float(got), float(expected)), expected


class TestRates:
    def test_csv_schema_and_detailed_balance(self, cli_run):
        header, rows = read_csv(cli_run("rates") / "rates.csv")
        assert header == [
            "temperature_K", "gamma_up_MHz", "gamma_down_MHz",
            "gamma_raman_MHz", "t1_ns",
        ]
        assert len(rows) == 4
        t1s = []
        for row in rows:
            temp, up, down, raman, t1 = map(float, row)
            boltz = math.exp(46.0 / (KB_OVER_H_GHZ_PER_K * temp))
            assert math.isclose(down / up, boltz, rel_tol=1e-6)
            assert raman > 0
            t1s.append(t1)
        assert t1s == sorted(t1s, reverse=True)

    def test_own_flags_name_the_run(self, tmp_path):
        for delta in ("46", "80"):
            assert cli.main([
                "rates", "--delta-ghz", delta, "--temp-k", "4",
                "--out-dir", str(tmp_path),
            ]) == 0
        dirs = sorted(tmp_path.glob("rates-*"))
        assert len(dirs) == 2
        deltas = {json.loads((d / "config.json").read_text())["delta_ghz"]
                  for d in dirs}
        assert deltas == {46.0, 80.0}

    def test_geometry_flag_exits_2(self, tmp_path):
        assert cli.main([
            "rates", "--delta-ghz", "46", "--temp-k", "4", "--w-nm", "100",
            "--out-dir", str(tmp_path),
        ]) == 2

    def test_requires_exactly_one_temperature_spec(self, tmp_path, capsys):
        base = ["rates", "--delta-ghz", "46", "--out-dir", str(tmp_path)]
        assert cli.main(base) == 2
        assert cli.main(
            base + ["--temp-k", "4", "--temp-range", "2:20:4"]
        ) == 2


class TestPumpProbe:
    def test_curve_follows_exponential_recovery(self, cli_run):
        header, rows = read_csv(cli_run("pumpprobe") / "pumpprobe.csv")
        assert header == ["tau_ns", "ratio"]
        for row in rows:
            tau, ratio = map(float, row)
            assert abs(ratio - (1.0 - math.exp(-tau / 34.0))) < 0.05

    def test_seeded_noise_is_reproducible(self, cli_run, tmp_path):
        argv = RUNS["pumpprobe-noisy"][0]
        assert argv[-2:] == ("--seed", "5")
        outs = [(cli_run("pumpprobe-noisy") / "pumpprobe.csv").read_bytes()]
        for sub, seed in (("b", "5"), ("c", "6")):
            out = tmp_path / sub
            assert cli.main(
                [*argv[:-1], seed, "--out-dir", str(out)]
            ) == 0
            outs.append(
                (only_dir(out, "pumpprobe") / "pumpprobe.csv").read_bytes()
            )
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_own_flags_name_the_run(self, tmp_path):
        for t1_ns, seed in (("34", "5"), ("34", "6"), ("50", "6")):
            assert cli.main([
                "pumpprobe", "--t1-ns", t1_ns, "--taus", "0:170:4",
                "--noise", "0.02", "--seed", seed, "--out-dir", str(tmp_path),
            ]) == 0
        assert len(list(tmp_path.glob("pumpprobe-*"))) == 3

    def test_trace_dump(self, tmp_path):
        code = cli.main([
            "pumpprobe", "--t1-ns", "34", "--taus", "40",
            "--dump-trace-ns", "40", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        header, rows = read_csv(only_dir(tmp_path, "pumpprobe") / "trace.csv")
        assert header == ["time_ns", "signal"]
        times = np.array([float(r[0]) for r in rows])
        signal = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(times) > 0)
        assert np.all(signal >= 0)
        assert signal.max() > 0

    @pytest.mark.parametrize("flag,value", [("--noise", "nan"),
                                            ("--noise", "inf"),
                                            ("--window-ns", "nan")])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, flag, value):
        assert cli.main([
            "pumpprobe", "--t1-ns", "34", "--taus", "0:170:3", flag, value,
            "--out-dir", str(tmp_path),
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value", [("--pulse-width-ns", "20"),
                                            ("--window-ns", "200")])
    def test_pulses_too_short_for_window_exit_2(self, tmp_path, capsys,
                                                flag, value):
        # A configuration error, not a numerical failure (exit 3).
        assert cli.main([
            "pumpprobe", "--t1-ns", "34", flag, value,
            "--out-dir", str(tmp_path),
        ]) == 2
        assert "too short for the chosen window" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_conflicting_rate_specs_exit_2(self, tmp_path):
        assert cli.main([
            "pumpprobe", "--t1-ns", "34", "--gamma-up-mhz", "10",
            "--out-dir", str(tmp_path),
        ]) == 2
        assert cli.main([
            "pumpprobe", "--gamma-up-mhz", "10", "--out-dir", str(tmp_path),
        ]) == 2


def write_recovery_csv(path, t1_ns=100.0):
    taus = np.linspace(5, 400, 12)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau_ns", "ratio"])
        for tau in taus:
            writer.writerow([tau, 1.0 - math.exp(-tau / t1_ns)])


class TestFitT1:
    def test_noiseless_roundtrip(self, cli_run):
        # The input is write_recovery_csv's default curve, T1 = 100 ns.
        report = json.loads((cli_run("fit-t1") / "fit_t1.json").read_text())
        assert math.isclose(report["t1_ns"], 100.0, rel_tol=1e-6)
        assert report["n_points"] == 12
        assert report["dof"] == 11
        assert report["wrss"] < 1e-15

    def test_run_id_follows_file_contents_not_path(self, tmp_path):
        src = tmp_path / "rec.csv"
        copy = tmp_path / "copy.csv"
        ids = []
        for t1_ns, path in ((100.0, src), (80.0, src), (80.0, copy)):
            write_recovery_csv(path, t1_ns)
            out = tmp_path / f"out{len(ids)}"
            assert cli.main([
                "fit-t1", "--input", str(path), "--out-dir", str(out),
            ]) == 0
            ids.append(only_dir(out, "fit-t1").name)
        assert ids[0] != ids[1]
        assert ids[1] == ids[2]

    def test_missing_column_exits_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("time,value\n1,0.5\n")
        assert cli.main([
            "fit-t1", "--input", str(src), "--out-dir", str(tmp_path),
        ]) == 2

    @pytest.mark.parametrize("column,text", [
        ("ratio", "tau_ns,ratio\n10,0.2\n20,nan\n30,0.6\n"),
        ("tau_ns", "tau_ns,ratio\n10,0.2\ninf,0.4\n30,0.6\n"),
    ], ids=["nan-ratio", "inf-tau"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, column, text):
        src = tmp_path / "nonfinite.csv"
        src.write_text(text)
        assert cli.main([
            "fit-t1", "--input", str(src), "--out-dir", str(tmp_path),
        ]) == 2
        assert f"non-finite value in {column}" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit-t1-*"))

    def test_degenerate_data_exits_3(self, tmp_path):
        src = tmp_path / "flat.csv"
        src.write_text("tau_ns,ratio\n10,0\n20,0\n30,0\n")
        assert cli.main([
            "fit-t1", "--input", str(src), "--out-dir", str(tmp_path),
        ]) == 3


def write_rate_csv(path, temps, rates, sigmas):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["temperature_K", "rate_MHz", "sigma_MHz"])
        writer.writerows(zip(temps, rates, sigmas))


class TestFitTemp:
    def test_linear_data_ranks_linear_first(self, cli_run):
        # The input is 1.47 + 0.68 T MHz at 10 points over 4.4-30 K.
        out = cli_run("fit-temp")
        report = json.loads((out / "fit_temp.json").read_text())
        assert report["best_exponent"] == 1
        assert len(report["models"]) == 4
        assert report["models"][0]["wrss"] <= report["models"][1]["wrss"]
        header, rows = read_csv(out / "fit_temp_curves.csv")
        assert header[0] == "temperature_K"
        assert header[1] == "rate_p1_MHz"
        assert len(header) == 5
        assert len(rows) == 200

    def test_t_max_isolates_low_temperature_regime(self, cli_run):
        # The input is -0.35 + 0.15 T MHz below 13 K and 0.52 + 6.3e-4 T^3
        # above, at 12 points over 4.4-26 K with 0.02 MHz noise.
        report = json.loads(
            (cli_run("fit-temp-t-max") / "fit_temp.json").read_text()
        )
        assert report["best_exponent"] == 1
        assert report["n_points"] == 5
        best = report["models"][0]
        assert abs(best["b_mhz_per_k_pow"] - 0.15) < 0.03

    def test_bad_model_list_exits_2(self, tmp_path):
        temps = np.linspace(4.4, 30, 5)
        src = tmp_path / "rates.csv"
        write_rate_csv(src, temps, 1 + temps, np.ones(5))
        base = ["fit-temp", "--input", str(src), "--out-dir", str(tmp_path)]
        assert cli.main(base + ["--models", "1,x"]) == 2
        assert cli.main(base + ["--models", "2"]) == 2


def ellipse_contour(path, semi_x, semi_y, n=40):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x_nm", "y_nm"])
        writer.writerows(zip(semi_x * np.cos(theta), semi_y * np.sin(theta)))


def arc_contour(path, radius, n=15):
    theta = np.linspace(0, np.pi / 2, n)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x_nm", "y_nm"])
        writer.writerows(zip(radius * np.cos(theta), radius * np.sin(theta)))


def tether_contours(dir_path, width):
    x = np.linspace(-30, 30, 21)
    upper = width / 2 + 0.05 * x**2 / (1 + np.abs(x) / 40.0)
    for name, values in (("upper.csv", upper), ("lower.csv", -upper)):
        with open(dir_path / name, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x_nm", "y_nm"])
            writer.writerows(zip(x, values))


class TestFitGeom:
    def make_manifest(self, tmp_path, tether_order=("upper", "lower")):
        entries = []
        # The second block is taller than wide, so its fitted long axis is
        # the y-axis and the CLI has to unswap the reported diameters.
        for i, (sx, sy) in enumerate([(47.85, 44.95), (45.5, 47.0)]):
            ellipse_contour(tmp_path / f"block{i}.csv", sx, sy)
            entries.append({"path": f"block{i}.csv", "role": "block"})
        arc_contour(tmp_path / "corner.csv", 16.9)
        entries.append({"path": "corner.csv", "role": "corner"})
        tether_contours(tmp_path, 22.1)
        for name in tether_order:
            entries.append({"path": f"{name}.csv", "role": "tether-edge"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"contours": entries}))
        return manifest

    def test_recovers_parameters_from_exact_contours(self, cli_run):
        # The input is make_manifest's, edges listed upper first.
        header, rows = read_csv(cli_run("fit-geom") / "fit_geom.csv")
        assert header == ["parameter", "average_nm", "sd_nm"]
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        assert set(table) == {"w", "h", "r", "t"}
        assert math.isclose(table["w"][0], 47.85 + 45.5, rel_tol=1e-9)
        assert math.isclose(table["h"][0], 44.95 + 47.0, rel_tol=1e-9)
        assert math.isclose(table["r"][0], 16.9, rel_tol=1e-9)
        assert math.isclose(table["t"][0], 22.1, rel_tol=1e-6)
        assert math.isclose(table["w"][1], abs(95.7 - 91.0) / math.sqrt(2),
                            rel_tol=1e-6)

    def test_edge_order_does_not_matter(self, tmp_path):
        manifest = self.make_manifest(tmp_path, tether_order=("lower", "upper"))
        assert cli.main([
            "fit-geom", "--manifest", str(manifest), "--out-dir", str(tmp_path),
        ]) == 0
        _, rows = read_csv(only_dir(tmp_path, "fit-geom") / "fit_geom.csv")
        table = {r[0]: float(r[1]) for r in rows}
        assert math.isclose(table["t"], 22.1, rel_tol=1e-6)

    def test_edited_contour_changes_run_id(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        args = ["fit-geom", "--manifest", str(manifest), "--out-dir",
                str(tmp_path)]
        assert cli.main(args) == 0
        arc_contour(tmp_path / "corner.csv", 17.2)
        assert cli.main(args) == 0
        assert len(list(tmp_path.glob("fit-geom-*"))) == 2

    def test_odd_tether_count_exits_2(self, tmp_path, capsys):
        entries = [{"path": "upper.csv", "role": "tether-edge"}]
        tether_contours(tmp_path, 22.1)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"contours": entries}))
        assert cli.main([
            "fit-geom", "--manifest", str(manifest), "--out-dir", str(tmp_path),
        ]) == 2
        assert "pairs" in capsys.readouterr().err

    def test_unknown_role_exits_2(self, tmp_path):
        ellipse_contour(tmp_path / "c.csv", 10, 9)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"contours": [{"path": "c.csv", "role": "hole"}]})
        )
        assert cli.main([
            "fit-geom", "--manifest", str(manifest), "--out-dir", str(tmp_path),
        ]) == 2

    @pytest.mark.parametrize("entry", ["a.csv", ["a.csv", "block"],
                                       {"path": 5, "role": "block"}])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, entry):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"contours": [entry]}))
        assert cli.main([
            "fit-geom", "--manifest", str(manifest), "--out-dir", str(tmp_path),
        ]) == 2
        assert "each contour needs a path and a role" in capsys.readouterr().err

    def test_missing_contour_file_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"contours": [{"path": "ghost.csv", "role": "block"}]})
        )
        assert cli.main([
            "fit-geom", "--manifest", str(manifest), "--out-dir", str(tmp_path),
        ]) == 2
