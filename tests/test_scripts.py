"""Every example script still imports and parses its arguments, and each
one runs end to end on a small input."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_0(script):
    done = run_script(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_pump_probe_demo_recovers_lifetime():
    done = run_script(ROOT / "scripts" / "pump_probe_demo.py", "--noise", "0")
    assert done.returncode == 0, done.stderr
    fitted = float(re.search(r"fitted\s+T1 = ([0-9.]+)", done.stdout).group(1))
    # The noiseless fit is pinned to its known value, 34.67 ns for a true
    # 34 ns: the 5 ns settle window biases every extracted ratio (see
    # ``extract_peak_ratio``), and any drift of the extraction shows here.
    assert abs(fitted - 34.67) <= 0.05


def test_temperature_study_ranks_cubic_first_under_protection():
    done = run_script(ROOT / "scripts" / "temperature_study.py")
    assert done.returncode == 0, done.stderr
    ranking = done.stdout.split("gap-protected crystal: exponent ranking")[1]
    assert ranking.split("\n")[1].split(":")[0].strip() == "T^3"
    assert re.search(r"protected rate at 20\.0 K vs unstructured rate at "
                     r"4\.4 K: [0-9.]+ / [0-9.]+ MHz", done.stdout)


def test_gap_refinement_reports_the_first_rung():
    done = run_script(ROOT / "scripts" / "gap_refinement.py",
                      "--levels", "1", "--n-kpoints", "4")
    assert done.returncode == 0, done.stderr
    assert re.search(r"\(8, 6, 4\)(\s+[0-9.]+){5}", done.stdout), done.stdout


def test_regenerate_golden_writes_only_named_runs(tmp_path, monkeypatch,
                                                  capsys):
    import regenerate_golden

    monkeypatch.setattr(regenerate_golden, "GOLDEN", tmp_path)
    assert regenerate_golden.main([]) == 2
    assert regenerate_golden.main(["fit-t1", "no-such-run"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert regenerate_golden.main(["fit-t1"]) == 0
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*")) == ["fit-t1", "fit-t1/fit_t1.json"]
