"""Rewrite ``tests/data/golden/<name>/`` for each run named on the command
line, from the CLI runs that ``RUNS`` in ``tests/test_cli.py`` defines, with
the package found on ``PYTHONPATH``:

    PYTHONPATH=src python tests/regenerate_golden.py fit-t1 [NAME ...]

Only the named runs' files are written, so a new or changed run leaves the
other goldens as they are.  Each run's listed artifacts are copied as
written, except that a JSON report loses its ``run_id``: that is a hash of
the request, not a result.
"""

import json
import sys
import tempfile
from pathlib import Path

from phonogap import cli
from test_cli import GOLDEN, RUNS, only_dir


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in RUNS]
    if not names or unknown:
        if unknown:
            print(f"error: unknown run(s) {', '.join(unknown)}", file=sys.stderr)
        print(f"usage: regenerate_golden.py NAME [NAME ...]\n"
              f"runs: {' '.join(RUNS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            argv, artifacts = RUNS[name]
            out = Path(tmp) / name
            if cli.main([*argv, "--out-dir", str(out)]) != 0:
                print(f"error: run {name} failed", file=sys.stderr)
                return 1
            run_dir = only_dir(out, argv[0])
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for artifact in artifacts:
                data = (run_dir / artifact).read_bytes()
                if artifact.endswith(".json"):
                    report = json.loads(data)
                    del report["run_id"]
                    data = (json.dumps(report, indent=2, sort_keys=True)
                            + "\n").encode()
                (GOLDEN / name / artifact).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
