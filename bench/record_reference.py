"""Record the reference series that the run workloads are checked against.

On a checkout whose results are trusted, run::

    python3 bench/record_reference.py

For each run workload this runs ``hyprelax run`` once and keeps the
measurement times and every measured series of its report in
``bench/reference/<workload>.json``.
"""

import json
import os
import subprocess
import sys

import run


def main() -> None:
    os.chdir(run.ROOT)
    for name in ("euler_plane", "gk_line"):
        config, _ = run.run_config(name)
        out = run.WORK / "reference" / name
        subprocess.run(
            [sys.executable, "-m", "hyprelax", "run", "--config", str(config), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": "src"},
            check=True,
        )
        report = json.loads((out / "report.json").read_text())
        reference = {"times": report["times"], "series": report["series"]}
        path = run.BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
