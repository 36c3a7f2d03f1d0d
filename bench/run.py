#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hyprelax command line.

Run from the root of a hyprelax checkout::

    python3 bench/run.py --workload euler_plane --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced

Each workload spawns ``hyprelax`` CLI commands one process at a time (a
closed loop with one client) through ``bench/probe.py`` and repeats whole
passes while they fit in ``--seconds``; the first pass always runs.
Every output is checked against the oracles in ``bench/oracles.py``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` one more pass
runs with the per-layer hooks of ``bench/tracing.py`` and the JSON object
holds the per-layer metrics and the tracing overhead instead.  The full
record, with provenance, every sample and every failed operation, is written
to ``.bench_work/records/``.  See ``bench/README.md`` for the workloads and
the metric-to-layer table.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBE = BENCH / "probe.py"
# Relative paths below resolve against ROOT, the working directory of the
# benchmark and of every child it spawns.
WORK = Path(".bench_work")
WORKLOADS = ("euler_plane", "gk_line", "analysis_cli")
# Three-velocity systems drawn per seed for analysis_cli.
THREE_VELOCITY_SYSTEMS = 1
# Setup samples a run workload collects at least, adding setup-only spawns.
SETUP_SAMPLES = 7
# Every child must have ended this long after the run started; the driver of
# the benchmark allows 180 s per run.
RUN_DEADLINE_S = 170.0

RUN_LAYERS = (
    "linalg.matrix_exponential",
    "spectral.FrequencySplitter.init",
    "spectral.FrequencySplitter.decompose",
    "spectral.to_frequency",
    "spectral.to_physical",
    "spectral.lp_norm",
    "spectral.make_initial_data",
    "chapman.exact_group_projection",
    "chapman.compute_parabolic_limit",
    "model.load_system",
    "model.check_condition_B",
    "model.check_condition_D",
    "model.check_condition_S",
    "model.max_wave_speed",
    "harness.ExperimentConfig.from_file",
    "harness.run_experiment",
    "harness.fit_rate",
    "harness.fit_exponential",
    "harness.emit_report",
    "cli.main",
)
# Layers that must record calls in a traced pass of each workload.
EXPECTED_LAYERS = {
    "euler_plane": RUN_LAYERS + ("spectral.evolve_parabolic_psi",),
    "gk_line": RUN_LAYERS
    + ("spectral.evolve_parabolic_phi", "spectral.evolve_parabolic_psi"),
    "analysis_cli": (
        "cli.main",
        "model.load_system",
        "model.check_condition_A",
        "model.check_condition_B",
        "model.check_condition_D",
        "model.check_condition_S",
        "chapman.compute_parabolic_limit",
        "chapman.eigenvalue_sweep",
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """One finished child process."""

    exit_code: int
    spawned: float
    ended: float
    record: dict
    stderr: str

    @property
    def wall(self) -> float:
        return self.ended - self.spawned


def spawn(cli_args: list[str], mode: str, trace: bool, deadline: float) -> Outcome:
    """Run one probe process to its end and collect its record."""
    records = WORK / "probe"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / "record.json"
    log_path = records / "stderr.txt"
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(PROBE), str(record_path), mode, str(int(trace)), "--"]
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        child = subprocess.Popen(
            argv + cli_args, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log
        )
        try:
            exit_code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise BenchError(f"hyprelax {' '.join(cli_args)} passed the run deadline")
        ended = time.monotonic()
    if not record_path.exists():
        raise BenchError(
            f"probe wrote no record for hyprelax {' '.join(cli_args)}: "
            f"{log_path.read_text()[-2000:]}"
        )
    return Outcome(
        exit_code, spawned, ended, json.loads(record_path.read_text()), log_path.read_text()
    )


@dataclass
class Pass:
    """One pass of a workload: every command once, in order."""

    wall: float = 0.0
    setups: list[float] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)
    max_rss_kb: int = 0
    busy: float = 0.0
    attempted: int = 0
    correct: int = 0
    failures: list[dict] = field(default_factory=list)
    layers: dict[str, dict[str, float]] = field(default_factory=dict)

    def add(self, outcome: Outcome, start: float | None) -> None:
        self.wall += outcome.wall
        self.imports.append(outcome.record["import_s"])
        self.max_rss_kb = max(self.max_rss_kb, outcome.record["max_rss_kb"])
        if start is not None:
            self.setups.append(start - outcome.spawned)
            self.busy += outcome.ended - start
        else:
            self.busy += outcome.wall
        for name, totals in (outcome.record["layers"] or {}).items():
            merged = self.layers.setdefault(name, dict.fromkeys(totals, 0))
            for key, value in totals.items():
                merged[key] += value


class RunWorkload:
    """``hyprelax run`` on one config; an op is one measurement step."""

    def __init__(self, name: str, config: Path, inputs: dict[str, str]):
        self.name = name
        self.config = config
        self.inputs = inputs
        self.spec = oracles.run_config_spec(config)
        self.ops = oracles.run_ops(self.spec)
        self.reference = json.loads((BENCH / "reference" / f"{name}.json").read_text())
        self.out = WORK / "out" / name
        self.first_report: bytes | None = None
        self.identity = WORK / "out" / f"{name}.report-sha256.json"

    def cli_args(self) -> list[str]:
        return ["run", "--config", str(self.config), "--out", str(self.out)]

    def run_pass(self, trace: bool, deadline: float) -> Pass:
        report_path = self.out / "report.json"
        report_path.unlink(missing_ok=True)
        outcome = spawn(self.cli_args(), "full", trace, deadline)
        result = Pass()
        result.add(outcome, outcome.record["first_work"])
        report_bytes = report_path.read_bytes() if report_path.exists() else None
        report = json.loads(report_bytes) if report_bytes is not None else None
        whole, per_op = oracles.run_report_failures(
            outcome.exit_code, report, self.spec, self.reference
        )
        if report_bytes is not None:
            whole.extend(self.identity_problems(report_bytes))
        result.attempted = len(self.ops)
        for op in self.ops:
            reason = "; ".join(whole) if whole else per_op.get(op)
            if reason is None:
                result.correct += 1
            else:
                q, index = op
                result.failures.append(
                    {"op": f"q{q} datum at time {index}", "reason": reason, "known": False}
                )
        return result

    def identity_problems(self, report_bytes: bytes) -> list[str]:
        """report.json must be byte-identical across repeats of the same code.

        Within a run the first report is the reference; across runs of one
        checkout the hash is kept under ``.bench_work`` keyed by the source
        tree and the inputs, since a run of euler_plane holds only one pass.
        """
        digest = hashlib.sha256(report_bytes).hexdigest()
        if self.first_report is None:
            self.first_report = report_bytes
        elif report_bytes != self.first_report:
            return ["report.json differs from the first pass of this run"]
        key = source_digest() + "".join(sorted(self.inputs.values()))
        known = json.loads(self.identity.read_text()) if self.identity.exists() else {}
        if known.get(key, digest) != digest:
            return ["report.json differs from an earlier run of the same code"]
        known[key] = digest
        self.identity.write_text(json.dumps(known))
        return []

    def setup_only(self, deadline: float) -> Outcome:
        return spawn(self.cli_args(), "setup", False, deadline)


class AnalysisWorkload:
    """``check``, ``limit`` and ``sweep`` on each system file; an op is one command."""

    name = "analysis_cli"

    def __init__(self, systems: list[dict], inputs: dict[str, str], seed: int):
        self.systems = systems
        self.inputs = inputs
        self.seed = seed
        self.out = WORK / "out" / self.name

    def run_pass(self, trace: bool, deadline: float) -> Pass:
        result = Pass()
        for system in self.systems:
            for command in ("check", "limit", "sweep"):
                out = self.out / Path(system["path"]).stem / command
                shutil.rmtree(out, ignore_errors=True)
                outcome = spawn([command, system["path"], "--out", str(out)], "full", trace, deadline)
                result.add(outcome, outcome.record["main"])
                result.attempted += 1
                if command == "check":
                    reason = oracles.check_failure(outcome.exit_code, out, outcome.stderr)
                elif command == "limit":
                    reason = oracles.limit_failure(outcome.exit_code, out, system["diffusion"])
                else:
                    reason = oracles.sweep_failure(outcome.exit_code, out, system["diffusion"])
                if reason is None:
                    result.correct += 1
                    continue
                result.failures.append(
                    {
                        "op": command,
                        "input": system["path"],
                        "seed": self.seed,
                        "system_index": system.get("index"),
                        "reason": reason,
                        "known": is_known_failure(command, system, reason),
                    }
                )
        return result


def is_known_failure(command: str, system: dict, reason: str) -> bool:
    """The baseline defect: condition A is judged wrong on three-velocity files.

    Without ``R_samples`` the branch tracker either raises
    ``BranchTrackingFailedError`` (exit 1) or reports A failed with a fit
    residual near 0.8.  Such ops are counted as failed, never dropped; only
    other failures make the run incorrect.
    """
    return (
        command == "check"
        and system.get("index") is not None
        and (reason.startswith("condition A failed") or "BranchTrackingFailedError" in reason)
    )


@functools.cache
def source_digest() -> str:
    """sha256 over the paths and bytes of the program's source files."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hyprelax").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_config(workload: str) -> tuple[Path, Path]:
    """The config and system file of a run workload, writing generated ones."""
    if workload == "euler_plane":
        return Path("configs/euler_decay.json"), Path("configs/damped_euler.json")
    system = Path("configs/goldstein_kac.json")
    raw = json.loads(Path("configs/gk_decay.json").read_text())
    config = WORK / "inputs" / "gk_line.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    raw["system"] = os.path.relpath(system, config.parent)
    raw["pairs"] = [[2, 1], [2, 2], ["inf", 1]]
    config.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return config, system


def prepare(workload: str, seed: int):
    """Write the workload's generated inputs and return the workload object."""
    if workload != "analysis_cli":
        config, system = run_config(workload)
        return RunWorkload(workload, config, {str(p): sha256(p) for p in (config, system)})

    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from hyprelax.model import dump_system
    from hyprelax.systems import goldstein_kac_3d

    inputs_dir = WORK / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    euler = Path("configs/damped_euler.json")
    two_speed = Path("configs/goldstein_kac.json")
    systems = [
        {"path": str(euler), "diffusion": [[1.0, 0.0], [0.0, 1.0]]},
        {
            "path": str(two_speed),
            "diffusion": oracles.two_speed_diffusion(json.loads(two_speed.read_text())),
        },
    ]
    rng = np.random.default_rng(seed)
    for index in range(THREE_VELOCITY_SYSTEMS):
        rates = rng.uniform(0.2, 2.0, size=3)
        velocities = rng.normal(size=(3, 3))
        velocities -= velocities.mean(axis=0)
        path = inputs_dir / f"three_velocity_{index}.json"
        dump_system(goldstein_kac_3d(*rates, velocities), path)
        systems.append(
            {
                "path": str(path),
                "index": index,
                "diffusion": oracles.three_velocity_diffusion(
                    rates.tolist(), velocities.tolist()
                ),
            }
        )
    inputs = {system["path"]: sha256(Path(system["path"])) for system in systems}
    return AnalysisWorkload(systems, inputs, seed)


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    stats = {"median": statistics.median(ordered), "n": n, "tail": None}
    if n >= 11:
        stats["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return stats


def blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, if it can be read."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, name, None)
            if getter is not None:
                return int(getter())
    return None


def provenance(workload, seed: int) -> dict:
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError, ValueError):
        top, commit = None, None
    if top is None or Path(top).resolve() != ROOT:
        # Not a git checkout of its own (or inside an unrelated repository).
        commit = None
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "workload_seed": seed,
        "inputs_sha256": workload.inputs,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its full record."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    workload = prepare(name, seed)
    # Untimed warm-up: byte-compiled modules and the page cache are ready.
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import hyprelax.cli"],
        cwd=ROOT,
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    setups: list[float] = []
    imports: list[float] = []

    def setup_only() -> None:
        outcome = workload.setup_only(deadline)
        if outcome.exit_code != 0 or outcome.record["first_work"] is None:
            raise BenchError(f"setup-only run of {name} failed: {outcome.stderr[-2000:]}")
        setups.append(outcome.record["first_work"] - outcome.spawned)
        imports.append(outcome.record["import_s"])

    # Setup-only spawns go before and after the passes, so that the samples
    # of a run spanning one long pass still span the whole run.
    sample_setup = not trace and isinstance(workload, RunWorkload)
    for _ in range(SETUP_SAMPLES // 2 if sample_setup else 0):
        setup_only()
    # Passes fill the window; the first always runs, a later one only when a
    # pass of median length still ends inside the window.
    passes: list[Pass] = []
    window = time.monotonic()
    while not passes or (
        time.monotonic() - window + statistics.median(p.wall for p in passes) <= seconds
    ):
        passes.append(workload.run_pass(False, deadline))
    setups.extend(s for p in passes for s in p.setups)
    imports.extend(s for p in passes for s in p.imports)
    while sample_setup and len(setups) < SETUP_SAMPLES:
        setup_only()

    samples = {
        "wall_s": [p.wall for p in passes],
        "setup_s": setups,
        "import_s": imports,
        "peak_rss_mb": [p.max_rss_kb / 1024.0 for p in passes],
    }
    stats = {key: summary(values) for key, values in samples.items()}
    end_to_end = {key: stats[key]["median"] for key in samples}
    end_to_end["ops_per_s"] = sum(p.correct for p in passes) / sum(p.busy for p in passes)
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(workload, seed),
        "passes": len(passes),
        "stats": stats,
        "samples": samples,
        "end_to_end": end_to_end,
    }
    if trace:
        traced = workload.run_pass(True, deadline)
        zero = silent_layers(name, traced.layers)
        if zero:
            raise BenchError(f"traced pass of {name} recorded no calls into {zero}")
        record["layers"] = traced.layers
        record["traced_wall_s"] = traced.wall
        record["trace_overhead_s"] = traced.wall - stats["wall_s"]["median"]
        passes.append(traced)
    # Every checked op counts, the traced pass's too.
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update(
        attempted=attempted,
        failed=len(failures),
        fail_frac=len(failures) / attempted,
        failures=failures,
        correct=all(f["known"] for f in failures),
        elapsed_s=time.monotonic() - started,
    )
    return record


def silent_layers(workload: str, layers: dict) -> list[str]:
    """Layers expected on ``workload`` that recorded no calls."""
    return [name for name in EXPECTED_LAYERS[workload] if not layers[name]["calls"]]


def layer_metric(record: dict, name: str) -> float:
    if name == "trace.overhead_s":
        return record["trace_overhead_s"]
    prefix, quantity = name.rsplit(".", 1)
    return record["layers"][prefix][quantity]


def report(record: dict, spec: dict) -> dict:
    """Print the human-readable lines and return the contract result."""
    name = record["workload"]
    section = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        if record["trace"]:
            value = layer_metric(record, metric["name"])
        else:
            value = record["end_to_end"][metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        line = f"{name} {metric['name']} = {value:.6g} {metric['unit']}"
        stats = record["stats"].get(metric["name"])
        if stats is not None and not record["trace"]:
            line += f" (median of {stats['n']}"
            if stats["tail"] is not None:
                tail = stats["tail"]
                line += f"; p{tail['percentile']:.0f} {tail['value']:.6g}"
            line += ")"
        print(line)
    print(
        f"{name} fail_frac = {record['fail_frac']:.6g} "
        f"({record['failed']} of {record['attempted']} ops failed)"
    )
    for failure in record["failures"]:
        tag = "known" if failure["known"] else "UNEXPECTED"
        print(f"{name} {tag} failure: {failure['op']} {failure.get('input', '')}: {failure['reason']}")
    if record["trace"]:
        print(
            f"{name} tracing overhead = {record['trace_overhead_s']:.6g} s "
            f"(traced pass {record['traced_wall_s']:.6g} s)"
        )
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    missing = [
        path
        for path in ("BENCHMARK.json", "src/hyprelax/cli.py", "configs/euler_decay.json")
        if not Path(path).exists()
    ]
    if missing:
        print(f"error: not the root of a hyprelax checkout (missing {missing})", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = WORK / "records"
    for name in names:
        try:
            record = measure(name, args.seed, seconds, bool(args.trace))
        except BenchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        records.mkdir(parents=True, exist_ok=True)
        path = records / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        result = report(record, spec)
        print(f"record written to {path}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
