"""Command-line front end.

Subcommands: ``check`` (structural conditions), ``limit`` (drift and
diffusion of the parabolic limit), ``sweep`` (tracked eigenvalues of the
symbol along a ray), each on a system file; ``run`` (decay experiment from
``--config``, whose ``system`` resolves against the config's directory);
``report`` (re-serialize an existing report).  Exit codes: 0 success, 1
rate-check failure, 2 condition failure, 3 usage, configuration or input
error (including a refused cutoff, a failed spectral audit or a
linear-algebra failure on the input).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

# One OpenBLAS thread, unless the caller chose a count.  OpenBLAS reads this
# when numpy first loads it, so it is set before the first numpy import.  A
# CLI process is short and its arrays are small stacks or einsum products, so
# a second thread costs start-up (about half of numpy's import time) and saves
# nothing.  Only this entry module sets it: a library import leaves its
# caller's environment alone.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .chapman import (
    ConditionViolatedError,
    GroupNotSeparatedError,
    compute_parabolic_limit,
    eigenvalue_sweep,
)
from .errors import (
    ConfigurationError,
    HarnessError,
    IoFailureError,
    SpectralError,
    WrapAroundGuardError,
)
from .linalg import LinalgError
from .model import SystemFileError, check_all_conditions, load_json, load_system

# Everything imported so far lives until the process exits.  Moved to the
# permanent generation, it is neither traversed by later collections nor
# torn down at exit, which saves a CLI process about 14 ms on the way out.
# Only this entry module freezes: a library import must not decide which of
# its caller's objects are never collected.
gc.freeze()

__all__ = ["main"]

PASS_EXIT = 0
RATE_EXIT = 1
CONDITION_EXIT = 2
CONFIG_EXIT = 3

# The exit code of each error a command may raise.  The first type an error
# is an instance of decides, so the harness's own errors come before
# HarnessError.
_EXITS = {
    ConfigurationError: CONFIG_EXIT,
    SystemFileError: CONFIG_EXIT,
    WrapAroundGuardError: CONFIG_EXIT,
    IoFailureError: CONFIG_EXIT,
    SpectralError: CONFIG_EXIT,
    GroupNotSeparatedError: CONFIG_EXIT,
    LinalgError: CONFIG_EXIT,
    np.linalg.LinAlgError: CONFIG_EXIT,
    ConditionViolatedError: CONDITION_EXIT,
    HarnessError: RATE_EXIT,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 3), not exit 2."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, default=Path("."), help="output directory")

    parser = _Parser(
        prog="hyprelax",
        description="Structural checks, parabolic limits, and decay experiments "
        "for partially dissipative hyperbolic systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", parents=[output], help="verify structural conditions of a system"
    )
    check.add_argument("system", type=Path, help="system file")

    limit = commands.add_parser(
        "limit", parents=[output], help="compute the parabolic limit coefficients"
    )
    limit.add_argument("system", type=Path, help="system file")

    sweep = commands.add_parser(
        "sweep", parents=[output], help="sweep symbol eigenvalues along a ray"
    )
    sweep.add_argument("system", type=Path, help="system file")
    sweep.add_argument(
        "--direction", default=None, help="comma-separated ray direction (default first axis)"
    )
    sweep.add_argument("--kmin", type=float, default=1e-2, help="smallest modulus")
    sweep.add_argument("--kmax", type=float, default=1e2, help="largest modulus")
    sweep.add_argument("--count", type=int, default=200, help="number of moduli")
    sweep.add_argument(
        "--linear", action="store_true", help="space moduli linearly instead of by log"
    )

    run = commands.add_parser(
        "run", parents=[output], help="run a decay experiment from a config file"
    )
    run.add_argument("--config", type=Path, required=True, help="experiment config file")

    report = commands.add_parser(
        "report", parents=[output], help="re-serialize an existing report"
    )
    report.add_argument("report", type=Path, help="existing report.json")
    return parser


def _write_output(out: Path, name: str, text: str) -> Path:
    """Write ``text`` to ``out / name``, creating ``out`` if needed."""
    path = Path(out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as error:
        raise IoFailureError(f"cannot write {path}: {error}") from error
    return path


def _cmd_check(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    reports = check_all_conditions(system)
    payload = {}
    all_passed = True
    for name, report in sorted(reports.items()):
        verdict = {True: "pass", False: "FAIL", None: "not decided"}[report.passed]
        print(f"condition {name}: {verdict} ({report.summary})")
        payload[name] = {"passed": report.passed, "summary": report.summary}
        all_passed = all_passed and report.passed is not False
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_output(args.out, "conditions.json", text)
    return PASS_EXIT if all_passed else CONDITION_EXIT


def _cmd_limit(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    limit = compute_parabolic_limit(system)
    print(f"drift c = {limit.drift.tolist()}")
    print(f"diffusion D = {limit.diffusion.tolist()}")
    print(f"spectral gap = {limit.gap:.6g}")
    payload = {
        "drift": limit.drift.tolist(),
        "diffusion": limit.diffusion.tolist(),
        "gap": limit.gap,
        "projection": limit.projection.tolist(),
        "reduced": limit.reduced.tolist(),
        "corrections": [p.tolist() for p in limit.corrections],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_output(args.out, "limit.json", text)
    return PASS_EXIT


def _cmd_sweep(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    if args.direction is None:
        direction = np.eye(system.dimension)[0]
    else:
        try:
            direction = np.array([float(part) for part in args.direction.split(",")])
        except ValueError as error:
            raise ConfigurationError(
                f"direction must be comma-separated numbers, got {args.direction!r}"
            ) from error
        if direction.shape != (system.dimension,):
            raise ConfigurationError(
                f"direction needs {system.dimension} components, got {direction.size}"
            )
        norm = np.linalg.norm(direction)
        if not 0 < norm < np.inf:
            raise ConfigurationError(
                f"direction must be a finite nonzero vector, got {args.direction!r}"
            )
        direction = direction / norm
    if not 0 < args.kmin < args.kmax < np.inf:
        raise ConfigurationError("moduli must satisfy 0 < kmin < kmax < inf")
    if args.count < 1:
        raise ConfigurationError(f"count must be at least 1, got {args.count}")
    moduli = (np.linspace if args.linear else np.geomspace)(args.kmin, args.kmax, args.count)
    points = eigenvalue_sweep(system, moduli[:, None] * direction[None, :])
    lines = ["modulus,branch,real,imag,cluster_count"]
    for modulus, point in zip(moduli, points):
        for branch, value in enumerate(point.eigenvalues):
            lines.append(
                f"{float(modulus)!r},{branch},"
                f"{float(value.real)!r},{float(value.imag)!r},{point.cluster_count}"
            )
    path = _write_output(args.out, "sweep.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(points)} sweep points to {path}")
    return PASS_EXIT


def _cmd_run(args: argparse.Namespace) -> int:
    # Only run and report need the harness and the spectral engine; the
    # analysis commands start without importing them.
    from .harness import ExperimentConfig, emit_report, nyquist_warning, run_experiment

    cfg = ExperimentConfig.from_file(args.config)
    # Fail before the experiment, not after it, when the report cannot be written.
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise IoFailureError(f"cannot write report to {args.out}: {error}") from error
    if not os.access(args.out, os.W_OK):
        raise IoFailureError(f"cannot write report to {args.out}: directory is not writable")
    # The one place a config's system is resolved: against the config's directory.
    report = run_experiment(cfg, load_system(args.config.parent / cfg.system))
    emit_report(report, args.out)
    warning = nyquist_warning(report)
    if warning is not None:
        print(warning, file=sys.stderr)
    for name, fit in sorted(report.fits.items()):
        verdict = "ok" if fit["saturated"] else "OFF"
        print(
            f"{name}: slope {fit['slope']:+.4f} vs predicted {fit['predicted']:+.4f} "
            f"[{verdict}]"
        )
    for name, fit in sorted(report.remainder.items()):
        verdict = "ok" if fit["negative"] else "OFF"
        print(
            f"{name}: exponential rate {fit['rate']:+.4f} vs bound {fit['bound']:+.4f} "
            f"[{verdict}]"
        )
    print(f"report written to {args.out}")
    return PASS_EXIT if report.passed else RATE_EXIT


def _cmd_report(args: argparse.Namespace) -> int:
    from .harness import DecayReport, emit_report

    report = DecayReport.from_dict(load_json(args.report, "report", ConfigurationError))
    paths = emit_report(report, args.out)
    print(f"re-serialized report to {', '.join(str(p) for p in paths)}")
    return PASS_EXIT if report.passed else RATE_EXIT


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "check": _cmd_check,
        "limit": _cmd_limit,
        "sweep": _cmd_sweep,
        "run": _cmd_run,
        "report": _cmd_report,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except tuple(_EXITS) as error:
        code = next(code for kind, code in _EXITS.items() if isinstance(error, kind))
        prefix = "condition violated" if code == CONDITION_EXIT else "error"
        print(f"{prefix}: {error}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
