"""Checks of every output the benchmark asks hyprelax for.

The expected values are computed here, independently of the program: the
predicted decay exponents from the rate formula, the diffusion matrices from
their closed forms, and the small eigenvalue branch from ``k^T D k``.  Each
check returns ``None`` when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Relative tolerance of a measured series value against the reference report
# recorded with the benchmark.  Changes that only reorder floating-point work
# move these values by far less; a wrong propagator or projection moves them
# by far more.
SERIES_RTOL = 1e-6
# Closed-form drift and diffusion of the limit (measured error about 6e-17).
LIMIT_ATOL = 1e-8
# Real part of the small branch at |k| = kmin against k^T D k; the next term
# of the expansion is O(kmin^2) relative, 1e-4 at the default kmin = 0.01.
SWEEP_RTOL = 1e-3


def predicted_exponent(profile: str, dimension: int, p: float, q: float) -> float:
    base = -0.5 * dimension * (1.0 / q - 1.0 / p)
    return base - (0.5 if profile == "phi" else 1.0)


def pair_tag(p: float, q: int) -> str:
    return f"p{'inf' if math.isinf(p) else int(p)}_q{q}"


def run_config_spec(config_path: Path) -> dict:
    """Pairs, profiles, tolerance and dimension of a run config."""
    raw = json.loads(config_path.read_text())
    system = json.loads((config_path.parent / raw["system"]).read_text())
    pairs = [
        (math.inf if p in ("inf", "Infinity") else float(p), int(q))
        for p, q in raw.get("pairs", [[2, 1]])
    ]
    profile = raw.get("profile", "both")
    return {
        "dimension": int(system["d"]),
        "pairs": pairs,
        "profiles": ("phi", "psi") if profile == "both" else (profile,),
        "tolerance": float(raw.get("tolerance", 0.15)),
        "count": int(raw["times"]["count"]),
    }


def run_ops(spec: dict) -> list[tuple[int, int]]:
    """Measurement steps ``(q, time index)``: one per datum and time."""
    labels = sorted({q for _, q in spec["pairs"]})
    return [(q, index) for index in range(spec["count"]) for q in labels]


def run_report_failures(
    exit_code: int, report: dict | None, spec: dict, reference: dict
) -> tuple[list[str], dict[tuple[int, int], str]]:
    """Problems with one ``hyprelax run``.

    Returns the problems that spoil the whole run (exit code, fits, remainder
    rates, missing series) and, per measurement step ``(q, index)``, the
    first series value that left the reference tolerance.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    if report is None:
        return ["no report.json"], {}
    whole: list[str] = []
    for p, q in spec["pairs"]:
        for profile in spec["profiles"]:
            name = f"u1_minus_{profile}_{pair_tag(p, q)}"
            fit = report["fits"].get(name)
            predicted = predicted_exponent(profile, spec["dimension"], p, q)
            if fit is None:
                whole.append(f"fit {name} missing")
            elif not abs(fit["slope"] - predicted) <= spec["tolerance"]:
                whole.append(
                    f"fit {name}: slope {fit['slope']:.4f} vs {predicted:.4f} "
                    f"+- {spec['tolerance']}"
                )
    labels = sorted({q for _, q in spec["pairs"]})
    for q in labels:
        fit = report["remainder"].get(f"u2_l2_q{q}")
        if fit is None or not fit["rate"] < 0:
            whole.append(f"remainder u2_l2_q{q}: rate {fit and fit['rate']} is not < 0")
    if report["times"] != reference["times"]:
        whole.append("measurement times differ from the reference")
    if set(report["series"]) != set(reference["series"]):
        whole.append("series names differ from the reference")
    per_op: dict[tuple[int, int], str] = {}
    for name, expected in reference["series"].items():
        measured = report["series"].get(name)
        if measured is None or len(measured) != len(expected):
            continue
        floor = 1e-12 * max(abs(v) for v in expected)
        q = int(name.rsplit("_q", 1)[1])
        for index, (value, ref) in enumerate(zip(measured, expected)):
            if not abs(value - ref) <= SERIES_RTOL * abs(ref) + floor:
                per_op.setdefault(
                    (q, index), f"{name}[{index}] = {value!r}, reference {ref!r}"
                )
    return whole, per_op


def _matrix_error(measured, expected) -> float:
    return max(
        abs(m - e) for row_m, row_e in zip(measured, expected) for m, e in zip(row_m, row_e)
    )


def check_failure(exit_code: int, out_dir: Path, stderr: str) -> str | None:
    """Conditions A, B and D must pass (S may fail: exit 2 is allowed)."""
    if exit_code not in (0, 2):
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {exit_code}: {last[0]}"
    path = out_dir / "conditions.json"
    if not path.exists():
        return "no conditions.json"
    conditions = json.loads(path.read_text())
    for name in ("A", "B", "D"):
        entry = conditions.get(name)
        if entry is None or not entry["passed"]:
            summary = entry["summary"] if entry else "missing"
            return f"condition {name} failed: {summary}"
    return None


def limit_failure(exit_code: int, out_dir: Path, diffusion) -> str | None:
    """Drift c = 0 and D equal to its closed form."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    path = out_dir / "limit.json"
    if not path.exists():
        return "no limit.json"
    limit = json.loads(path.read_text())
    drift = max(abs(c) for c in limit["drift"])
    if not drift <= LIMIT_ATOL:
        return f"drift {limit['drift']} is not 0"
    error = _matrix_error(limit["diffusion"], diffusion)
    if not error <= LIMIT_ATOL:
        return f"diffusion differs from its closed form by {error:.3g}"
    return None


def sweep_failure(exit_code: int, out_dir: Path, diffusion) -> str | None:
    """At the smallest modulus the branch nearest 0 has real part k^T D k."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    path = out_dir / "sweep.csv"
    if not path.exists():
        return "no sweep.csv"
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        return "sweep.csv has no rows"
    kmin = float(rows[0]["modulus"])
    first = [row for row in rows if float(row["modulus"]) == kmin]
    nearest = min(first, key=lambda row: math.hypot(float(row["real"]), float(row["imag"])))
    # The default sweep direction is the first axis, so k^T D k = kmin^2 D_11.
    expected = kmin**2 * diffusion[0][0]
    error = abs(float(nearest["real"]) - expected) / abs(expected)
    if not error <= SWEEP_RTOL:
        return f"small branch {nearest['real']} vs k^T D k = {expected!r} (rel {error:.2g})"
    return None


def three_velocity_diffusion(rates, velocities) -> list[list[float]]:
    """Closed form sum_i w_i v_i v_i^T / (3 (ab + bc + ca)), w = (a, b, c)."""
    a, b, c = rates
    scale = 3.0 * (a * b + b * c + c * a)
    return [
        [sum(w * v[i] * v[j] for w, v in zip(rates, velocities)) / scale for j in range(3)]
        for i in range(3)
    ]


def two_speed_diffusion(system: dict) -> list[list[float]]:
    """Telegraph limit of the two-speed model: D = v^2 / (2 r)."""
    speed = abs(system["A"][0][1][1])
    rate = system["B"][0][0]
    return [[speed**2 / (2.0 * rate)]]
