"""Tests of the benchmark's tracing, counts, guards and oracles.

Run from anywhere: ``python3 -m pytest bench/tests``.  The traced passes use
the real ``gk_line`` config and a 64x64 copy of the shipped Euler config,
which keeps the frequency spacing and so the band of the 512x512 run.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def small_euler_config() -> Path:
    raw = json.loads(Path("configs/euler_decay.json").read_text())
    config = run.WORK / "tests" / "euler_64.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    raw["system"] = str(Path("configs/damped_euler.json").resolve())
    raw["grid"]["points"] = 64
    raw["times"]["count"] = 6
    config.write_text(json.dumps(raw))
    return config


def gk_line_config() -> Path:
    return run.run_config("gk_line")[0]


def traced(config: Path) -> dict:
    out = run.WORK / "tests" / config.stem
    outcome = run.spawn(
        ["run", "--config", str(config), "--out", str(out)],
        "full",
        True,
        time.monotonic() + 120.0,
    )
    assert outcome.record["layers"] is not None, outcome.stderr
    return outcome.record["layers"]


def band_size(config: Path) -> int:
    """Grid frequencies with |k| < inner, where the cutoff chi1 is positive."""
    raw = json.loads(config.read_text())
    dimension = json.loads((config.parent / raw["system"]).read_text())["d"]
    points, half_width = raw["grid"]["points"], raw["grid"]["half_width"]
    axis = 2.0 * np.pi * np.fft.fftfreq(points, d=2.0 * half_width / points)
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    moduli = np.sqrt(sum(g**2 for g in grids))
    return int(np.count_nonzero(moduli < raw["cutoff"]["inner"]))


@pytest.fixture(scope="module")
def passes():
    """Two traced passes of each run config."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(run.ROOT)
        configs = {"euler": small_euler_config(), "gk": gk_line_config()}
        return {
            name: (config, [traced(config), traced(config)])
            for name, config in configs.items()
        }


EXACT = ("calls", "matrices", "bytes_computed")


@pytest.mark.parametrize("name", ["euler", "gk"])
def test_traced_counts_repeat_exactly(passes, name):
    _, (first, second) = passes[name]
    for layer, totals in first.items():
        for quantity in EXACT:
            if quantity in totals:
                assert totals[quantity] == second[layer][quantity], (layer, quantity)


@pytest.mark.parametrize("name, forward, inverse", [("euler", 2, 4), ("gk", 3, 5)])
def test_transforms_per_measurement_step(passes, name, forward, inverse):
    config, (layers, _) = passes[name]
    spec = oracles.run_config_spec(config)
    steps = len(oracles.run_ops(spec))
    assert layers["spectral.FrequencySplitter.decompose"]["calls"] == steps
    assert layers["spectral.to_frequency"]["calls"] == forward * steps
    assert layers["spectral.to_physical"]["calls"] == inverse * steps
    assert layers["linalg.matrix_exponential"]["calls"] == steps


@pytest.mark.parametrize("name", ["euler", "gk"])
def test_band_projections_match_band_size(passes, name):
    config, (layers, _) = passes[name]
    assert layers["chapman.exact_group_projection"]["calls"] == band_size(config)


def test_band_sizes_of_the_shipped_grids():
    assert band_size(Path("configs/euler_decay.json")) == 385
    assert band_size(Path("configs/gk_decay.json")) == 59


def test_missing_hook_fails_loudly():
    with pytest.raises(tracing.HookError):
        tracing.replace("spectral", "no_such_function", lambda fn: fn)
    with pytest.raises(tracing.HookError):
        tracing.replace("spectral", "NoSuchClass.decompose", lambda fn: fn)


def test_silent_layer_is_reported(passes):
    _, (layers, _) = passes["gk"]
    assert run.silent_layers("gk_line", layers) == []
    quiet = {name: dict(totals) for name, totals in layers.items()}
    quiet["spectral.FrequencySplitter.decompose"]["calls"] = 0
    assert run.silent_layers("gk_line", quiet) == ["spectral.FrequencySplitter.decompose"]


def test_series_oracle_flags_the_step_that_moved():
    config = gk_line_config()
    spec = oracles.run_config_spec(config)
    reference = json.loads((run.BENCH / "reference" / "gk_line.json").read_text())
    fits = {}
    for p, q in spec["pairs"]:
        for profile in spec["profiles"]:
            slope = oracles.predicted_exponent(profile, spec["dimension"], p, q)
            fits[f"u1_minus_{profile}_{oracles.pair_tag(p, q)}"] = {"slope": slope}
    report = {
        "times": reference["times"],
        "series": {name: list(values) for name, values in reference["series"].items()},
        "fits": fits,
        "remainder": {"u2_l2_q1": {"rate": -0.04}, "u2_l2_q2": {"rate": -0.04}},
    }
    assert oracles.run_report_failures(0, report, spec, reference) == ([], {})
    report["series"]["u_p2_q2"][3] *= 1.0 + 1e-5
    whole, per_op = oracles.run_report_failures(0, report, spec, reference)
    assert whole == [] and list(per_op) == [(2, 3)]
    report["fits"]["u1_minus_phi_p2_q1"]["slope"] += 0.2
    assert oracles.run_report_failures(0, report, spec, reference)[0]


def test_three_velocity_closed_form_matches_the_library():
    from hyprelax.chapman import compute_parabolic_limit
    from hyprelax.systems import goldstein_kac_3d

    rng = np.random.default_rng(7)
    rates = rng.uniform(0.2, 2.0, size=3)
    velocities = rng.normal(size=(3, 3))
    velocities -= velocities.mean(axis=0)
    limit = compute_parabolic_limit(goldstein_kac_3d(*rates, velocities))
    expected = oracles.three_velocity_diffusion(rates.tolist(), velocities.tolist())
    assert np.max(np.abs(limit.diffusion - np.array(expected))) < 1e-10


def test_known_failure_is_only_condition_A_on_three_velocity_checks():
    generated = {"path": "x.json", "index": 0}
    bundled = {"path": "configs/damped_euler.json"}
    assert run.is_known_failure("check", generated, "condition A failed: fit residual 0.8")
    assert run.is_known_failure(
        "check", generated, "exit code 1: hyprelax.model.BranchTrackingFailedError: ..."
    )
    assert not run.is_known_failure("check", bundled, "condition A failed: ...")
    assert not run.is_known_failure("check", generated, "condition D failed: ...")
    assert not run.is_known_failure("limit", generated, "condition A failed: ...")


def test_summary_tail_has_ten_samples_beyond_it():
    stats = run.summary([float(i) for i in range(20)])
    assert stats["median"] == 9.5
    assert stats["tail"]["value"] == 9.0
    assert math.isclose(stats["tail"]["percentile"], 50.0)
    assert run.summary([1.0] * 10)["tail"] is None
