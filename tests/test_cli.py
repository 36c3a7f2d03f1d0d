import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyprelax
from hyprelax import harness
from hyprelax.chapman import compute_parabolic_limit
from hyprelax.cli import main
from hyprelax.harness import DecayReport, ExperimentConfig, FitWindow, TimeSchedule
from hyprelax.model import HyperbolicSystem, dump_system
from hyprelax.spectral import FrequencySplitter, GridField, InitialSpec
from hyprelax.systems import damped_euler_2d, goldstein_kac_1d

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture()
def gk_path(tmp_path):
    path = tmp_path / "two_speed.json"
    dump_system(goldstein_kac_1d(), path)
    return path


@pytest.fixture()
def euler_path(tmp_path):
    path = tmp_path / "damped_euler.json"
    dump_system(damped_euler_2d(), path)
    return path


@pytest.fixture()
def failing_path(tmp_path):
    system = HyperbolicSystem(
        advections=(np.eye(2),),
        relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    )
    path = tmp_path / "marginal.json"
    dump_system(system, path)
    return path


@pytest.fixture()
def zero_symmetry_path(tmp_path):
    # A zero S meets S B = B S and S A = -A S, but it is no symmetry.
    path = tmp_path / "zero_symmetry.json"
    system = {
        "d": 1,
        "n": 2,
        "A": [[[1, 0], [0, 2]]],
        "B": [[0.5, -0.5], [-0.5, 0.5]],
        "S": [[0, 0], [0, 0]],
    }
    path.write_text(json.dumps(system))
    return path


def write_run_config(tmp_path, system_path, **extra) -> str:
    payload = {
        "system": str(system_path),
        "grid": {"points": 512, "half_width": 48.0},
        "times": {"t_min": 2.0, "t_max": 16.0, "count": 8},
        "initial": {"sigma": 0.5, "amplitudes": [1.0, -0.5]},
        "tolerance": 5.0,
    }
    payload.update(extra)
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheck:
    def test_passing_system(self, tmp_path, gk_path, capsys):
        out = tmp_path / "out"
        assert main(["check", str(gk_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "condition A: pass" in stdout
        assert "condition R: pass" in stdout
        payload = json.loads((out / "conditions.json").read_text())
        assert set(payload) == {"A", "B", "D", "R", "S"}
        assert all(entry["passed"] for entry in payload.values())

    def test_three_dimensional_euler_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", str(CONFIGS / "damped_euler_3d.json"), "--out", str(out)]) == 0
        payload = json.loads((out / "conditions.json").read_text())
        assert set(payload) == {"A", "B", "D", "R", "S"}
        assert all(entry["passed"] for entry in payload.values())

    def test_anisotropic_friction_fails_condition_r(self, tmp_path, capsys):
        # configs/damped_euler.json with B = diag(0, 1, 2): only R fails.
        raw = json.loads((CONFIGS / "damped_euler.json").read_text())
        raw["B"] = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        path = tmp_path / "anisotropic.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["check", str(path), "--out", str(out)]) == 2
        assert "condition R: FAIL" in capsys.readouterr().out
        payload = json.loads((out / "conditions.json").read_text())
        assert [name for name, entry in payload.items() if not entry["passed"]] == ["R"]

    def test_r_samples_key_exits_3(self, tmp_path, gk_path, capsys):
        raw = json.loads(gk_path.read_text())
        raw["R_samples"] = [{"w": [1.0], "R": [[1.0, 0.0], [0.0, 1.0]]}]
        gk_path.write_text(json.dumps(raw))
        assert main(["check", str(gk_path), "--out", str(tmp_path / "o")]) == 3
        assert "unknown key 'R_samples'" in capsys.readouterr().err

    def test_failing_system_exits_2(self, tmp_path, failing_path, capsys):
        out = tmp_path / "out"
        assert main(["check", str(failing_path), "--out", str(out)]) == 2
        payload = json.loads((out / "conditions.json").read_text())
        assert not payload["D"]["passed"]

    def test_zero_symmetry_exits_2(self, tmp_path, zero_symmetry_path, capsys):
        out = tmp_path / "out"
        assert main(["check", str(zero_symmetry_path), "--out", str(out)]) == 2
        assert "condition S: FAIL" in capsys.readouterr().out
        payload = json.loads((out / "conditions.json").read_text())
        assert not payload["S"]["passed"]

    def test_needs_a_system_source(self, tmp_path):
        assert main(["check", "--out", str(tmp_path)]) == 3

    def test_missing_file_exits_3(self, tmp_path):
        absent = tmp_path / "absent.json"
        assert main(["check", str(absent), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "key, value",
        [
            ("d", True),
            ("n", 2.0),
            # Matrix entries are finite JSON numbers, never strings or booleans.
            ("B", [[math.inf, -0.5], [-0.5, 0.5]]),
            ("B", [["NaN", -0.5], [-0.5, 0.5]]),
            ("B", [[0.5, "-0.5"], [-0.5, 0.5]]),
            ("A", [[[-1.0, 0.0], [0.0, True]]]),
        ],
    )
    def test_non_integer_sizes_exit_3(self, tmp_path, gk_path, capsys, key, value):
        raw = json.loads(gk_path.read_text())
        raw[key] = value
        gk_path.write_text(json.dumps(raw))
        assert main(["check", str(gk_path), "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert f"invalid {key}: " in stderr


class TestLimit:
    def test_writes_coefficients(self, tmp_path, gk_path, capsys):
        out = tmp_path / "out"
        assert main(["limit", str(gk_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "drift c" in stdout
        payload = json.loads((out / "limit.json").read_text())
        assert payload["drift"] == pytest.approx([0.0])
        assert payload["diffusion"][0] == pytest.approx([1.0])
        assert payload["gap"] == pytest.approx(1.0)
        # The limit is real, so each matrix is written as its plain rows.
        limit = compute_parabolic_limit(goldstein_kac_1d())
        assert payload["projection"] == limit.projection.tolist()
        assert payload["reduced"] == limit.reduced.tolist()
        assert payload["corrections"] == [p.tolist() for p in limit.corrections]

    def test_fast_system_file(self, tmp_path):
        # Speeds +-1e4: c = 0 up to rounding relative to the speeds, D = 1e8,
        # and the limit is real by construction.
        path = tmp_path / "fast.json"
        dump_system(goldstein_kac_1d(speed=1e4), path)
        out = tmp_path / "out"
        assert main(["limit", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "limit.json").read_text())
        assert payload["drift"] == pytest.approx([0.0], abs=1e-12 * 1e4)
        assert payload["diffusion"][0] == pytest.approx([1e8], rel=1e-12)
        for matrix in (payload["projection"], payload["reduced"], *payload["corrections"]):
            assert all(type(x) is float and math.isfinite(x) for row in matrix for x in row)


class TestSweep:
    def test_default_direction(self, tmp_path, gk_path):
        out = tmp_path / "out"
        code = main(
            ["sweep", str(gk_path), "--count", "10", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "modulus,branch,real,imag,cluster_count"
        assert len(lines) == 1 + 10 * 2
        modulus, branch, real, imag, clusters = lines[1].split(",")
        assert float(modulus) == pytest.approx(1e-2)
        assert branch == "0"
        float(real), float(imag)
        assert clusters in {"1", "2"}

    def test_explicit_direction(self, tmp_path, euler_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                str(euler_path),
                "--direction",
                "0.6,0.8",
                "--count",
                "5",
                "--linear",
                "--kmin",
                "1.0",
                "--kmax",
                "3.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 3

    def test_direction_dimension_mismatch(self, tmp_path, gk_path):
        code = main(
            ["sweep", str(gk_path), "--direction", "1,0", "--out", str(tmp_path)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "arguments, named",
        [
            (["--direction", "0,0"], "direction"),
            (["--direction", "a,b"], "direction"),
            (["--direction", "inf,1"], "direction"),
            (["--count", "-1"], "count"),
            (["--count", "0"], "count"),
            (["--kmax", "inf"], "kmax"),
        ],
    )
    def test_bad_arguments_exit_3(self, tmp_path, euler_path, capsys, arguments, named):
        out = tmp_path / "out"
        assert main(["sweep", str(euler_path), *arguments, "--out", str(out)]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert named in stderr
        assert not (out / "sweep.csv").exists()

    def test_bad_moduli(self, tmp_path, gk_path):
        code = main(
            [
                "sweep",
                str(gk_path),
                "--kmin",
                "10",
                "--kmax",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3


class TestRun:
    def test_successful_run(self, tmp_path, gk_path, capsys):
        config = write_run_config(tmp_path, gk_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "u1_minus_phi_p2_q1" in stdout
        assert sorted(path.name for path in out.iterdir()) == ["report.csv", "report.json"]
        payload = json.loads((out / "report.json").read_text())
        assert payload["passed"] is True

    def test_report_does_not_depend_on_how_the_config_is_named(self, tmp_path, monkeypatch):
        # The report echoes config.system as the file writes it; the system
        # file still resolves against the config's directory.
        spellings = {
            "relative": (CONFIGS.parent, "configs/gk_decay.json"),
            "absolute": (tmp_path, str(CONFIGS / "gk_decay.json")),
            "inside": (CONFIGS, "gk_decay.json"),
        }
        outputs = {}
        for label, (cwd, config) in spellings.items():
            monkeypatch.chdir(cwd)
            out = tmp_path / label
            assert main(["run", "--config", config, "--out", str(out)]) == 0
            outputs[label] = [(out / name).read_bytes() for name in ("report.json", "report.csv")]
        assert outputs["relative"] == outputs["absolute"] == outputs["inside"]
        report = json.loads(outputs["relative"][0])
        assert report["config"]["system"] == "goldstein_kac.json"

    def test_report_does_not_depend_on_the_output_directory(self, tmp_path, gk_path):
        config = write_run_config(tmp_path, gk_path)
        first, second = tmp_path / "first", tmp_path / "second" / "nested"
        assert main(["run", "--config", config, "--out", str(first)]) == 0
        assert main(["run", "--config", config, "--out", str(second)]) == 0
        for name in ("report.json", "report.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_negative_seed_exits_3(self, tmp_path, gk_path, monkeypatch, capsys):
        def propagate(*args, **kwargs):
            raise AssertionError("a negative seed reached the propagator")

        monkeypatch.setattr(FrequencySplitter, "decompose", propagate)
        initial = {"sigma": 0.5, "amplitudes": [1.0, -0.5], "seed": -1}
        config = write_run_config(tmp_path, gk_path, initial=initial)
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert "initial seed must be non-negative, got -1" in stderr

    def test_unsaturated_fit_exits_1(self, tmp_path, gk_path, monkeypatch, capsys):
        config = write_run_config(tmp_path, gk_path, tolerance=1e-6)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        # So does a fit that cannot be made, with one error line.
        fit_rate = harness.fit_rate
        monkeypatch.setattr(harness, "fit_rate", lambda times, values: fit_rate(times, 0.0 * values))
        capsys.readouterr()
        assert main(["run", "--config", config, "--out", str(tmp_path / "unfit")]) == 1
        assert capsys.readouterr().err == "error: fitted values must be positive and finite\n"

    def test_condition_failure_exits_2(self, tmp_path, failing_path):
        config = write_run_config(tmp_path, failing_path)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_psi_without_a_symmetry_exits_2(self, tmp_path, zero_symmetry_path, capsys):
        config = json.loads((CONFIGS / "gk_decay.json").read_text())
        config.update(system=str(zero_symmetry_path), profile="psi")
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "condition S fails" in capsys.readouterr().err

    def test_wrap_guard_exits_3(self, tmp_path, gk_path):
        config = write_run_config(
            tmp_path, gk_path, grid={"points": 128, "half_width": 20.0}
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3

    def test_requires_config(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 3

    def test_band_through_an_exceptional_point_exits_3(self, tmp_path):
        # |k| = 1/2, where the two-speed symbol is defective, is a frequency
        # of this grid and lies inside the cutoff band.
        system = Path(__file__).resolve().parents[1] / "configs" / "goldstein_kac.json"
        config = write_run_config(
            tmp_path,
            system,
            grid={"points": 1024, "half_width": 16 * np.pi},
            cutoff={"inner": 1.0},
            times={"t_min": 2.0, "t_max": 12.0, "count": 6},
        )
        source = str(Path(hyprelax.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "hyprelax", "run", "--config", config],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=source),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert result.stderr.startswith("error: ")
        assert "shrink the cutoff" in result.stderr
        assert "Traceback" not in result.stderr


    def test_failed_audit_exits_3(self, tmp_path, gk_path, monkeypatch, capsys):
        import hyprelax.spectral as spectral
        from hyprelax.chapman import exact_group_projection

        def skewed(system, k):
            return exact_group_projection(system, k) * (1.0 + 1e-6)

        monkeypatch.setattr(spectral, "exact_group_projection", skewed)
        config = write_run_config(tmp_path, gk_path)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert "contour projection" in stderr
        assert "Traceback" not in stderr

    def test_skewed_grid_field_fails_the_form_audit_exits_3(
        self, tmp_path, gk_path, monkeypatch, capsys
    ):
        import hyprelax.harness as harness

        inverse = harness.to_physical

        def skewed(field, **kwargs):
            out = inverse(field, **kwargs)
            return GridField(out.grid, out.values * (1.0 + 1e-9), out.representation)

        monkeypatch.setattr(harness, "to_physical", skewed)
        config = write_run_config(tmp_path, gk_path)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        # The first step's audit compares u's Riemann sum with the datum's form.
        assert stderr.startswith("error: L^2 norm of u at t = 2 from the per-datum form")
        assert stderr.count("\n") == 1


class TestConfigValidation:
    @pytest.mark.parametrize("kind", ["gaussian", "bump", "random-band"])
    def test_documented_kinds_parse(self, tmp_path, gk_path, kind):
        config = write_run_config(
            tmp_path, gk_path, initial={"kind": kind, "band": [0.1, 0.4]}
        )
        assert ExperimentConfig.from_file(config).initial.kind == kind

    def test_every_documented_key_parses(self, tmp_path, gk_path):
        # The README example plus every optional key the README lists.
        payload = {
            "system": gk_path.name,
            "grid": {"points": 8192, "half_width": 400.0},
            "times": {"t_min": 5.0, "t_max": 80.0, "count": 16},
            "initial": {
                "kind": "gaussian",
                "seed": 3,
                "sigma": 0.5,
                "radius": 2.0,
                "band": [0.1, 0.4],
                "amplitudes": [1.0, -0.5],
            },
            "cutoff": "auto",
            "fit": {"t_min": 6.0, "exp_t_min": 15.0},
            "tolerance": 0.15,
            "pairs": [[2, 1], [2, 2], ["inf", 1]],
            "profile": "phi",
        }
        path = tmp_path / "documented.json"
        path.write_text(json.dumps(payload))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.system == gk_path.name
        assert cfg.times == TimeSchedule(5.0, 80.0, 16)
        assert cfg.initial == InitialSpec(
            kind="gaussian",
            seed=3,
            sigma=0.5,
            radius=2.0,
            band=(0.1, 0.4),
            amplitudes=(1.0, -0.5),
        )
        assert cfg.cutoff is None
        assert cfg.fit == FitWindow(t_min=6.0, exp_t_min=15.0)
        assert cfg.pairs == ((2.0, 1), (2.0, 2), (math.inf, 1))
        assert cfg.profile == "phi"
        assert cfg.tolerance == 0.15

    @pytest.mark.parametrize(
        "initial",
        [
            {"kind": "random_band"},
            {"sigma": 0.0},
            {"radius": -1.0},
            {"kind": "random-band", "band": [1.5, 0.5]},
            {"kind": "random-band", "band": [0.5, 1.0, 1.5]},
            {"seed": -1},
        ],
    )
    def test_invalid_initial_exits_3(self, tmp_path, gk_path, initial, capsys):
        config = write_run_config(tmp_path, gk_path, initial=initial)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert "initial" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value, named",
        [
            # An optional float field takes a number or null, not a string.
            (("fit", "exp_t_min"), "15", "fit.exp_t_min"),
            (("times", "count"), 16.9, "times.count"),
            (("times", "count"), True, "times.count"),
            (("initial", "seed"), 2.0, "initial.seed"),
            (("grid", "points"), 8192.0, "grid.points"),
            (("times", "t_min"), True, "times.t_min"),
            # JSON has no NaN or Infinity; Python's reader accepts both.
            (("initial", "amplitudes"), [math.nan, 1.0], "initial.amplitudes"),
            (("grid", "half_width"), math.inf, "grid.half_width"),
            (("tolerance",), math.inf, "tolerance"),
            # Numeric strings are not numbers.
            (("tolerance",), "0.15", "tolerance"),
            (("grid", "half_width"), "400", "grid.half_width"),
            # A string field takes only a JSON string.
            (("system",), 5, "system"),
            (("profile",), ["psi"], "profile"),
        ],
    )
    def test_values_of_the_wrong_json_type_exit_3(
        self, tmp_path, monkeypatch, capsys, keys, value, named
    ):
        # An int field takes only a JSON integer, and a float field only a
        # finite number.
        raw = json.loads((CONFIGS / "gk_decay.json").read_text())
        raw["system"] = str(CONFIGS / raw["system"])
        section = raw
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))

        def propagate(*args, **kwargs):
            raise AssertionError("an invalid config reached the propagator")

        monkeypatch.setattr(FrequencySplitter, "decompose", propagate)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert f"invalid {named}: expected a JSON " in stderr

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("cutoff", {"inner": 0.23, "outer": 20.0}, "unknown key 'outer' in cutoff"),
            ("out_dir", "out", "unknown key 'out_dir' in config"),
            (
                "times",
                {"t_min": 2.0, "t_max": 16.0, "count": 8, "log": False},
                "unknown key 'log' in times",
            ),
            ("save_fields", True, "unknown key 'save_fields' in config"),
        ],
    )
    def test_removed_keys_exit_3(self, tmp_path, gk_path, capsys, key, value, named):
        config = write_run_config(tmp_path, gk_path, **{key: value})
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert named in stderr
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize(
        "demo, section, key, value, named",
        [
            ("gk_decay", "grid", "points", 500, "grid"),
            ("gk_decay", "grid", "half_width", 0, "grid"),
            ("gk_decay", "times", "count", 4, "times.count"),
            ("gk_decay", "fit", "t_min", 50.0, "fit.t_min"),
            ("gk_decay", "fit", "exp_t_min", 50.0, "fit.exp_t_min"),
            ("euler_decay", "initial", "amplitudes", [1.0, 0.3], "initial.amplitudes"),
            # The default band (0.5, 1.5) has no k = 0 mode, so the data has no mass.
            ("gk_decay", "initial", "kind", "random-band", "[0, 0.23]"),
            # P0 projects onto (1, 1), so P0 sum u0 = 0 for both: zero mass.
            ("gk_decay", "initial", "amplitudes", [0.0, 0.0], "has zero mass"),
            ("gk_decay", "initial", "amplitudes", [1.0, -1.0], "has zero mass"),
            # Each pair is one series: none leaves no verdict, a repeat two
            # measurements per time.
            ("gk_decay", None, "pairs", [], "at least one norm pair"),
            ("gk_decay", None, "pairs", [[2, 1], [2, 1]], "(2.0, 1) is listed twice"),
        ],
    )
    def test_invalid_demo_copy_exits_3_before_propagating(
        self, tmp_path, monkeypatch, capsys, demo, section, key, value, named
    ):
        # Of the 16 times from 5 to 80, three are at or after t = 50; the
        # damped-Euler system has three components.
        raw = json.loads((CONFIGS / f"{demo}.json").read_text())
        raw["system"] = str(CONFIGS / raw["system"])
        (raw if section is None else raw[section])[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))

        def propagate(*args, **kwargs):
            raise AssertionError("an invalid config reached the propagator")

        monkeypatch.setattr(FrequencySplitter, "decompose", propagate)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ")
        assert named in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("demo", ["gk_decay", "euler_decay"])
    def test_band_past_an_exceptional_point_exits_3(self, tmp_path, capsys, demo):
        # Past |k| = 1/2 the 0-branch is one of a conjugate pair of equal
        # modulus; a fit on it would be a fit on an arbitrary branch.
        raw = json.loads((CONFIGS / f"{demo}.json").read_text())
        raw["system"] = str(CONFIGS / raw["system"])
        raw["cutoff"] = {"inner": 0.9}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: 0-group gap ")
        assert stderr.count("\n") == 1
        assert stderr.rstrip().endswith("shrink the cutoff (cutoff.inner)")
        assert not (tmp_path / "o" / "report.json").exists()

    def test_auto_cutoff_refused_by_the_calibration_exits_3(self, tmp_path, capsys):
        # At speeds +-40 the exceptional point |k| = 0.0125 lies below the
        # calibration's first level, so "auto" has no radius to offer.
        system = json.loads((CONFIGS / "goldstein_kac.json").read_text())
        system["A"] = [[[40 * x for x in row] for row in a] for a in system["A"]]
        (tmp_path / "fast40.json").write_text(json.dumps(system))
        raw = json.loads((CONFIGS / "gk_decay.json").read_text())
        raw.update(system=str(tmp_path / "fast40.json"), cutoff="auto", fit={})
        # Short enough that waves at speed 40 stay inside the box.
        raw["times"] = {"t_min": 1.0, "t_max": 4.0, "count": 6}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "error: 0-group separation already fails at the smallest calibration "
            "level, |k| = 0.015625; give cutoff.inner explicitly, below this |k|\n"
        )
        assert not (tmp_path / "o" / "report.json").exists()

    def test_zero_mass_noise_exits_3_before_propagating(self, tmp_path, monkeypatch, capsys):
        # Noise on [0.2, 1.5] has no k = 0 mode, so its mass is 0 and its
        # low-frequency part decays faster than the L^1 rates predict.
        raw = json.loads((CONFIGS / "gk_decay.json").read_text())
        raw["system"] = str(CONFIGS / raw["system"])
        raw["initial"] = {"kind": "random-band", "band": [0.2, 1.5], "seed": 0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))

        def propagate(*args, **kwargs):
            raise AssertionError("zero-mass data reached the propagator")

        monkeypatch.setattr(FrequencySplitter, "decompose", propagate)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert "zero mass" in stderr
        assert "[0, 0.23]" in stderr

    def test_grid_is_checked_before_the_system_is_read(self, tmp_path, capsys):
        config = write_run_config(
            tmp_path, tmp_path / "missing.json", grid={"points": 100, "half_width": 48.0}
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        assert "invalid grid: points per axis must be a power of two" in stderr


@pytest.mark.parametrize("command", ["check", "limit", "sweep", "run", "report"])
def test_out_naming_a_file_exits_3(tmp_path, gk_path, capsys, monkeypatch, command):
    # ``run`` must find out before the experiment, not after it.
    calls = []
    monkeypatch.setattr(FrequencySplitter, "decompose", lambda *args: calls.append(args))
    source = [str(gk_path)]
    if command == "run":
        source = ["--config", write_run_config(tmp_path, gk_path)]
    if command == "report":
        report = DecayReport(
            config={},
            resolved_cutoff={},
            times=(1.0,),
            series={},
            fits={},
            remainder={},
            conditions={},
            psi_skipped=None,
            passed=True,
        )
        (tmp_path / "report.json").write_text(json.dumps(report.to_dict()))
        source = [str(tmp_path / "report.json")]
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, *source, "--out", str(taken)]) == 3
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: cannot write ")
    assert str(taken) in stderr
    assert calls == []


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_linear_algebra_failure_exits_3(tmp_path, gk_path, capsys, monkeypatch, command):
    # A system file large enough to overflow the symbols is refused when it
    # is read (next test), so the eigensolvers are made to fail here.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    assert main([command, str(gk_path), "--out", str(tmp_path / "o")]) == 3
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ")
    assert "did not converge" in stderr
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "limit", "sweep"])
@pytest.mark.parametrize("key, factor", [("A", 1e307), ("A", 1e160), ("B", 1e200)])
def test_oversized_system_file_exits_3(tmp_path, capsys, command, key, factor):
    # Finite entries whose squares would overflow the Frobenius norms that
    # cluster_tolerance takes: 1e307 overflows the symbols themselves, 1e160
    # made every eigenvalue one cluster, 1e200 in B a double kernel.
    raw = json.loads((CONFIGS / "goldstein_kac.json").read_text())
    raw[key] = (factor * np.asarray(raw[key])).tolist()
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 3
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: invalid {key}: Frobenius norm ")
    assert "cluster_tolerance" in stderr
    assert stderr.count("\n") == 1


@pytest.mark.parametrize(
    "arguments, named",
    [
        (["sweep", "{system}", "--count", "x"], "invalid int value: 'x'"),
        (["run", "--config", "{config}", "--bogus"], "unrecognized arguments: --bogus"),
        (["run", "--config", "{config}", "--seed", "1"], "unrecognized arguments: --seed"),
        (["check", "{system}", "--seed", "1"], "unrecognized arguments: --seed"),
        (["limit", "{system}", "--seed", "1"], "unrecognized arguments: --seed"),
        (["report", "{report}", "--config", "{config}"], "unrecognized arguments: --config"),
        (["report", "{report}", "--seed", "1"], "unrecognized arguments: --seed"),
        (["plot"], "invalid choice: 'plot'"),
        ([], "the following arguments are required: command"),
        # A system file is the one input of check, limit and sweep; only run
        # reads a config.
        (["check", "--config", "{config}"], "unrecognized arguments: --config"),
        (["limit", "--config", "{config}"], "unrecognized arguments: --config"),
        (["sweep", "--config", "{config}"], "unrecognized arguments: --config"),
        (["check"], "the following arguments are required: system"),
        (["run"], "the following arguments are required: --config"),
    ],
)
def test_usage_errors_exit_3(tmp_path, gk_path, capsys, arguments, named):
    # Exit 2 means a failed structural condition, so argparse's exit 2 is not used.
    names = {
        "system": str(gk_path),
        "config": write_run_config(tmp_path, gk_path),
        "report": str(tmp_path / "report.json"),
    }
    argv = [argument.format(**names) for argument in arguments]
    assert main(argv + ["--out", str(tmp_path / "o")] if argv else argv) == 3
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: hyprelax")
    assert named in stderr
    assert "usage:" not in stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [[], ["run"], ["report"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["-h"])
    assert exit_info.value.code == 0
    assert "usage: hyprelax" in capsys.readouterr().out


def test_cli_import_leaves_out_scipy_stats():
    source = str(Path(hyprelax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=source)
    for package in ("scipy.stats", "scipy"):
        probe = (
            "import sys, hyprelax.cli; "
            f"print(any(m == {package!r} or m.startswith({package!r} + '.') for m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False", package


def test_only_the_cli_freezes_its_import_heap():
    source = str(Path(hyprelax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=source)
    # The library modules leave the heap alone; the CLI freezes it once, and a
    # cycle made after that import is still collected.
    probe = """
import gc, weakref
import hyprelax, hyprelax.model, hyprelax.chapman, hyprelax.linalg
import hyprelax.spectral, hyprelax.harness
library = gc.get_freeze_count()
import hyprelax.cli
class Node:
    pass
node = Node()
node.self = node
alive = weakref.ref(node)
del node
gc.collect()
print(library, gc.get_freeze_count() > 0, gc.isenabled(), alive() is None)
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0 True True True"


# OpenBLAS's thread count, read from numpy's bundled library as the
# benchmark's provenance reads it (bench/run.py, blas_threads); None when the
# library cannot be found.
BLAS_THREADS = """
import ctypes, glob, os
import numpy

def blas_threads():
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, name, None)
            if getter is not None:
                return int(getter())
    return None
"""


def test_only_the_cli_sets_one_blas_thread():
    source = str(Path(hyprelax.__file__).resolve().parents[1])
    chosen = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in chosen}
    env["PYTHONPATH"] = source

    def probe(code: str, **preset: str) -> str:
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**env, **preset},
            capture_output=True,
            text=True,
            check=True,
        )
        return result.stdout.strip()

    # The library modules leave the environment alone.
    library = """
import os
before = dict(os.environ)
import hyprelax, hyprelax.model, hyprelax.chapman, hyprelax.linalg
import hyprelax.spectral, hyprelax.harness
print(dict(os.environ) == before)
"""
    assert probe(library) == "True"
    # The CLI sets one thread before numpy loads OpenBLAS, unless the caller
    # chose a count; OpenBLAS caps a chosen count at the usable processors.
    cli = "import hyprelax.cli\n" + BLAS_THREADS + (
        "usable = len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') "
        "else os.cpu_count()\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], blas_threads(), min(2, usable))"
    )
    setting, threads, capped = probe(cli).split()
    if threads == "None":
        pytest.skip("numpy's OpenBLAS library cannot be found")
    assert (setting, threads) == ("1", "1")
    setting, threads, capped = probe(cli, OPENBLAS_NUM_THREADS="2").split()
    assert (setting, threads) == ("2", capped)


def test_check_leaves_out_numpy_random_and_numpy_ma(tmp_path):
    # numpy.random costs about 11 ms to import and 5 MB of resident memory,
    # and numpy.ma (which a plain np.unique imports) a few MB and about 14 ms.
    # The demo configs give their amplitudes, so their data draws nothing.
    source = str(Path(hyprelax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=source)
    names = ("damped_euler", "goldstein_kac", "damped_euler_3d")
    commands = [["check", str(CONFIGS / f"{name}.json")] for name in names] + [
        ["run", "--config", str(CONFIGS / f"{name}.json")]
        for name in ("gk_decay", "euler_decay")
    ]
    probe = (
        "import sys; from hyprelax.cli import main; "
        f"codes = [main(command + ['--out', {str(tmp_path)!r}]) for command in {commands!r}]; "
        "print(codes, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False False"


class TestReport:
    def test_round_trip_is_byte_identical(self, tmp_path, gk_path):
        config = write_run_config(tmp_path, gk_path)
        first = tmp_path / "first"
        assert main(["run", "--config", config, "--out", str(first)]) == 0
        second = tmp_path / "second"
        code = main(["report", str(first / "report.json"), "--out", str(second)])
        assert code == 0
        assert (first / "report.json").read_bytes() == (
            second / "report.json"
        ).read_bytes()
        assert (first / "report.csv").read_bytes() == (
            second / "report.csv"
        ).read_bytes()

    def test_unreadable_report_exits_3(self, tmp_path):
        assert main(["report", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 3

    def test_malformed_report_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"times": [1.0]}))
        assert main(["report", str(bad), "--out", str(tmp_path)]) == 3
