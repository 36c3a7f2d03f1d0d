import json
import math
import re
import tracemalloc
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyprelax.chapman import ConditionBViolatedError, ConditionViolatedError
from hyprelax.harness import (
    ConfigurationError,
    DecayReport,
    ExperimentConfig,
    FitWindow,
    NYQUIST_WARNING_SHARE,
    NonPositiveValueError,
    TimeSchedule,
    TooFewPointsError,
    WrapAroundGuardError,
    _config_echo,
    emit_report,
    fit_exponential,
    fit_rate,
    nyquist_warning,
    predicted_exponent,
    run_experiment,
)
from hyprelax.model import HyperbolicSystem, check_condition_D, dump_system, load_system
from hyprelax.cli import main
from hyprelax.spectral import (
    Datum,
    FrequencySplitter,
    GridField,
    GridSpec,
    InitialSpec,
    PeriodicGrid,
    SpectralError,
    evolve_parabolic_phi,
    lp_norm,
    make_initial_data,
    to_physical,
)
from hyprelax.systems import damped_euler_2d, goldstein_kac_1d

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GK_RELAXATION = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])


def drifting_two_speed() -> HyperbolicSystem:
    """Passes the kernel and dissipation checks but admits no symmetry:
    S diag(2, 0) = -diag(2, 0) S forces a singular S."""
    return HyperbolicSystem(
        advections=(np.diag([2.0, 0.0]),), relaxation=GK_RELAXATION
    )


def small_run_config(**overrides) -> ExperimentConfig:
    settings = dict(
        system="in-memory",
        grid=GridSpec(points=512, half_width=48.0),
        times=TimeSchedule(t_min=2.0, t_max=16.0, count=8),
        initial=InitialSpec(sigma=0.5, amplitudes=(1.0, -0.5)),
        tolerance=5.0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def traced_peak(cfg: ExperimentConfig, system: HyperbolicSystem) -> int:
    """The ``tracemalloc`` peak, in bytes, of ``run_experiment(cfg, system)``."""
    tracemalloc.start()
    try:
        run_experiment(cfg, system)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRateFits:
    def test_exact_power_law(self):
        times = np.geomspace(1.0, 100.0, 20)
        fit = fit_rate(times, 3.0 * times**-0.75)
        assert fit.slope == pytest.approx(-0.75, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.npoints == 20

    def test_exact_exponential(self):
        times = np.linspace(1.0, 30.0, 12)
        fit = fit_exponential(times, 5.0 * np.exp(-0.3 * times))
        assert fit.slope == pytest.approx(-0.3, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-12)

    def test_small_modulation_stays_within_tolerance(self):
        times = np.geomspace(1.0, 50.0, 30)
        values = times**-1.0 * (1.0 + 0.01 * np.sin(5.0 * times))
        fit = fit_rate(times, values)
        assert fit.slope == pytest.approx(-1.0, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_rate([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 1.0, 1.0, 1.0])

    def test_non_increasing_times(self):
        times = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValueError):
            fit_rate(times, np.ones(6))

    def test_nonpositive_and_nonfinite_values(self):
        times = np.arange(1.0, 7.0)
        with pytest.raises(NonPositiveValueError):
            fit_rate(times, [1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(NonPositiveValueError):
            fit_exponential(times, [1.0, 1.0, np.nan, 1.0, 1.0, 1.0])

    def test_power_law_needs_positive_times(self):
        times = np.arange(-2.0, 4.0)
        with pytest.raises(ValueError):
            fit_rate(times, np.ones(6))


@pytest.mark.parametrize("seed", range(3))
def test_fits_match_scipy_linregress(seed):
    from scipy.stats import linregress

    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(1.0, 40.0, 15))
    values = np.exp(-0.4 * times + rng.normal(0.0, 0.3, times.size))
    for fit, x in (
        (fit_rate(times, values), np.log(times)),
        (fit_exponential(times, values), times),
    ):
        oracle = linregress(x, np.log(values))
        assert fit.slope == pytest.approx(oracle.slope, rel=1e-12)
        assert fit.intercept == pytest.approx(oracle.intercept, rel=1e-12)
        assert fit.stderr == pytest.approx(oracle.stderr, rel=1e-12)
        assert fit.r_squared == pytest.approx(oracle.rvalue**2, rel=1e-12)


class TestPredictedExponent:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (2.0, 2.0), (math.inf, 1.0)])
    def test_profiles_differ_by_half(self, dimension, p, q):
        phi = predicted_exponent("phi", dimension, p, q)
        psi = predicted_exponent("psi", dimension, p, q)
        assert phi - psi == pytest.approx(0.5)
        base = -0.5 * dimension * (1.0 / q - 1.0 / p)
        assert phi == pytest.approx(base - 0.5)

    def test_reference_values(self):
        assert predicted_exponent("phi", 1, 2.0, 1.0) == pytest.approx(-0.75)
        assert predicted_exponent("psi", 1, 2.0, 1.0) == pytest.approx(-1.25)
        assert predicted_exponent("psi", 2, 2.0, 1.0) == pytest.approx(-1.5)
        assert predicted_exponent("psi", 1, math.inf, 1.0) == pytest.approx(-1.5)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            predicted_exponent("theta", 1, 2.0, 1.0)


class TestTimeSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSchedule(t_min=0.5, t_max=2.0, count=4)
        with pytest.raises(ValueError):
            TimeSchedule(t_min=2.0, t_max=2.0, count=4)
        with pytest.raises(ValueError):
            TimeSchedule(t_min=1.0, t_max=2.0, count=1)

    def test_spacings(self):
        log = TimeSchedule(t_min=1.0, t_max=100.0, count=5).times()
        assert_allclose(log, [1.0, np.sqrt(10) ** 1, 10.0, np.sqrt(10) ** 3, 100.0])


class TestExperimentConfig:
    def test_profile_and_pair_validation(self):
        with pytest.raises(ConfigurationError):
            small_run_config(profile="theta")
        with pytest.raises(ConfigurationError):
            small_run_config(pairs=((3.0, 1),))
        with pytest.raises(ConfigurationError):
            small_run_config(tolerance=0.0)

    def test_infinity_pair_is_verified(self):
        cfg = small_run_config(pairs=((math.inf, 1),))
        assert cfg.pairs == ((math.inf, 1),)

    def test_from_file_round_trip(self, tmp_path):
        dump_system(goldstein_kac_1d(), tmp_path / "system.json")
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "system": "system.json",
                    "grid": {"points": 512, "half_width": 48.0},
                    "times": {"t_min": 2.0, "t_max": 16.0, "count": 8},
                    "initial": {"sigma": 0.5, "amplitudes": [1.0, -0.5]},
                    "pairs": [[2, 1], ["inf", 1]],
                    "profile": "phi",
                    "fit": {"t_min": 3.0, "exp_t_min": 3.5},
                }
            )
        )
        cfg = ExperimentConfig.from_file(config_path)
        assert cfg.system == "system.json"
        assert cfg.grid == GridSpec(points=512, half_width=48.0)
        assert cfg.times.count == 8
        assert cfg.initial.amplitudes == (1.0, -0.5)
        assert cfg.pairs == ((2.0, 1), (math.inf, 1))
        assert cfg.profile == "phi"
        assert cfg.fit == FitWindow(t_min=3.0, exp_t_min=3.5)

    def test_from_file_names_unknown_keys(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "system": "s.json",
                    "grid": {"points": 8, "half_width": 1.0},
                    "times": {"t_min": 1.0, "t_max": 2.0, "count": 6},
                    "grids": {},
                }
            )
        )
        with pytest.raises(ConfigurationError, match="unknown key 'grids' in config"):
            ExperimentConfig.from_file(path)

    def test_from_file_names_missing_keys(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"system": "s.json", "grid": {"points": 8, "half_width": 1.0}}))
        with pytest.raises(ConfigurationError, match="missing required key 'times' in config"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"grid": {"points": 8}}, "missing required key 'half_width' in grid"),
            ({"initial": {"width": 2.0}}, "unknown key 'width' in initial"),
            ({"cutoff": "manual"}, "cutoff must be a JSON object"),
            ({"tolerance": "tight"}, "invalid tolerance: expected a JSON number"),
            ({"pairs": [[2]]}, "invalid pairs: needs 2 entries, got 1"),
            (
                {"times": {"t_min": 2.0, "t_max": 1.0, "count": 6}},
                "invalid times: schedule needs t_max > t_min",
            ),
            ({"pairs": []}, "pairs must list at least one norm pair"),
            ({"pairs": [[2, 1], ["inf", 1], [2.0, 1]]}, "norm pair (2.0, 1) is listed twice"),
        ],
    )
    def test_from_file_errors_name_the_key(self, tmp_path, change, message):
        raw = {
            "system": "s.json",
            "grid": {"points": 8, "half_width": 1.0},
            "times": {"t_min": 1.0, "t_max": 2.0, "count": 6},
        }
        raw.update(change)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ExperimentConfig.from_file(path)

    def test_from_file_reads_integers_as_declared_types(self, tmp_path):
        # JSON 4 for a float field must echo as 4.0.
        def written(number):
            return {
                "system": "s.json",
                "grid": {"points": 512, "half_width": number(48)},
                "times": {"t_min": number(2), "t_max": number(16), "count": 8},
                "initial": {"sigma": number(1), "band": [number(0), number(2)]},
                "cutoff": {"inner": number(1)},
                "fit": {"t_min": number(2), "exp_t_min": number(3)},
                "pairs": [[number(2), 1], ["inf", 1]],
                "tolerance": number(1),
            }

        echoes = []
        for number in (int, float):
            path = tmp_path / f"{number.__name__}.json"
            path.write_text(json.dumps(written(number)))
            echoes.append(json.dumps(_config_echo(ExperimentConfig.from_file(path))))
        assert echoes[0] == echoes[1]
        assert '"half_width": 48.0' in echoes[0]
        assert '"pairs": [[2, 1], ["inf", 1]]' in echoes[0]

    def test_echo_reads_back_as_the_same_config(self, tmp_path):
        cfg = small_run_config(
            pairs=((2.0, 1), (2.0, 2), (math.inf, 1)),
            fit=FitWindow(t_min=3.0, exp_t_min=3.5),
        )
        cfg = replace(cfg, system=str(tmp_path / "system.json"))
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(_config_echo(cfg)))
        assert ExperimentConfig.from_file(path) == cfg

    def test_fit_windows_need_six_scheduled_times(self):
        small_run_config(times=TimeSchedule(t_min=2.0, t_max=16.0, count=6))
        with pytest.raises(ConfigurationError, match="fit.t_min"):
            small_run_config(times=TimeSchedule(t_min=2.0, t_max=16.0, count=5))
        with pytest.raises(ConfigurationError, match="fit.exp_t_min"):
            small_run_config(fit=FitWindow(exp_t_min=12.0))

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(path)
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(path)
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(tmp_path / "absent.json")


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_run_config(), goldstein_kac_1d())


@pytest.fixture(scope="module")
def short_report():
    cfg = small_run_config(times=TimeSchedule(t_min=2.0, t_max=8.0, count=6))
    return run_experiment(cfg, goldstein_kac_1d())


class TestRunExperiment:
    def test_resolved_data_drops_only_rounding(self, report):
        assert 0.0 <= report.nyquist_share <= NYQUIST_WARNING_SHARE
        assert nyquist_warning(report) is None

    def test_scaling_data_have_unit_norm_after_the_nyquist_drop(self, monkeypatch):
        # Gaussians about half a grid spacing wide: each datum loses a share
        # of its energy on the line's Nyquist member.  Each scaling datum is
        # scaled to unit L^2 norm after the drop, and the report keeps the
        # largest share.
        prepared = []
        prepare = FrequencySplitter.prepare

        def recorded(splitter, field, unit=False):
            datum = prepare(splitter, field, unit)
            prepared.append((datum, unit))
            return datum

        monkeypatch.setattr(FrequencySplitter, "prepare", recorded)
        cfg = small_run_config(
            initial=InitialSpec(sigma=0.1, amplitudes=(1.0, -0.5)),
            pairs=((2.0, 1), (2.0, 2)),
        )
        report = run_experiment(cfg, goldstein_kac_1d())
        shares = [datum.nyquist_share for datum, _ in prepared]
        assert report.nyquist_share == max(shares) > 1e-6
        assert f"held {report.nyquist_share:.3g} of a datum" in nyquist_warning(report)
        scaled = [datum for datum, unit in prepared if unit]
        assert len(scaled) == cfg.times.count
        grid = cfg.grid.on(1)
        for datum in scaled:
            half = GridField(grid, datum.spectrum.reshape((2,) + grid.half_shape), "frequency")
            assert lp_norm(half, 2) == pytest.approx(1.0, rel=1e-14)
            assert datum.nyquist_share > 0.0

    def test_series_names_and_lengths(self, report):
        assert set(report.series) == {
            "u2_l2_q1",
            "u_p2_q1",
            "u1_minus_phi_p2_q1",
            "u1_minus_psi_p2_q1",
        }
        assert all(len(values) == 8 for values in report.series.values())
        schedule = TimeSchedule(t_min=2.0, t_max=16.0, count=8).times()
        assert_allclose(report.times, schedule)

    def test_fit_structure(self, report):
        assert set(report.fits) == {"u1_minus_phi_p2_q1", "u1_minus_psi_p2_q1"}
        phi = report.fits["u1_minus_phi_p2_q1"]
        assert phi["predicted"] == pytest.approx(-0.75)
        assert report.fits["u1_minus_psi_p2_q1"]["predicted"] == pytest.approx(-1.25)
        assert phi["saturated"]
        assert set(report.remainder) == {"u2_l2_q1"}
        assert report.remainder["u2_l2_q1"]["negative"]
        assert report.remainder["u2_l2_q1"]["rate"] < 0
        assert report.passed

    def test_remainder_records_the_condition_D_bound(self, report):
        theta = check_condition_D(goldstein_kac_1d()).data["theta"]
        s = report.resolved_cutoff["inner"] / 2.0
        entry = report.remainder["u2_l2_q1"]
        assert entry["bound"] == pytest.approx(-theta * s**2 / (1.0 + s**2), rel=1e-14)
        assert entry["bound_ok"] is (entry["rate"] <= entry["bound"])
        again = DecayReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again.remainder == report.remainder
        assert again.to_dict() == report.to_dict()

    def test_conditions_and_cutoff_echo(self, report):
        assert report.conditions["B"]["passed"]
        assert report.conditions["D"]["passed"]
        assert report.conditions["S"]["passed"]
        assert report.psi_skipped is None
        assert report.resolved_cutoff["inner"] == pytest.approx(
            0.42044820762685775 / 2.0, rel=1e-12
        )

    def test_series_match_direct_measurement(self, report):
        system = goldstein_kac_1d()
        grid = PeriodicGrid(dimension=1, points=512, half_width=48.0)
        data = make_initial_data(grid, 2, InitialSpec(amplitudes=(1.0, -0.5), sigma=0.5))
        splitter = FrequencySplitter(system, grid)
        datum = splitter.prepare(data)
        t = report.times[3]
        full, rows = splitter.decompose(datum, t)
        low = np.zeros_like(full.values)
        low.reshape(2, -1)[:, splitter.half_band] = rows
        phi = evolve_parabolic_phi(datum, t)
        assert report.series["u_p2_q1"][3] == pytest.approx(
            lp_norm(to_physical(full), 2), rel=1e-12
        )
        high = GridField(grid, full.values - low, "frequency")
        assert report.series["u2_l2_q1"][3] == pytest.approx(
            lp_norm(to_physical(high), 2), rel=1e-12
        )
        difference = to_physical(GridField(grid, low - phi.values, "frequency"))
        assert report.series["u1_minus_phi_p2_q1"][3] == pytest.approx(
            lp_norm(difference, 2), rel=1e-12
        )

    def test_scaling_pair_series(self):
        cfg = small_run_config(
            grid=GridSpec(points=512, half_width=64.0),
            pairs=((2.0, 1), (2.0, 2)),
            times=TimeSchedule(t_min=2.0, t_max=12.0, count=6),
        )
        report = run_experiment(cfg, goldstein_kac_1d())
        assert set(report.series) == {
            "u2_l2_q1",
            "u_p2_q1",
            "u1_minus_phi_p2_q1",
            "u1_minus_psi_p2_q1",
            "u2_l2_q2",
            "u_p2_q2",
            "u1_minus_phi_p2_q2",
            "u1_minus_psi_p2_q2",
        }
        assert report.fits["u1_minus_phi_p2_q2"]["predicted"] == pytest.approx(-0.5)
        assert set(report.remainder) == {"u2_l2_q1", "u2_l2_q2"}

    def test_scaling_pair_requires_gaussian_data(self):
        # Rejected when the config is built, before any system is loaded.
        with pytest.raises(ConfigurationError, match="gaussian"):
            small_run_config(
                grid=GridSpec(points=512, half_width=64.0),
                pairs=((2.0, 2),),
                initial=InitialSpec(kind="bump", radius=2.0),
            )

    def test_wrap_guard(self):
        cfg = small_run_config(grid=GridSpec(points=128, half_width=20.0))
        with pytest.raises(WrapAroundGuardError):
            run_experiment(cfg, goldstein_kac_1d())

    def test_missing_symmetry_skips_psi_profile(self):
        cfg = small_run_config(
            grid=GridSpec(points=256, half_width=64.0),
            times=TimeSchedule(t_min=2.0, t_max=8.0, count=6),
            initial=InitialSpec(sigma=1.0, amplitudes=(1.0, -0.5)),
        )
        report = run_experiment(cfg, drifting_two_speed())
        assert report.psi_skipped is not None
        assert not report.conditions["S"]["passed"]
        assert "u1_minus_psi_p2_q1" not in report.series
        assert set(report.fits) == {"u1_minus_phi_p2_q1"}

    def test_missing_symmetry_fails_psi_only_run(self):
        cfg = small_run_config(
            grid=GridSpec(points=256, half_width=64.0),
            times=TimeSchedule(t_min=2.0, t_max=8.0, count=6),
            initial=InitialSpec(sigma=1.0, amplitudes=(1.0, -0.5)),
            profile="psi",
        )
        with pytest.raises(ConditionViolatedError):
            run_experiment(cfg, drifting_two_speed())

    def test_phi_only_run_skips_symmetry_check(self):
        cfg = small_run_config(
            grid=GridSpec(points=256, half_width=64.0),
            times=TimeSchedule(t_min=2.0, t_max=8.0, count=6),
            initial=InitialSpec(sigma=1.0, amplitudes=(1.0, -0.5)),
            profile="phi",
        )
        report = run_experiment(cfg, drifting_two_speed())
        assert report.psi_skipped is None
        assert "S" not in report.conditions

    def test_failed_structure_checks_raise(self):
        undissipated = HyperbolicSystem(
            advections=(np.eye(2),), relaxation=GK_RELAXATION
        )
        with pytest.raises(ConditionViolatedError):
            run_experiment(small_run_config(), undissipated)
        gapless = HyperbolicSystem(
            advections=(np.diag([1.0, -1.0]),), relaxation=np.zeros((2, 2))
        )
        with pytest.raises(ConditionBViolatedError):
            run_experiment(small_run_config(), gapless)

    def test_system_is_a_required_argument(self):
        # A config's system names a file relative to the config, which the
        # library does not know; the caller loads it.
        with pytest.raises(TypeError):
            run_experiment(small_run_config())

    def test_measurement_step_holds_each_field_once(self, tmp_path):
        # The persistent state (the datum's spectrum, the factors per orbit,
        # the form and its layout) is about three and
        # a half fields; a step that keeps u, u2 and the gaps alive together,
        # or copies the orbit layout, peaks above eleven.
        raw = json.loads((CONFIGS / "euler_decay.json").read_text())
        raw["grid"]["points"] = 256
        path = tmp_path / "euler_256.json"
        path.write_text(json.dumps(raw))
        cfg = ExperimentConfig.from_file(path)
        system = load_system(CONFIGS / cfg.system)
        peak = traced_peak(cfg, system)
        field_bytes = 3 * 256**2 * np.dtype(complex).itemsize
        assert peak < 11 * field_bytes

    def test_first_step_peak_is_a_few_fields(self, tmp_path):
        # A p = 2 run on the 128^2 plane, in full-grid complex fields.  Its
        # first step holds the half spectra of the datum and u, transformed
        # back in its own array, or the profile's one array, beside orbit-sized
        # tables and one element's blocks; the form and its Gram stacks are
        # built after u is released: 3.6 fields.  With full complex spectra it
        # peaked at 4.3; with the form summed in the first decompose's pass,
        # beside u, it
        # peaked at 5.6 fields; with a table of V o exp(-t lambda), the
        # form's terms formed as (n, n, orbits) products, the Gram stacks
        # built through full-size einsum temporaries and a new array for the
        # inverse transform, at 6.6; with orbit-order coefficients, full-grid
        # u1 and u2 and a psi moment built through full-grid temporaries, at
        # 10.4.
        raw = json.loads((CONFIGS / "euler_decay.json").read_text())
        raw["grid"]["points"] = 128
        path = tmp_path / "euler_128.json"
        path.write_text(json.dumps(raw))
        cfg = ExperimentConfig.from_file(path)
        system = load_system(CONFIGS / cfg.system)
        peak = traced_peak(cfg, system)
        field_bytes = 3 * 128**2 * np.dtype(complex).itemsize
        assert peak <= 4 * field_bytes

    def test_first_step_peak_in_space_is_a_few_fields(self, tmp_path):
        # A p = 2 run of both profiles on a 32^3 grid of the four-component
        # damped Euler system (48 group elements): 2.0 full-grid complex
        # fields of four components, with half spectra, no orbits on the
        # Nyquist planes, the form summed in a pass of its own after u is
        # released and each profile's factor formed a chunk of members at a
        # time.  With each Nyquist member an orbit of its own (3,793 orbits
        # against 816) it peaked at 3.4; with full complex spectra at 3.9;
        # with the form summed in the first decompose's pass, beside u, and a
        # whole-grid complex exponent beside each profile, at 5.0.
        raw = {
            "system": str(CONFIGS / "damped_euler_3d.json"),
            "grid": {"points": 32, "half_width": 32.0},
            "times": {"t_min": 1.0, "t_max": 8.0, "count": 8},
            "initial": {"sigma": 1.0, "amplitudes": [1.0, 0.3, -0.2, 0.1]},
            "cutoff": {"inner": 0.35},
            "profile": "both",
        }
        path = tmp_path / "euler_3d_32.json"
        path.write_text(json.dumps(raw))
        cfg = ExperimentConfig.from_file(path)
        peak = traced_peak(cfg, load_system(CONFIGS / "damped_euler_3d.json"))
        field_bytes = 4 * 32**3 * np.dtype(complex).itemsize
        assert peak <= 2.5 * field_bytes

    @pytest.mark.parametrize(
        "pairs, per_time",
        [(((2.0, 1), (math.inf, 1)), 0), (((2.0, 1), (2.0, 2)), 1)],
    )
    def test_each_datum_is_transformed_once(self, monkeypatch, pairs, per_time):
        """One forward transform for the fixed datum, one per q = 2 Gaussian."""
        import hyprelax.spectral as spectral

        calls = []
        forward = spectral.to_frequency

        def counted(field):
            calls.append(field.grid)
            return forward(field)

        monkeypatch.setattr(spectral, "to_frequency", counted)
        schedule = TimeSchedule(t_min=2.0, t_max=12.0, count=6)
        cfg = small_run_config(
            grid=GridSpec(points=512, half_width=64.0), pairs=pairs, times=schedule
        )
        run_experiment(cfg, goldstein_kac_1d())
        assert len(calls) == 1 + per_time * schedule.count


def small_plane_config(**overrides) -> ExperimentConfig:
    settings = dict(
        system="in-memory",
        grid=GridSpec(points=64, half_width=32.0),
        times=TimeSchedule(t_min=2.0, t_max=8.0, count=6),
        initial=InitialSpec(sigma=1.0, amplitudes=(1.0, 0.3, -0.2)),
        tolerance=5.0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def skew_form(monkeypatch) -> None:
    """Make every datum's form scale its largest diagonal entry by 1 + 1e-9."""
    build = Datum.__dict__["form"].func

    def skewed(datum):
        weights, coefficients = build(datum)
        diagonal = np.abs(np.einsum("iir->ir", weights))
        i, r = np.unravel_index(np.argmax(diagonal), diagonal.shape)
        weights[i, i, r] *= 1.0 + 1e-9
        return weights, coefficients

    form = cached_property(skewed)
    form.__set_name__(Datum, "form")
    monkeypatch.setattr(Datum, "form", form)


class TestFrequencySpaceNorms:
    """p = 2 norms come from each datum's form; only p = inf norms and the
    run's first step, whose grid-field norms audit the form, build grid
    fields."""

    @pytest.mark.parametrize(
        "pairs, transforms",
        [(((2.0, 1),), 1), (((2.0, 1), (math.inf, 1)), 3 * 6)],
    )
    def test_inverse_transforms_per_run(self, monkeypatch, pairs, transforms):
        # p = 2 alone: the audit's one transform.  With a sup-norm pair, u and
        # the two gaps (Phi and Psi) at each of the 6 times, u2 never; the
        # audit reuses the first u.
        import hyprelax.harness as harness

        calls = []
        inverse = harness.to_physical

        def counted(field, **kwargs):
            calls.append(field.grid)
            return inverse(field, **kwargs)

        monkeypatch.setattr(harness, "to_physical", counted)
        report = run_experiment(small_plane_config(pairs=pairs), damped_euler_2d())
        assert len(report.fits) == 2 * len(pairs)
        assert len(calls) == transforms

    def test_skewed_grid_field_fails_the_form_audit(self, monkeypatch):
        import hyprelax.harness as harness

        inverse = harness.to_physical

        def skewed(field, **kwargs):
            out = inverse(field, **kwargs)
            return GridField(out.grid, out.values * (1.0 + 1e-9), out.representation)

        monkeypatch.setattr(harness, "to_physical", skewed)
        with pytest.raises(SpectralError, match="Riemann sum"):
            run_experiment(small_plane_config(), damped_euler_2d())

    def test_skewed_form_fails_the_first_step(self, monkeypatch, tmp_path, capsys):
        skew_form(monkeypatch)
        with pytest.raises(SpectralError, match="^L\\^2 norm of u at t = 2 from the per-datum form"):
            run_experiment(small_plane_config(), damped_euler_2d())
        system = tmp_path / "damped_euler.json"
        dump_system(damped_euler_2d(), system)
        config = tmp_path / "plane.json"
        echo = _config_echo(small_plane_config(system=str(system)))
        config.write_text(json.dumps(echo))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert "from the per-datum form" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pairs, decompositions, transforms",
        [(((2.0, 1),), 1, 1), (((2.0, 1), (math.inf, 1)), 6, 3 * 6)],
    )
    def test_engine_calls_per_run(self, monkeypatch, pairs, decompositions, transforms):
        """The factorization is first reached inside the first ``decompose``
        (where a benchmark's setup ends), the form's layout and the form inside
        the first ``l2_norms``, after ``decompose`` has returned; every time
        makes one Pade call, and only a p = inf pair decomposes after the first
        step."""
        import hyprelax.harness as harness
        import hyprelax.spectral as spectral

        events = []

        def traced(cls, name):
            build = cls.__dict__[name].func

            def wrapper(owner):
                events.append(name)
                return build(owner)

            prop = cached_property(wrapper)
            prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, prop)

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(*args, **kwargs):
                events.append(name)
                result = function(*args, **kwargs)
                events.append(f"{name} returned")
                return result

            monkeypatch.setattr(module, name, wrapper)

        traced(FrequencySplitter, "_eigenbasis")
        traced(FrequencySplitter, "_form_layout")
        traced(Datum, "form")
        counted(FrequencySplitter, "decompose")
        counted(FrequencySplitter, "l2_norms")
        counted(harness, "to_physical")
        counted(spectral, "matrix_exponential")
        run_experiment(small_plane_config(pairs=pairs), damped_euler_2d())
        assert events[:2] == ["decompose", "_eigenbasis"]
        assert events.count("_eigenbasis") == events.count("_form_layout") == 1
        assert events.count("form") == 1
        # The first l2_norms sums the form in a pass of its own, so no step
        # holds u beside the form or its layout.
        layout, form = events.index("_form_layout"), events.index("form")
        assert events.index("decompose returned") < events.index("l2_norms")
        assert events.index("l2_norms") < layout < form < events.index("l2_norms returned")
        assert events.count("decompose") == decompositions
        assert events.count("to_physical") == transforms
        assert events.count("matrix_exponential") == 6


class TestEmitReport:
    def test_outputs_are_byte_reproducible(self, short_report, tmp_path):
        first = emit_report(short_report, tmp_path / "a")
        second = emit_report(short_report, tmp_path / "b")
        for one, two in zip(first, second):
            assert one.read_bytes() == two.read_bytes()

    def test_json_round_trip(self, short_report, tmp_path):
        path, _ = emit_report(short_report, tmp_path)
        assert path.name == "report.json"
        assert json.loads(path.read_text()) == short_report.to_dict()

    def test_csv_layout(self, short_report, tmp_path):
        _, path = emit_report(short_report, tmp_path)
        assert path.name == "report.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm_name,value"
        assert len(lines) == 1 + len(short_report.times) * len(short_report.series)
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(short_report.times[0])
        assert first[1] == sorted(short_report.series)[0]

    def test_report_reconstruction_matches(self, short_report, tmp_path):
        emit_report(short_report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        again = emit_report(DecayReport.from_dict(payload), tmp_path / "again")
        assert (tmp_path / "report.json").read_bytes() == again[0].read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == again[1].read_bytes()

    @pytest.mark.parametrize(
        "change",
        [
            lambda raw: raw.pop("fits"),
            lambda raw: raw.pop("psi_skipped"),
            lambda raw: raw.update(times=3.0),
            lambda raw: raw.update(passed="yes"),
            lambda raw: raw.update(series={"u_p2_q1": 1.0}),
            lambda raw: raw.update(remainder={"u2_l2_q1": [1.0]}),
            lambda raw: raw.update(times=[str(t) for t in raw["times"]]),
            lambda raw: raw.update(extra=1),
            lambda raw: raw["series"].update(u_p2_q1=[1.0]),
        ],
    )
    def test_from_dict_rejects_malformed_reports(self, short_report, change):
        raw = json.loads(json.dumps(short_report.to_dict()))
        change(raw)
        with pytest.raises(ConfigurationError):
            DecayReport.from_dict(raw)

    def test_reports_without_a_nyquist_share_still_read(self, short_report):
        raw = json.loads(json.dumps(short_report.to_dict()))
        del raw["nyquist_share"]
        assert DecayReport.from_dict(raw).nyquist_share == 0.0

    def test_from_dict_needs_an_object(self, short_report):
        with pytest.raises(ConfigurationError):
            DecayReport.from_dict([short_report.to_dict()])
