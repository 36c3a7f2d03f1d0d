"""Decay-rate experiments: norms, exponent fits, reports.

An experiment evolves localized initial data under a partially dissipative
system, splits the solution into the projected low-frequency part ``u1``
and the remainder ``u2``, compares ``u1`` against the parabolic profiles,
and fits log-log decay exponents of the error norms against the predicted
values ``-d/2 (1/q - 1/p) - 1/2`` (zeroth-order profile) and
``-d/2 (1/q - 1/p) - 1`` (first-order profile); the remainder is fitted to
an exponential.  :func:`run_experiment` takes the system itself; a config's
``system`` is echoed in the report, and ``hyprelax run`` resolves it against
the config's directory.  Verified norm pairs are restricted to (p, q) in
{(2, 1), (2, 2), (inf, 1)}: on a finite grid these span both degrees of
freedom of the rate formula, while genuine L^inf -> L^inf experiments have
no localized surrogate on a box.

The q = 1 series uses one fixed localized datum.  The q = 2 series probes
the worst case over L^2 data with a scaling family of Gaussians widened as
sqrt(t) and normalized in L^2, since any single fixed datum decays faster
than the uniform rate.

The p = 2 norms of ``u``, ``u2`` and the profile gaps ``u1 - Phi``,
``u1 - Psi`` come from :meth:`~hyprelax.spectral.FrequencySplitter.l2_norms`,
a Hermitian form per datum in ``exp(-t lambda)`` that builds no grid field.
Grid fields are formed only for a p = inf norm and the first measurement
of a run.  There the Riemann sum of ``u`` (an inverse transform) and the
norms of the spectra of ``u2`` and of each gap (equal to their Riemann sums
by Parseval, as the transform is unitary) must match the form within 1e-12
relative (the form audit).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .chapman import require
from .model import (
    HyperbolicSystem,
    check_condition_B,
    check_condition_D,
    check_condition_S,
    json_number,
    load_json,
    max_wave_speed,
    read_section,
)
from .spectral import (
    CutoffSpec,
    Datum,
    FrequencySplitter,
    GridField,
    GridSpec,
    InitialSpec,
    PeriodicGrid,
    SpectralError,
    evolve_parabolic_phi,
    evolve_parabolic_psi,
    lp_norm,
    make_initial_data,
    to_physical,
)

__all__ = [
    "HarnessError",
    "NonPositiveValueError",
    "TooFewPointsError",
    "WrapAroundGuardError",
    "IoFailureError",
    "ConfigurationError",
    "RateFit",
    "FitWindow",
    "TimeSchedule",
    "ExperimentConfig",
    "DecayReport",
    "fit_rate",
    "fit_exponential",
    "predicted_exponent",
    "run_experiment",
    "emit_report",
]

_VERIFIED_PAIRS = ((2.0, 1), (2.0, 2), (math.inf, 1))

# Fewest samples a rate fit accepts.
_MIN_FIT_POINTS = 6
# Relative mismatch the first step's audit accepts between an L^2 norm from
# the per-datum form and the Riemann sum of the grid field.
_FORM_TOLERANCE = 1e-12


class HarnessError(Exception):
    """Base class for errors raised by this module."""


class NonPositiveValueError(HarnessError):
    """A fit received zero, negative, or non-finite values."""


class TooFewPointsError(HarnessError):
    """A fit received fewer than the minimum number of samples."""


class WrapAroundGuardError(HarnessError):
    """The schedule would let the solution wrap around the periodic box."""


class IoFailureError(HarnessError):
    """Report files could not be written."""


class ConfigurationError(HarnessError):
    """An experiment configuration is malformed."""


@dataclass(frozen=True)
class RateFit:
    """Least-squares line fit with its diagnostics."""

    slope: float
    stderr: float
    intercept: float
    r_squared: float
    npoints: int


def _validated_samples(times, values) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be matching one-dimensional arrays")
    if times.size < _MIN_FIT_POINTS:
        raise TooFewPointsError(
            f"need at least {_MIN_FIT_POINTS} samples to fit, got {times.size}"
        )
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise NonPositiveValueError("fitted values must be positive and finite")
    return times, values


def _line_fit(x: np.ndarray, y: np.ndarray) -> RateFit:
    """Ordinary least squares ``y = slope x + intercept`` with diagnostics.

    ``stderr`` is the slope's standard error with ``n - 2`` degrees of
    freedom; ``r_squared`` is 0 when ``y`` is constant.
    """
    dx = x - x.mean()
    dy = y - y.mean()
    sxx, sxy, syy = dx @ dx, dx @ dy, dy @ dy
    r = 0.0 if syy == 0.0 else float(np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0))
    slope = sxy / sxx
    return RateFit(
        slope=float(slope),
        stderr=float(np.sqrt((1.0 - r**2) * syy / sxx / (x.size - 2))),
        intercept=float(y.mean() - slope * x.mean()),
        r_squared=r**2,
        npoints=x.size,
    )


def fit_rate(times, values) -> RateFit:
    """Power-law exponent: ordinary least squares on (log t, log v)."""
    times, values = _validated_samples(times, values)
    if not np.all(times > 0):
        raise ValueError("power-law fits need positive times")
    return _line_fit(np.log(times), np.log(values))


def fit_exponential(times, values) -> RateFit:
    """Exponential rate: ordinary least squares on (t, log v)."""
    times, values = _validated_samples(times, values)
    return _line_fit(times, np.log(values))


def predicted_exponent(profile: str, dimension: int, p: float, q: float) -> float:
    """Predicted decay exponent of ``|u1 - U|_p`` for L^q data."""
    base = -0.5 * dimension * (1.0 / q - 1.0 / p)
    if profile == "phi":
        return base - 0.5
    if profile == "psi":
        return base - 1.0
    raise ValueError(f"unknown profile {profile!r}; expected phi or psi")


@dataclass(frozen=True)
class FitWindow:
    """Lower time bounds for the power-law and exponential fits."""

    t_min: float = 1.0
    exp_t_min: float | None = None


@dataclass(frozen=True)
class TimeSchedule:
    """Log-spaced measurement times; rates hold for ``t >= 1``."""

    t_min: float
    t_max: float
    count: int

    def __post_init__(self) -> None:
        if not self.t_min >= 1.0:
            raise ValueError(f"schedule must start at t >= 1, got {self.t_min}")
        if not self.t_max > self.t_min:
            raise ValueError("schedule needs t_max > t_min")
        if self.count < 2:
            raise ValueError("schedule needs at least two times")

    def times(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.count)


class _NormExponent(float):
    """A pair's ``p`` as a config writes it: a finite JSON number, or
    ``"inf"`` for the sup norm."""

    def __new__(cls, value):
        return super().__new__(cls, math.inf if value == "inf" else json_number(value))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one decay experiment.

    This class and its section dataclasses are the run-config schema: field
    names are the JSON keys, field types the coercions, defaults the optional
    keys' values.
    """

    system: str
    grid: GridSpec
    times: TimeSchedule
    initial: InitialSpec = field(default_factory=InitialSpec)
    cutoff: CutoffSpec | None = None
    pairs: tuple[tuple[_NormExponent, int], ...] = ((2.0, 1),)
    profile: str = "both"
    tolerance: float = 0.15
    fit: FitWindow = field(default_factory=FitWindow)

    def __post_init__(self) -> None:
        if self.profile not in ("phi", "psi", "both"):
            raise ConfigurationError(
                f"profile must be phi, psi, or both, got {self.profile!r}"
            )
        pairs = tuple((float(p), int(q)) for p, q in self.pairs)
        if not pairs:
            raise ConfigurationError("pairs must list at least one norm pair")
        for index, pair in enumerate(pairs):
            if pair in pairs[:index]:
                raise ConfigurationError(f"norm pair {pair} is listed twice in pairs")
            if pair not in _VERIFIED_PAIRS:
                raise ConfigurationError(
                    f"norm pair {pair} is outside the verified set "
                    f"{{(2, 1), (2, 2), (inf, 1)}}"
                )
        object.__setattr__(self, "pairs", pairs)
        if not self.tolerance > 0:
            raise ConfigurationError("exponent tolerance must be positive")
        if any(q != 1 for _, q in pairs) and self.initial.kind != "gaussian":
            raise ConfigurationError(
                "norm pairs with q != 1 use a widening Gaussian family; set the "
                "initial kind to gaussian"
            )
        times = self.times.times()
        for key in ("t_min", "exp_t_min"):
            t_min = getattr(self.fit, key)
            if t_min is None:
                continue
            kept = int(np.count_nonzero(times >= t_min))
            if kept < _MIN_FIT_POINTS:
                raise ConfigurationError(
                    f"fit.{key} = {t_min:g} keeps {kept} of the {self.times.count} "
                    f"scheduled times; a fit needs at least {_MIN_FIT_POINTS} (raise "
                    f"times.count or lower fit.{key})"
                )

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        """Parse a config file, naming any unknown, missing or invalid key.
        ``system`` stays as written: it is relative to the config's directory."""
        raw = load_json(path, "config", ConfigurationError)
        if raw.get("cutoff") == "auto":
            raw = {**raw, "cutoff": None}
        return ExperimentConfig(**read_section(ExperimentConfig, raw, ConfigurationError, "config"))


@dataclass(frozen=True)
class DecayReport:
    """All measured series, fits, and verdicts of one experiment."""

    config: dict
    resolved_cutoff: dict
    times: tuple[float, ...]
    series: dict[str, tuple[float, ...]]
    fits: dict[str, dict]
    remainder: dict[str, dict]
    conditions: dict[str, dict]
    psi_skipped: str | None
    passed: bool

    def to_dict(self) -> dict:
        # The round trip gives the lists a parsed report.json holds, not tuples.
        return json.loads(json.dumps(asdict(self)))

    @staticmethod
    def from_dict(raw) -> "DecayReport":
        """Inverse of :meth:`to_dict`, for a parsed ``report.json``.

        Raises:
            ConfigurationError: if a key is unknown, missing or mistyped, or a
                series does not hold one value per time.
        """
        values = read_section(DecayReport, raw, ConfigurationError, "report")
        for name, series in values["series"].items():
            if len(series) != len(values["times"]):
                raise ConfigurationError(
                    f"invalid series.{name}: needs {len(values['times'])} entries, "
                    f"got {len(series)}"
                )
        return DecayReport(**values)

    def csv_rows(self):
        """Rows (t, norm_name, value), time-major, names sorted."""
        names = sorted(self.series)
        for index, t in enumerate(self.times):
            for name in names:
                yield t, name, self.series[name][index]


def _norm_label(p: float) -> str | int:
    """``p`` as a config writes it: ``"inf"`` or an integer."""
    return "inf" if math.isinf(p) else int(p)


def _pair_tag(p: float, q: int) -> str:
    return f"p{_norm_label(p)}_q{q}"


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The config as its JSON file would write it, defaults filled in."""
    # The round trip gives the lists a parsed report.json holds, not tuples.
    echo = json.loads(json.dumps(asdict(cfg), default=str))
    echo["pairs"] = [[_norm_label(p), q] for p, q in cfg.pairs]
    return echo


def _unit_l2_gaussian(grid: PeriodicGrid, components: int, spec: InitialSpec) -> GridField:
    data = make_initial_data(grid, components, spec)
    return GridField(grid, data.values / lp_norm(data, 2), data.representation)


def _fit_series(
    times: np.ndarray,
    values: np.ndarray,
    t_min: float,
    predicted: float,
    tolerance: float,
) -> dict:
    window = times >= t_min
    fit = fit_rate(times[window], values[window])
    return {
        **asdict(fit),
        "predicted": predicted,
        "tolerance": tolerance,
        "window_t_min": t_min,
        "saturated": abs(fit.slope - predicted) <= tolerance,
        "bound_ok": fit.slope <= predicted + tolerance,
    }


def run_experiment(cfg: ExperimentConfig, system: HyperbolicSystem) -> DecayReport:
    """Evolve ``system`` under ``cfg``, split, compare against parabolic
    profiles, and fit rates.

    ``cfg.system`` is only echoed: the caller loads the system it names.
    Nothing is written; :func:`emit_report` writes the report.  The report
    passes when every requested exponent fit lands within tolerance of its
    prediction and every remainder series fits an exponential with negative
    rate.

    Raises:
        ConditionViolatedError: if the kernel or dissipation check fails, or
            the first-order profile is requested alone without a symmetry.
        WrapAroundGuardError: if waves could cross the periodic boundary
            within the schedule.
        ConfigurationError: if the config is inconsistent with the system or
            has zero-mass data.
        SpectralError: if a propagation audit or the form audit fails.
    """
    grid = cfg.grid.on(system.dimension)
    amplitudes = cfg.initial.amplitudes
    if amplitudes is not None and len(amplitudes) != system.size:
        raise ConfigurationError(
            f"initial.amplitudes needs {system.size} entries for this system, "
            f"got {len(amplitudes)}"
        )

    profiles = {"phi": evolve_parabolic_phi, "psi": evolve_parabolic_psi}
    if cfg.profile != "both":
        profiles = {cfg.profile: profiles[cfg.profile]}
    checks = {"B": check_condition_B, "D": check_condition_D}
    if "psi" in profiles:
        checks["S"] = check_condition_S
    reports = {}
    psi_skipped = None
    for name, check in checks.items():
        report = reports[name] = check(system)
        if name == "S" and not report.passed and cfg.profile == "both":
            del profiles["psi"]
            psi_skipped = report.summary
        else:
            require(report)

    times = cfg.times.times()

    scaling_pairs = [pair for pair in cfg.pairs if pair[1] != 1]
    fixed_pairs = [pair for pair in cfg.pairs if pair[1] == 1]

    speed = max_wave_speed(system)
    widest = cfg.initial
    if scaling_pairs:
        widest = replace(widest, sigma=widest.sigma * math.sqrt(times[-1] / times[0]))
    reach = speed * times[-1] + widest.support
    if reach > grid.half_width / 2.0:
        raise WrapAroundGuardError(
            f"wave reach {reach:.3g} exceeds half-width/2 = "
            f"{grid.half_width / 2.0:.3g}; enlarge the box or shorten the schedule"
        )

    splitter = FrequencySplitter(system, grid, cfg.cutoff)
    initial = make_initial_data(grid, system.size, cfg.initial)
    # Data whose mass P0 sum_x u0(x) vanishes up to rounding decays faster than
    # the rates for L^1 data predict, and its u1 and profiles are rounding noise.
    mass = np.abs(splitter.limit.projection @ initial.flat().sum(axis=1)).sum()
    if mass <= 1e-12 * np.abs(initial.values).sum():
        hint = "choose initial.amplitudes a with P0 a != 0"
        if cfg.initial.kind == "random-band" and cfg.initial.band[0] > 0:
            hint = (
                f"noise without the k = 0 mode has none; start the band at 0, for "
                f"example [0, cutoff.inner] = [0, {splitter.cut.inner:.6g}]"
            )
        raise ConfigurationError(
            f"the initial data has zero mass (|P0 sum u0| = {mass:.1e}), so the "
            f"predicted rates do not apply; {hint}"
        )

    series: dict[str, list[float]] = {}

    def record(name: str, value: float) -> None:
        series.setdefault(name, []).append(value)

    audited = False

    def measure(datum: Datum, t: float, pairs, q_label: int):
        # p = 2 norms come from the datum's form (``splitter.l2_norms``), which
        # builds no grid field.  Fields are formed only for a p = inf norm or
        # the run's first step, whose grid-field norms audit the form.  Each is
        # released before the next one is made and transformed back in its own
        # array.  The datum's form is summed at its first l2_norms, in a pass
        # of its own after those fields are released.
        nonlocal audited
        sup = any(math.isinf(p) for p, _ in pairs)
        audit = not audited
        observed: dict[str, float] = {}  # the first step's grid-field L^2 norms
        sup_norms: dict[str, float] = {}
        if sup or audit:
            full, low = splitter.decompose(datum, t)
            high = splitter.remainder_norm(full, low) if audit else None
            u = to_physical(full, out=full.values)
            del full
            if audit:
                observed["u"], observed["u2"] = lp_norm(u, 2), high
            if sup:
                sup_norms["u"] = lp_norm(u, math.inf)
            del u
            for name, evolve in profiles.items():
                # P - u1 in the profile's own array: the gap u1 - P negated,
                # with the same norms.
                gap = evolve(datum, t)
                gap.flat()[:, splitter.band] -= low
                if audit:
                    observed[f"u1_minus_{name}"] = lp_norm(gap, 2)
                if sup:
                    gap = to_physical(gap, out=gap.values)
                    sup_norms[f"u1_minus_{name}"] = lp_norm(gap, math.inf)
                del gap
        full_norm, high_norm, gaps = splitter.l2_norms(datum, t, tuple(profiles))
        formed = {"u": full_norm, "u2": high_norm}
        formed.update((f"u1_minus_{name}", value) for name, value in gaps.items())
        for name, riemann in observed.items():
            if not abs(formed[name] - riemann) <= _FORM_TOLERANCE * riemann:
                raise SpectralError(
                    f"L^2 norm of {name} at t = {t:g} from the per-datum form "
                    f"{formed[name]:.17g} differs from the Riemann sum {riemann:.17g} "
                    f"of its grid field by more than {_FORM_TOLERANCE:g} relative"
                )
        audited = True
        for prefix, value in formed.items():
            if prefix == "u2":
                record(f"u2_l2_q{q_label}", value)
                continue
            for p, q in pairs:
                record(f"{prefix}_{_pair_tag(p, q)}", value if p == 2 else sup_norms[prefix])

    fixed = splitter.prepare(initial) if fixed_pairs else None
    del initial
    for t in times:
        if fixed_pairs:
            measure(fixed, float(t), fixed_pairs, 1)
        for p, q in scaling_pairs:
            sigma_t = cfg.initial.sigma * math.sqrt(float(t) / float(times[0]))
            gaussian = _unit_l2_gaussian(
                grid, system.size, replace(cfg.initial, sigma=sigma_t)
            )
            datum = splitter.prepare(gaussian)
            del gaussian
            measure(datum, float(t), [(p, q)], q)
            del datum

    fits: dict[str, dict] = {}
    passed = True
    for p, q in cfg.pairs:
        tag = _pair_tag(p, q)
        for profile in profiles:
            name = f"u1_minus_{profile}_{tag}"
            predicted = predicted_exponent(profile, system.dimension, p, q)
            fits[name] = _fit_series(
                times, np.asarray(series[name]), cfg.fit.t_min, predicted, cfg.tolerance
            )
            passed = passed and fits[name]["saturated"]

    remainder: dict[str, dict] = {}
    exp_t_min = cfg.fit.exp_t_min if cfg.fit.exp_t_min is not None else cfg.fit.t_min
    # u2 lives on |k| >= inner/2, where condition D bounds the decay rate by
    # theta s^2 / (1 + s^2) at s = inner/2; recorded, not part of the verdict.
    s = 0.5 * splitter.cut.inner
    bound = -reports["D"].data["theta"] * s**2 / (1.0 + s**2)
    for name in sorted(series):
        if not name.startswith("u2_l2"):
            continue
        window = times >= exp_t_min
        fit = asdict(fit_exponential(times[window], np.asarray(series[name])[window]))
        rate = fit.pop("slope")
        remainder[name] = {
            "rate": rate,
            **fit,
            "window_t_min": exp_t_min,
            "negative": rate < 0,
            "bound": bound,
            "bound_ok": rate <= bound,
        }
        passed = passed and rate < 0

    return DecayReport(
        config=_config_echo(cfg),
        resolved_cutoff={"inner": splitter.cut.inner},
        times=tuple(float(t) for t in times),
        series={name: tuple(vals) for name, vals in series.items()},
        fits=fits,
        remainder=remainder,
        conditions={
            name: {"passed": report.passed, "summary": report.summary}
            for name, report in reports.items()
        },
        psi_skipped=psi_skipped,
        passed=passed,
    )


def emit_report(report: DecayReport, out_dir: str | Path) -> list[Path]:
    """Write ``report.json`` and ``report.csv``; returns the paths.

    Output is byte-reproducible: JSON keys are sorted and CSV rows are
    emitted time-major with sorted series names and full-precision floats.
    """
    out_dir = Path(out_dir)
    json_path, csv_path = out_dir / "report.json", out_dir / "report.csv"
    lines = ["t,norm_name,value"]
    lines.extend(f"{t!r},{name},{value!r}" for t, name, value in report.csv_rows())
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        csv_path.write_text("\n".join(lines) + "\n")
    except OSError as error:
        raise IoFailureError(f"cannot write report to {out_dir}: {error}") from error
    return [json_path, csv_path]
