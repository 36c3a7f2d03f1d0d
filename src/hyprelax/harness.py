"""Decay-rate experiments: norms, exponent fits, reports.

An experiment evolves localized initial data under a partially dissipative
system, splits the solution into the projected low-frequency part ``u1``
and the remainder ``u2``, compares ``u1`` against the parabolic profiles,
and fits log-log decay exponents of the error norms against the predicted
values ``-d/2 (1/q - 1/p) - 1/2`` (zeroth-order profile) and
``-d/2 (1/q - 1/p) - 1`` (first-order profile); the remainder is fitted to
an exponential.  Verified norm pairs are restricted to (p, q) in
{(2, 1), (2, 2), (inf, 1)}: on a finite grid these span both degrees of
freedom of the rate formula, while genuine L^inf -> L^inf experiments have
no localized surrogate on a box.

The q = 1 series uses one fixed localized datum.  The q = 2 series probes
the worst case over L^2 data with a scaling family of Gaussians widened as
sqrt(t) and normalized in L^2, since any single fixed datum decays faster
than the uniform rate.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .chapman import ConditionBViolatedError, ConditionViolatedError
from .model import (
    HyperbolicSystem,
    check_condition_B,
    check_condition_D,
    check_condition_S,
    load_system,
    max_wave_speed,
)
from .spectral import (
    CutoffSpec,
    Datum,
    FrequencySplitter,
    GridField,
    PeriodicGrid,
    default_cutoff,
    evolve_parabolic_phi,
    evolve_parabolic_psi,
    lp_norm,
    make_initial_data,
    save_field,
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
    "InitialSpec",
    "ExperimentConfig",
    "DecayReport",
    "fit_rate",
    "fit_exponential",
    "predicted_exponent",
    "run_experiment",
    "emit_report",
]

# Gaussian radius beyond which the tail is below 1e-12 of the peak.
_GAUSSIAN_SUPPORT = math.sqrt(2.0 * math.log(1e12))

_VERIFIED_PAIRS = ((2.0, 1), (2.0, 2), (math.inf, 1))

_INITIAL_KINDS = ("gaussian", "bump", "random-band")

# Fewest samples a rate fit accepts.
_MIN_FIT_POINTS = 6

# The config's "grid" object holds the ExperimentConfig fields named grid_<key>.
_GRID = "grid_"


class HarnessError(Exception):
    """Base class for errors raised by this module."""


class NonPositiveValueError(HarnessError):
    """A fit received zero, negative, or non-finite values."""


class TooFewPointsError(HarnessError):
    """A fit received fewer than the minimum number of samples."""


class WrapAroundGuardError(HarnessError):
    """The schedule would let the solution wrap around the periodic box."""


class IoFailureError(HarnessError):
    """Report or snapshot files could not be written."""


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
    """Measurement times, log-spaced by default; rates hold for ``t >= 1``."""

    t_min: float
    t_max: float
    count: int
    log: bool = True

    def __post_init__(self) -> None:
        if not self.t_min >= 1.0:
            raise ValueError(f"schedule must start at t >= 1, got {self.t_min}")
        if not self.t_max > self.t_min:
            raise ValueError("schedule needs t_max > t_min")
        if self.count < 2:
            raise ValueError("schedule needs at least two times")

    def times(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.t_min, self.t_max, self.count)
        return np.linspace(self.t_min, self.t_max, self.count)


@dataclass(frozen=True)
class InitialSpec:
    """Parameters handed to :func:`hyprelax.spectral.make_initial_data`."""

    kind: str = "gaussian"
    seed: int = 0
    sigma: float = 1.0
    radius: float = 1.0
    band: tuple[float, float] = (0.5, 1.5)
    amplitudes: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(f"initial seed must be non-negative, got {self.seed}")
        if self.kind not in _INITIAL_KINDS:
            raise ConfigurationError(
                f"initial kind must be one of {', '.join(_INITIAL_KINDS)}, "
                f"got {self.kind!r}"
            )
        if not self.sigma > 0:
            raise ConfigurationError(f"initial sigma must be positive, got {self.sigma}")
        if not self.radius > 0:
            raise ConfigurationError(f"initial radius must be positive, got {self.radius}")
        if len(self.band) != 2 or not 0 <= self.band[0] < self.band[1]:
            raise ConfigurationError(
                f"initial band must be [low, high] with 0 <= low < high, got "
                f"{list(self.band)}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one decay experiment.

    This class and its section dataclasses are the run-config schema: field
    names are the JSON keys, field types the coercions, defaults the optional
    keys' values.  The ``grid`` object holds the ``grid_*`` fields.
    """

    system: str
    grid_points: int
    grid_half_width: float
    times: TimeSchedule
    initial: InitialSpec = field(default_factory=InitialSpec)
    cutoff: CutoffSpec | None = None
    pairs: tuple[tuple[float, int], ...] = ((2.0, 1),)
    profile: str = "both"
    tolerance: float = 0.15
    fit: FitWindow = field(default_factory=FitWindow)
    save_fields: bool = False

    def __post_init__(self) -> None:
        if self.profile not in ("phi", "psi", "both"):
            raise ConfigurationError(
                f"profile must be phi, psi, or both, got {self.profile!r}"
            )
        pairs = tuple((float(p), int(q)) for p, q in self.pairs)
        for pair in pairs:
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
        """Parse a config file, naming any unknown, missing or invalid key."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except OSError as error:
            raise ConfigurationError(f"cannot read config {path}: {error}") from error
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"config {path} is not valid JSON: {error}") from error
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config {path} must be a JSON object")
        return _parse_config(raw, path.parent)


def _section_keys(cls) -> dict:
    """JSON key -> (field type, required) for each field of a config section."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


def _read_section(keys: dict, raw, path: str) -> dict:
    """The values of JSON object ``raw``, checked against ``keys`` and coerced."""
    context = path or "config"
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{context} must be a JSON object")
    for key in raw:
        if key not in keys:
            raise ConfigurationError(f"unknown key {key!r} in {context}")
    for key, (_, required) in keys.items():
        if required and key not in raw:
            raise ConfigurationError(f"missing required key {key!r} in {context}")
    return {
        key: _coerce(keys[key][0], value, f"{path}.{key}" if path else key)
        for key, value in raw.items()
    }


def _coerce(hint, value, path: str):
    """``value`` as field type ``hint``: JSON 4 becomes 4.0 for a float field,
    a list a tuple, and an object the section dataclass it describes.  A bool
    field takes only ``true``/``false``, an int field only a JSON integer, and
    a float field only a finite JSON number (no string, ``true``, ``NaN`` or
    ``Infinity``); the one exception is a pair's ``p``, which may be
    ``"inf"`` (the sup norm)."""
    try:
        options = typing.get_args(hint)
        if type(None) in options:
            if value is None:
                return None
            (hint,) = (option for option in options if option is not type(None))
        if isinstance(hint, dict):  # the grid object: keys of the fields it fills
            return _read_section(hint, value, path)
        if is_dataclass(hint):
            return hint(**_read_section(_section_keys(hint), value, path))
        if typing.get_origin(hint) is tuple:
            items = typing.get_args(hint)
            if items[-1] is Ellipsis:
                items = items[:1] * len(value)
            if len(items) != len(value):
                raise ValueError(f"needs {len(items)} entries, got {len(value)}")
            return tuple(_coerce(item, entry, path) for item, entry in zip(items, value))
        if hint in (bool, int) and type(value) is not hint:
            kind = "boolean" if hint is bool else "integer"
            raise ValueError(f"expected a JSON {kind}, got {json.dumps(value)}")
        if hint is float and not (path == "pairs" and value == "inf"):
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"expected a JSON number, got {json.dumps(value)}")
        return hint(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(f"invalid {path}: {error}") from error


def _parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    # Written by hand: the grid_* fields form the "grid" object, a relative
    # system path resolves against the config, and cutoff "auto" means None.
    keys = _section_keys(ExperimentConfig)
    grid = {name: keys.pop(name) for name in list(keys) if name.startswith(_GRID)}
    keys["grid"] = ({name.removeprefix(_GRID): key for name, key in grid.items()}, True)
    if raw.get("cutoff") == "auto":
        raw = {**raw, "cutoff": None}
    values = _read_section(keys, raw, "")
    values.update({_GRID + key: value for key, value in values.pop("grid").items()})
    values["system"] = str(base_dir / values["system"])
    return ExperimentConfig(**values)


# Keys of a serialized report: the JSON type of each and of each table entry.
_REPORT_KEYS = {
    "config": (dict, None),
    "resolved_cutoff": (dict, None),
    "times": (list, None),
    "series": (dict, list),
    "fits": (dict, dict),
    "remainder": (dict, dict),
    "conditions": (dict, dict),
    "psi_skipped": ((str, type(None)), None),
    "passed": (bool, None),
}


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
        return {
            "config": self.config,
            "resolved_cutoff": self.resolved_cutoff,
            "times": list(self.times),
            "series": {name: list(vals) for name, vals in sorted(self.series.items())},
            "fits": {name: dict(fit) for name, fit in sorted(self.fits.items())},
            "remainder": {
                name: dict(fit) for name, fit in sorted(self.remainder.items())
            },
            "conditions": {
                name: dict(entry) for name, entry in sorted(self.conditions.items())
            },
            "psi_skipped": self.psi_skipped,
            "passed": self.passed,
        }

    @staticmethod
    def from_dict(raw) -> "DecayReport":
        """Inverse of :meth:`to_dict`, for a parsed ``report.json``.

        Raises:
            ConfigurationError: if a key is missing or holds the wrong type.
        """
        if not isinstance(raw, dict):
            raise ConfigurationError("report must be a JSON object")
        for key, (kind, entry_kind) in _REPORT_KEYS.items():
            if key not in raw or not isinstance(raw[key], kind):
                raise ConfigurationError(f"report key {key!r} is missing or mistyped")
            if entry_kind and not all(isinstance(e, entry_kind) for e in raw[key].values()):
                raise ConfigurationError(f"report key {key!r} holds a mistyped entry")
        values = {key: raw[key] for key in _REPORT_KEYS}
        values["times"] = tuple(raw["times"])
        values["series"] = {name: tuple(entry) for name, entry in raw["series"].items()}
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
    grid = [name for name in echo if name.startswith(_GRID)]
    echo["grid"] = {name.removeprefix(_GRID): echo.pop(name) for name in grid}
    echo["pairs"] = [[_norm_label(p), q] for p, q in cfg.pairs]
    return echo


def _support_radius(initial: InitialSpec, sigma: float) -> float:
    if initial.kind == "gaussian":
        return _GAUSSIAN_SUPPORT * sigma
    if initial.kind == "bump":
        return initial.radius
    # Band-limited noise fills the box; the wrap guard cannot localize it and
    # the surrogate interpretation is up to the caller.
    return 0.0


def _unit_l2_gaussian(
    grid: PeriodicGrid, components: int, spec: InitialSpec, sigma: float
) -> GridField:
    data = make_initial_data(
        grid,
        components,
        "gaussian",
        seed=spec.seed,
        amplitudes=spec.amplitudes,
        sigma=sigma,
    )
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
    saturated = abs(fit.slope - predicted) <= tolerance
    return {
        "slope": fit.slope,
        "stderr": fit.stderr,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "npoints": fit.npoints,
        "predicted": predicted,
        "tolerance": tolerance,
        "window_t_min": t_min,
        "saturated": saturated,
        "bound_ok": fit.slope <= predicted + tolerance,
    }


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    *,
    system: HyperbolicSystem | None = None,
) -> DecayReport:
    """Evolve, split, compare against parabolic profiles, and fit rates.

    ``out_dir`` receives the ``fields/`` snapshots of ``cfg.save_fields`` and
    is needed only then.  ``system`` overrides loading ``cfg.system`` from
    disk, for callers that already hold the object.  The report passes when
    every requested exponent fit lands within tolerance of its prediction and
    every remainder series fits an exponential with negative rate.

    Raises:
        ConditionViolatedError: if the kernel or dissipation check fails, or
            the first-order profile is requested alone without a symmetry.
        WrapAroundGuardError: if waves could cross the periodic boundary
            within the schedule.
        ConfigurationError: if the config is inconsistent with the system, or
            asks for snapshots without an ``out_dir``.
    """
    if cfg.save_fields and out_dir is None:
        raise ConfigurationError("save_fields needs an output directory for its snapshots")
    if system is None:
        system = load_system(cfg.system)
    try:
        grid = PeriodicGrid(
            dimension=system.dimension,
            points=cfg.grid_points,
            half_width=cfg.grid_half_width,
        )
    except ValueError as error:
        raise ConfigurationError(f"invalid grid: {error}") from error
    amplitudes = cfg.initial.amplitudes
    if amplitudes is not None and len(amplitudes) != system.size:
        raise ConfigurationError(
            f"initial.amplitudes needs {system.size} entries for this system, "
            f"got {len(amplitudes)}"
        )

    conditions: dict[str, dict] = {}
    report_b = check_condition_B(system)
    conditions["B"] = {"passed": report_b.passed, "summary": report_b.summary}
    if not report_b.passed:
        raise ConditionBViolatedError(
            f"relaxation spectrum check fails: {report_b.summary}", report_b
        )
    report_d = check_condition_D(system)
    conditions["D"] = {"passed": report_d.passed, "summary": report_d.summary}
    if not report_d.passed:
        raise ConditionViolatedError(
            f"uniform dissipation fails: {report_d.summary}", report_d
        )

    profiles = {"phi": evolve_parabolic_phi, "psi": evolve_parabolic_psi}
    if cfg.profile != "both":
        profiles = {cfg.profile: profiles[cfg.profile]}
    psi_skipped = None
    if "psi" in profiles:
        report_s = check_condition_S(system)
        conditions["S"] = {"passed": report_s.passed, "summary": report_s.summary}
        if not report_s.passed:
            if cfg.profile == "psi":
                raise ConditionViolatedError(
                    f"first-order profile needs a symmetry: {report_s.summary}",
                    report_s,
                )
            del profiles["psi"]
            psi_skipped = report_s.summary

    times = cfg.times.times()

    scaling_pairs = [pair for pair in cfg.pairs if pair[1] != 1]
    fixed_pairs = [pair for pair in cfg.pairs if pair[1] == 1]

    speed = max_wave_speed(system)
    guard_sigma = cfg.initial.sigma
    if scaling_pairs:
        guard_sigma = cfg.initial.sigma * math.sqrt(times[-1] / times[0])
    support = _support_radius(cfg.initial, guard_sigma)
    reach = speed * times[-1] + support
    if reach > cfg.grid_half_width / 2.0:
        raise WrapAroundGuardError(
            f"wave reach {reach:.3g} exceeds half-width/2 = "
            f"{cfg.grid_half_width / 2.0:.3g}; enlarge the box or shorten the schedule"
        )

    cut = cfg.cutoff if cfg.cutoff is not None else default_cutoff(system)
    low = cfg.initial.band[0]
    if cfg.initial.kind == "random-band" and low >= cut.inner:
        # chi1 vanishes on |k| >= inner, so u1 and both profiles would be
        # rounding noise and the fits would measure nothing.
        raise ConfigurationError(
            f"initial.band starts at {low:g}, outside the projected band "
            f"|k| < cutoff.inner = {cut.inner:.6g}, so the data has no low-band "
            f"mass; use a band with low < {cut.inner:.6g}, for example "
            f"[0, {cut.inner:.6g}]"
        )
    initial = make_initial_data(
        grid,
        system.size,
        cfg.initial.kind,
        seed=cfg.initial.seed,
        amplitudes=cfg.initial.amplitudes,
        sigma=cfg.initial.sigma,
        radius=cfg.initial.radius,
        band=cfg.initial.band,
    )
    splitter = FrequencySplitter(system, grid, cut)

    fields_dir = None
    if cfg.save_fields:
        fields_dir = Path(out_dir) / "fields"
        try:
            fields_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise IoFailureError(f"cannot create {fields_dir}: {error}") from error

    series: dict[str, list[float]] = {}

    def record(name: str, value: float) -> None:
        series.setdefault(name, []).append(value)

    def measure(datum: Datum, t: float, pairs, q_label: int, save_index=None):
        # Gaps are formed in frequency.  Each field a norm needs is transformed
        # once, measured and released before the next one is transformed.
        full, low, high = splitter.decompose(datum, t)
        save = save_index is not None and fields_dir is not None

        def physical(spectrum: GridField, label: str) -> GridField:
            field = to_physical(spectrum)
            if save:
                path = fields_dir / f"snapshot_{save_index:03d}_{label}.bin"
                save_field(field, path, time=t)
            return field

        u = physical(full, "u")
        del full
        for p, q in pairs:
            record(f"u_{_pair_tag(p, q)}", lp_norm(u, p))
        del u
        record(f"u2_l2_q{q_label}", lp_norm(physical(high, "u2"), 2))
        del high
        if save:
            physical(low, "u1")
        for name, evolve in profiles.items():
            gap = evolve(datum, t)
            np.subtract(low.values, gap.values, out=gap.values)
            gap = to_physical(gap)
            for p, q in pairs:
                record(f"u1_minus_{name}_{_pair_tag(p, q)}", lp_norm(gap, p))
            del gap

    fixed = splitter.prepare(initial) if fixed_pairs else None
    del initial
    for index, t in enumerate(times):
        if fixed_pairs:
            measure(fixed, float(t), fixed_pairs, 1, save_index=index)
        for p, q in scaling_pairs:
            sigma_t = cfg.initial.sigma * math.sqrt(float(t) / float(times[0]))
            gaussian = _unit_l2_gaussian(grid, system.size, cfg.initial, sigma_t)
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
    s = 0.5 * cut.inner
    bound = -report_d.data["theta"] * s**2 / (1.0 + s**2)
    for name in sorted(series):
        if not name.startswith("u2_l2"):
            continue
        window = times >= exp_t_min
        fit = fit_exponential(times[window], np.asarray(series[name])[window])
        remainder[name] = {
            "rate": fit.slope,
            "stderr": fit.stderr,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "npoints": fit.npoints,
            "window_t_min": exp_t_min,
            "negative": fit.slope < 0,
            "bound": bound,
            "bound_ok": fit.slope <= bound,
        }
        passed = passed and fit.slope < 0

    return DecayReport(
        config=_config_echo(cfg),
        resolved_cutoff={"inner": cut.inner},
        times=tuple(float(t) for t in times),
        series={name: tuple(vals) for name, vals in series.items()},
        fits=fits,
        remainder=remainder,
        conditions=conditions,
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
