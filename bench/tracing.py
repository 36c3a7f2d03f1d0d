"""Wrappers that time the calls into each hyprelax module's public functions.

A hook replaces a name in every ``hyprelax`` namespace that binds it, so a
caller that looks the name up in its own module globals (for example
``hyprelax.spectral.matrix_exponential`` or ``hyprelax.harness.lp_norm``) is
caught, and so are calls inside the defining module (``check_all_conditions``
calling ``check_condition_A``).  Installing a hook whose name no longer
exists raises :class:`HookError`, so a refactor cannot zero a layer silently.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute path inside it).  The metric prefix is
# ``<module>.<attribute path>``, with ``__init__`` written as ``init``.
HOOKS = (
    ("linalg", "matrix_exponential"),
    ("spectral", "FrequencySplitter.__init__"),
    ("spectral", "FrequencySplitter.decompose"),
    ("spectral", "to_frequency"),
    ("spectral", "to_physical"),
    ("spectral", "evolve_parabolic_phi"),
    ("spectral", "evolve_parabolic_psi"),
    ("spectral", "lp_norm"),
    ("spectral", "make_initial_data"),
    ("chapman", "exact_group_projection"),
    ("chapman", "compute_parabolic_limit"),
    ("chapman", "eigenvalue_sweep"),
    ("model", "load_system"),
    ("model", "check_condition_A"),
    ("model", "check_condition_B"),
    ("model", "check_condition_D"),
    ("model", "check_condition_R"),
    ("model", "check_condition_S"),
    ("model", "max_wave_speed"),
    ("harness", "ExperimentConfig.from_file"),
    ("harness", "run_experiment"),
    ("harness", "fit_rate"),
    ("harness", "fit_exponential"),
    ("harness", "emit_report"),
    ("cli", "main"),
)


def _matrices(args, result) -> int:
    count = 1
    for extent in args[0].shape[:-2]:
        count *= extent
    return count


def _bytes_computed(args, result) -> int:
    return result.values.nbytes


# Exact work counts recorded next to time and calls: name -> (quantity, count).
COUNTS = {
    "linalg.matrix_exponential": ("matrices", _matrices),
    "spectral.to_frequency": ("bytes_computed", _bytes_computed),
    "spectral.to_physical": ("bytes_computed", _bytes_computed),
}


class HookError(RuntimeError):
    """A hooked name is missing from the program."""


def metric_prefix(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


class Tracer:
    """Per-name totals of inclusive time, self time, calls and counts.

    Self time is the call's duration minus the time of the traced calls it
    made, kept on a stack of child-time accumulators.  Inclusive time counts
    only the outermost activation of a name, so recursion is not counted
    twice.
    """

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {}
        self._children: list[float] = []
        self._active: dict[str, int] = {}

    def wrap(self, name: str, fn):
        entry = self.totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        quantity, count = COUNTS.get(name, (None, None))
        if quantity is not None:
            entry[quantity] = 0
        children = self._children
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            active[name] = active.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = children.pop()
                active[name] -= 1
                entry["calls"] += 1
                entry["self_s"] += elapsed - child
                if not active[name]:
                    entry["s"] += elapsed
                if children:
                    children[-1] += elapsed
            if quantity is not None:
                entry[quantity] += count(args, result)
            return result

        return traced


def replace(module: str, path: str, make_wrapper) -> None:
    """Rebind ``module.path`` to ``make_wrapper(original)`` in every namespace.

    Module-level functions are rebound in every loaded ``hyprelax`` module
    that holds the same object; methods are rebound on their class, keeping
    ``staticmethod`` and ``classmethod`` wrappers.
    """
    owner = importlib.import_module(f"hyprelax.{module}")
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = vars(owner).get(parent)
        if owner is None:
            raise HookError(f"hooked name hyprelax.{module}.{path} is missing")
    raw = vars(owner).get(attribute)
    if raw is None:
        raise HookError(f"hooked name hyprelax.{module}.{path} is missing")
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(owner, attribute, type(raw)(make_wrapper(raw.__func__)))
        return
    wrapped = make_wrapper(raw)
    if parents:
        setattr(owner, attribute, wrapped)
        return
    for name, loaded in list(sys.modules.items()):
        if name != "hyprelax" and not name.startswith("hyprelax."):
            continue
        for key, value in list(vars(loaded).items()):
            if value is raw:
                setattr(loaded, key, wrapped)


def install(tracer: Tracer, hooks=HOOKS) -> None:
    """Wrap every hooked name with ``tracer``; raises HookError if one is missing."""
    for module, path in hooks:
        name = metric_prefix(module, path)
        replace(module, path, functools.partial(tracer.wrap, name))
