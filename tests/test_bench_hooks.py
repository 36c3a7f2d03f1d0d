"""Every name the benchmark's tracer hooks must exist in the package.

The benchmark (``bench/tracing.py``) wraps these names when it traces a run
and fails if one is missing; this test catches a refactor that drops one
without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("module, path", hooks())
def test_hooked_name_resolves(module, path):
    owner = importlib.import_module(f"hyprelax.{module}")
    for part in path.split("."):
        # The tracer looks names up in the owner's own namespace, so an
        # inherited attribute (object.__init__) does not count.
        assert part in vars(owner), f"hyprelax.{module}.{path}"
        owner = vars(owner)[part]
    assert callable(owner) or isinstance(owner, (staticmethod, classmethod))
