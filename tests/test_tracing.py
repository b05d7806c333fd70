"""The benchmark's tracer (perfbench/tracing.py) wraps gdecomp functions
and methods by name from outside the package, and perfbench/run.py reads
`gdecomp.cycles.BACKEND`. A rename in `src/` would break the benchmark
without failing any other test, so every such name must resolve."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    missing = []
    for module, attr, *_ in _tracing().TARGETS:
        try:
            target = reduce(getattr, attr.split("."),
                            importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
            continue
        assert callable(target), f"{module}.{attr}"
    assert not missing


def test_cycles_backend_resolves():
    assert isinstance(importlib.import_module("gdecomp.cycles").BACKEND, str)
