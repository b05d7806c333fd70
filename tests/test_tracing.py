"""The benchmark's tracer (perfbench/tracing.py) wraps gdecomp functions
and methods by name from outside the package, perfbench/run.py reads
`gdecomp.cycles.BACKEND`, and perfbench/workloads.py calls gdecomp
functions off the modules it is handed. A rename in `src/` would break
the benchmark without failing any other test, so every such name must
resolve."""

import ast
import importlib
import importlib.util
from functools import reduce
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _module_name(node):
    """"gdecomp.x" for a node gd["gdecomp.x"], else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "gd" and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    return None


def _workload_names():
    """(module, attribute) for each attribute workloads.py takes off a
    module gd["gdecomp.x"], directly or through a name it binds the
    module to within a setup function."""
    names = set()
    for func in ast.parse(WORKLOADS.read_text()).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets[0]
                pairs = (zip(targets.elts, node.value.elts)
                         if isinstance(targets, ast.Tuple)
                         and isinstance(node.value, ast.Tuple)
                         else [(targets, node.value)])
                for target, value in pairs:
                    module = _module_name(value)
                    if module and isinstance(target, ast.Name):
                        bound[target.id] = module
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                module = _module_name(node.value)
                if module is None and isinstance(node.value, ast.Name):
                    module = bound.get(node.value.id)
                if module:
                    names.add((module, node.attr))
    return names


def test_workload_names_resolve():
    names = _workload_names()
    # the reader finds the calls the workloads are built on
    assert {("gdecomp.groups", "normal_form"), ("gdecomp.cli", "main"),
            ("gdecomp.fixtures", "load_fixture"),
            ("gdecomp.cover", "order_threshold")} <= names
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
