"""The benchmark under perfbench/ wraps volsurf functions by module and name
and imports some of them directly; a renamed or deleted one would otherwise
show up only as a crash of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()

# patched one by one in Tracer.install, or imported by perfbench/child.py and
# perfbench/checks.py
_OTHER_NAMES = (
    [("volsurf.cli", attr) for attr in _TRACING.COMMANDS]
    + [("volsurf.cli", "record"), ("volsurf.cli", "run_monotone"),
       ("volsurf.linsolve", "solve"), ("volsurf.diagnostics", "integrate"),
       ("volsurf.stepper", "integrate")]
    + [("volsurf.cli", attr) for attr in (
        "load_config", "validate_config", "build_geometry", "build_params",
        "build_initial_state", "build_step_config")])


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, _ in _TRACING.PLAIN] + _OTHER_NAMES)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
