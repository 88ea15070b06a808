"""The benchmark under perfbench/ wraps volsurf functions by module and name
and imports some of them directly; a renamed or deleted one would otherwise
show up only as a crash of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from volsurf.grid import build_interval
from volsurf.model import ModelParams, State
from volsurf.monotone import run_monotone
from volsurf.stepper import StepConfig


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


def test_monotone_counts_read_a_real_report():
    # the traced benchmark reads these fields off run_monotone's report
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0)
    s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    result = run_monotone(s0, g, p, StepConfig(dt=0.05), 0.2)
    counts = _TRACING._monotone_counts(result)
    assert counts["sweeps"] == result[1].k_final >= 1
    assert counts["iterate_bytes"] > 0
