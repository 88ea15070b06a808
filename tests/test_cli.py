import concurrent.futures
import copy
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import volsurf
import volsurf.cli as cli
from volsurf import (diagnostics, errors, grid, linsolve, model, monotone,
                     stepper)
from volsurf.cli import SUITES, main
from volsurf.monotone import run_monotone


def base_config(**overrides):
    cfg = {
        "geometry": {"kind": "interval", "n_cells": 10, "length": 1.0},
        "params": {"alpha": 1.0, "beta": 1.0, "delta_u": 1.0},
        "initial": {"kind": "constant", "u0": 1.0, "v0": 1.0},
        "step": {"dt": 0.02},
        "t_end": 0.1,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


# ----------------------------------------------------------------- plumbing


def test_no_arguments_prints_help(capsys):
    assert main([]) == 2
    assert "simulate" in capsys.readouterr().out


def test_version_flag():
    assert main(["--version"]) == 0


def test_every_exported_name_resolves():
    missing = [name for name in volsurf.__all__ if not hasattr(volsurf, name)]
    assert missing == []
    # each module's __all__ is the one list of its public names
    assert len(set(volsurf.__all__)) == len(volsurf.__all__)
    modules = (errors, grid, linsolve, model, monotone, stepper, diagnostics)
    assert volsurf.__all__ == ["__version__"] + [
        name for module in modules for name in module.__all__]
    assert set(volsurf.__all__) == {
        "__version__", "DegenerateInputError", "LinearSolverError",
        "MonotoneConvergenceError", "OracleFailure", "StepFailure",
        "GridGeometry", "GridKind", "build_interval", "build_periodic_strip",
        "build_polar_disk", "trace", "SolveMethod", "SolveStats",
        "assemble_shifted", "check_residual", "factor", "solve", "Equilibrium",
        "ModelParams", "State", "ckp_constant", "constant_upper_solution",
        "dissipation", "entropy", "entropy_decomposition",
        "equilibrium_entropy", "equilibrium_from_measures",
        "equilibrium_state", "lipschitz_bounds", "mass", "reaction_F",
        "reaction_G", "shifted_f", "shifted_g", "solve_equilibrium",
        "ComparisonVerdict", "IterationReport", "SandwichVerdict",
        "check_sandwich", "comparison_pairs", "run_monotone", "StepConfig",
        "integrate", "linear_bulk_step", "linear_surface_step",
        "semi_discrete_rhs", "RateFit", "TraceSeries", "audit_ckp",
        "audit_degenerate_coupling", "check_entropy_dissipation_identity",
        "dense_oracle", "fit_rate", "record", "write_series_csv"}


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_missing_config_is_usage_error(capsys):
    assert main(["simulate"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = base_config()
    cfg["step"]["newton_tolerance"] = 1e-9  # typo must not pass silently
    path = write_config(tmp_path, cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2
    assert "newton_tolerance" in capsys.readouterr().err


def test_negative_initial_data_rejected(tmp_path):
    cfg = base_config(initial={"kind": "cosine", "u0": 0.5, "v0": 0.5,
                               "amplitude": 0.8})
    path = write_config(tmp_path, cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2


def test_amplitude_on_constant_profile_rejected(tmp_path):
    cfg = base_config(initial={"kind": "constant", "u0": 1.0, "v0": 1.0,
                               "amplitude": 0.1})
    path = write_config(tmp_path, cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2


def test_surface_diffusion_on_interval_rejected(tmp_path):
    cfg = base_config()
    cfg["params"]["delta_v"] = 1.0
    path = write_config(tmp_path, cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2


def test_nan_initial_value_rejected(tmp_path, capsys):
    # Python's json reads NaN; State's "< 0" check would let it through
    cfg = base_config(initial={"kind": "constant", "u0": float("nan"),
                               "v0": 1.0})
    path = write_config(tmp_path, cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2
    assert "NaN" in capsys.readouterr().err


def test_infinite_t_end_rejected(tmp_path, capsys):
    path = write_config(tmp_path, base_config(t_end=float("inf")))
    assert main(["monotone", path, "--out", str(tmp_path)]) == 2
    assert "Infinity" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400])
def test_overflowing_number_rejected(tmp_path, capsys, literal):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(t_end=123.0)).replace("123.0",
                                                                 literal))
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_infinite_t_end_override_rejected(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["simulate", path, "--out", str(tmp_path),
                 "--t-end", "inf"]) == 2
    assert "t_end" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("geometry", "n_cells", 10.7),
    ("geometry", "n_cells", True),
    ("geometry", "n_cells", "10"),
    ("step", "newton_max_iter", 2.5),
    ("geometry", "nx", 8.5),
    ("geometry", "ny", 4.5),
    ("geometry", "nr", 4.5),
    ("geometry", "ntheta", 8.5),
    ("geometry", "ntheta", False),
])
def test_fractional_integer_key_rejected(tmp_path, capsys, section, key,
                                         value):
    # every int-annotated argument of a builder or StepConfig, each set in
    # the first LEAF_CONFIGS config whose section has the key
    cfg = copy.deepcopy(next((c for c in LEAF_CONFIGS.values()
                              if key in c[section]), base_config()))
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2
    assert "whole number" in capsys.readouterr().err


def test_params_schema_follows_the_dataclass(tmp_path, capsys, monkeypatch):
    # the params keys, their types and defaults are read off the dataclass
    extended = dataclasses.make_dataclass(
        "ExtendedParams", [("extra", float, 0.0)],
        bases=(cli.ModelParams,), frozen=True)
    monkeypatch.setattr(cli, "ModelParams", extended)
    cfg = base_config()
    cfg["params"]["extra"] = 2
    assert main(["equilibrium", write_config(tmp_path, cfg)]) == 0
    cfg["params"]["extra"] = "2"
    assert main(["equilibrium", write_config(tmp_path, cfg)]) == 2
    assert "params.extra must be a finite number" in capsys.readouterr().err


def test_whole_float_for_integer_key_accepted(tmp_path):
    cfg = base_config()
    cfg["geometry"]["n_cells"] = 10.0
    path = write_config(tmp_path, cfg)
    assert main(["equilibrium", path]) == 0


@pytest.mark.parametrize("dotted, value", [
    ("step.dt", None),
    ("initial.u0", None),
    ("seed", None),
    ("out", 5),
    ("geometry.kind", ["interval"]),
    ("params.alpha", "2"),
    ("initial.u0", True),
    ("t_end", True),
    ("seed", 1.5),
])
def test_mistyped_config_value_rejected(tmp_path, capsys, dotted, value):
    cfg = base_config(seed=3)
    *head, last = dotted.split(".")
    node = cfg
    for key in head:
        node = node[key]
    node[last] = value
    path = write_config(tmp_path, cfg)
    assert main(["equilibrium", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and last in err


LEAF_CONFIGS = {
    "interval": base_config(seed=3, out="run"),
    "strip": {
        "geometry": {"kind": "strip", "nx": 8, "ny": 4, "width": 2.0,
                     "height": 1.0},
        "params": {"alpha": 2.0, "beta": 1.0, "delta_u": 1.0,
                   "delta_v": 0.1, "k_u": 1.0, "k_v": 1.0},
        "initial": {"kind": "cosine", "u0": 1.0, "v0": 0.5,
                    "amplitude": 0.3},
        "step": {"dt": 0.01, "newton_tol": 1e-12, "newton_max_iter": 25,
                 "linear_tol": 1e-10},
        "t_end": 0.1,
    },
    "disk": {
        "geometry": {"kind": "disk", "nr": 4, "ntheta": 8, "radius": 1.0},
        "params": {"alpha": 1.0, "beta": 2.0, "delta_u": 1.0},
        "initial": {"kind": "step", "u0": 1.0, "v0": 1.0, "amplitude": 0.5},
        "step": {"dt": 0.02},
        "t_end": 0.2,
        "seed": 0,
    },
}


def _leaf_paths(node, prefix=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


# the extremes reach past float and index ranges and overflow powers
_NUMBERS = st.one_of(st.integers(-100, 100), st.floats(-100, 100),
                     st.sampled_from([0, 5e-324, 1e-300, 1e300, 400]))
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                          _NUMBERS)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _JSON_SCALARS, max_size=3))
_LEAVES = sorted({".".join(path) for cfg in LEAF_CONFIGS.values()
                  for path in _leaf_paths(cfg)})
# the explicit oracle's step count grows with the stiffness, so each stiff
# example would cost up to its evaluation cap, seconds of work
_COMMANDS = ([["equilibrium"], ["simulate"], ["monotone"]]
             + [["verify", "--suite", suite] for suite in sorted(SUITES)
                if suite != "oracle"])
_CELL_COUNTS = {"interval": ("n_cells",), "strip": ("nx", "ny"),
                "disk": ("nr", "ntheta")}


def _changes(kind):
    """(dotted leaf, value) pairs for kind's config: one leaf takes any JSON
    value, up to two more take numbers. Leaves of other kinds' configs add
    optional keys; their geometry keys are left out, as the schema always
    rejects them."""
    own = {".".join(path) for path in _leaf_paths(LEAF_CONFIGS[kind])}
    leaf = st.sampled_from([leaf for leaf in _LEAVES if leaf in own
                            or not leaf.startswith("geometry.")])
    return st.tuples(
        st.tuples(leaf, _JSON_VALUES),
        st.lists(st.tuples(leaf, _NUMBERS), max_size=2),
    ).map(lambda drawn: [drawn[0], *drawn[1]])


def _bounded_run(cfg):
    """False for more than 64 cells, a t_end beyond ten steps or more than
    100 Newton iterations a step; values that are not numbers there are
    rejected before any run."""
    geo, step = cfg["geometry"], cfg["step"]
    try:
        cells = math.prod(int(geo[key]) for key in _CELL_COUNTS[geo["kind"]])
        return (cells <= 64 and cfg["t_end"] <= 10 * step["dt"]
                and step.get("newton_max_iter", 0) <= 100)
    except (KeyError, TypeError, ValueError):
        return True


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of([st.tuples(st.just(kind), _changes(kind))
                       for kind in sorted(LEAF_CONFIGS)]),
       command=st.sampled_from(_COMMANDS))
@example(case=("interval", [("geometry.length", 5e-324)]),
         command=["equilibrium"])
@example(case=("strip", [("geometry.ny", 1e300)]), command=["equilibrium"])
@example(case=("interval", [("params.alpha", 400), ("initial.u0", 10)]),
         command=["monotone"])
def test_changed_leaf_values_exit_0_to_3(tmp_path, case, command):
    # only equilibrium runs on grids larger than memory holds or with an
    # astronomical step or iteration count; those runs are not covered
    kind, changes = case
    cfg = copy.deepcopy(LEAF_CONFIGS[kind])
    for dotted, value in changes:
        cli._set_dotted(cfg, dotted, value)
    if command == ["equilibrium"]:
        assert main(["equilibrium", write_config(tmp_path, cfg)]) in (0, 2)
    else:
        assume(_bounded_run(cfg))
        path = write_config(tmp_path, cfg)
        assert main(command + [path, "--out", str(tmp_path / "out")]) in (
            0, 1, 2, 3)


# ---------------------------------------------------------------- equilibrium


def test_equilibrium_prints_symmetric_values(tmp_path, capsys):
    # unit interval with u0 = v0 = 1 carries mass 3 and equilibrates at 1
    path = write_config(tmp_path, base_config())
    assert main(["equilibrium", path]) == 0
    lines = dict(line.split("=") for line in
                 capsys.readouterr().out.strip().splitlines())
    assert float(lines["u_inf"]) == pytest.approx(1.0, rel=1e-12)
    assert float(lines["v_inf"]) == pytest.approx(1.0, rel=1e-12)
    assert float(lines["mass"]) == pytest.approx(3.0)
    assert float(lines["ckp_constant"]) == pytest.approx(1.0 / 24.0)


def test_equilibrium_with_large_exponent_and_data(tmp_path, capsys):
    # u**alpha and v**beta overflow here; the balance is solved in log form
    path = write_config(tmp_path, base_config(
        params={"alpha": 100, "beta": 1.0, "delta_u": 1.0},
        initial={"kind": "constant", "u0": 1.0, "v0": 100}))
    assert main(["equilibrium", path]) == 0
    lines = dict(line.split("=") for line in
                 capsys.readouterr().out.strip().splitlines())
    u_inf, v_inf = float(lines["u_inf"]), float(lines["v_inf"])
    # detailed balance u^100 = v and the mass 1 + 100*2*100
    assert 100.0 * np.log(u_inf) == pytest.approx(np.log(v_inf), rel=1e-12)
    assert u_inf + 200.0 * v_inf == pytest.approx(20001.0, rel=1e-13)


@pytest.mark.parametrize("geometry", [
    {"kind": "interval", "n_cells": 10, "length": 5e-324},
    {"kind": "interval", "n_cells": 10, "length": 1e-310},
    {"kind": "strip", "nx": 4, "ny": 3, "width": 5e-324, "height": 1.0},
    {"kind": "strip", "nx": 4, "ny": 3, "width": 1.0, "height": 5e-324},
    {"kind": "strip", "nx": 4, "ny": 1e300, "width": 1.0, "height": 1.0},
    {"kind": "disk", "nr": 4, "ntheta": 6, "radius": 5e-324},
    {"kind": "disk", "nr": 4, "ntheta": 6, "radius": 1e300},
], ids=["length-subnormal", "length-tiny", "width-subnormal",
        "height-subnormal", "ny-huge", "radius-subnormal", "radius-huge"])
def test_geometry_outside_float_range_is_usage_error(tmp_path, capsys,
                                                     geometry):
    # cell volumes, transmissibilities or the cell count leave the float or
    # index range although every number is finite
    path = write_config(tmp_path, base_config(geometry=geometry))
    assert main(["equilibrium", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ------------------------------------------------------------------- simulate


def test_simulate_writes_outputs_and_manifest_roundtrips(tmp_path):
    cfg = base_config(initial={"kind": "cosine", "u0": 1.0, "v0": 0.5,
                               "amplitude": 0.3})
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "run1"
    assert main(["simulate", path, "--out", str(out1)]) == 0
    series1 = (out1 / "series.csv").read_bytes()
    assert series1.startswith(b"t,mass,E,D,E_rel,I1,I2,L1_u,L1_v\n")
    final = (out1 / "final_state.csv").read_text().splitlines()
    assert final[0] == "field,index,coord,value"

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["tolerances"]["dt"] == 0.02

    # the manifest itself is a valid config and reproduces the run exactly
    out2 = tmp_path / "run2"
    assert main(["simulate", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out2 / "series.csv").read_bytes() == series1


def test_simulate_t_end_override(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "short"
    assert main(["simulate", path, "--out", str(out), "--t-end", "0.04"]) == 0
    n_rows = len((out / "series.csv").read_text().splitlines()) - 1
    assert n_rows == 3  # initial record plus two steps
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["t_end"] == 0.04


# u0**alpha = 1e400 overflows the reaction rate and the constant upper box
OVERFLOW_CONFIG = base_config(
    params={"alpha": 400, "beta": 1, "delta_u": 1.0},
    initial={"kind": "constant", "u0": 10, "v0": 1})


def test_simulate_with_overflowing_reaction_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, OVERFLOW_CONFIG)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert not (tmp_path / "series.csv").exists()


def test_simulate_out_of_memory_is_usage_error(tmp_path, capsys,
                                               monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 224. GiB")

    monkeypatch.setattr(stepper._CoupledStepper, "__init__", no_memory)
    path = write_config(tmp_path, base_config())
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large for memory" in err


# ------------------------------------------------------------------- monotone


def test_monotone_writes_gap_table(tmp_path):
    cfg = base_config(initial={"kind": "constant", "u0": 1.0, "v0": 0.0})
    cfg["params"]["alpha"] = 2.0
    path = write_config(tmp_path, cfg)
    out = tmp_path / "mono"
    assert main(["monotone", path, "--out", str(out)]) == 0
    rows = (out / "gaps.csv").read_text().splitlines()
    assert rows[0] == "k,gap,margin_lower,margin_cross,margin_upper"
    assert len(rows) >= 3
    gaps = [float(r.split(",")[1]) for r in rows[1:]]
    assert gaps == sorted(gaps, reverse=True)
    assert (out / "final_lower.csv").exists()
    assert (out / "final_upper.csv").exists()

    # the margin columns are the report's, sweep by sweep
    _, geom, params, state0, step_cfg, t_end = cli._setup(cfg)
    _, report = run_monotone(state0, geom, params, step_cfg, t_end)
    margins = [tuple(float(x) for x in r.split(",")[2:]) for r in rows[2:]]
    assert margins == report.margins


def test_monotone_nonconvergence_exits_3(tmp_path, capsys):
    cfg = base_config(initial={"kind": "constant", "u0": 1.0, "v0": 0.0})
    path = write_config(tmp_path, cfg)
    rc = main(["monotone", path, "--out", str(tmp_path),
               "--outer-tol", "1e-15", "--k-max", "2"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_monotone_nan_outer_tol_is_usage_error(tmp_path, capsys):
    cfg = base_config(initial={"kind": "constant", "u0": 1.0, "v0": 0.0})
    path = write_config(tmp_path, cfg)
    rc = main(["monotone", path, "--out", str(tmp_path),
               "--outer-tol", "nan"])
    assert rc == 2
    assert "outer_tol" in capsys.readouterr().err


# caps the address space at 2 GiB, so that an allocation which slips past the
# memory check fails at once instead of taking the machine's memory, and
# times main alone, without the interpreter's start-up and imports
_CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
from volsurf.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def test_monotone_horizon_beyond_memory_exits_2_at_once(tmp_path):
    # 1e9 time levels: the time grid alone is 7.45 GiB, the pair stacks of
    # the sweeps in flight are far beyond any physical memory
    path = write_config(tmp_path, base_config(step={"dt": 1e-3}, t_end=1e6))
    src = os.path.dirname(os.path.dirname(volsurf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "monotone", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "too large for memory" in proc.stderr
    assert "iterate pair stacks" in proc.stderr
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize("command", [["monotone"],
                                     ["verify", "--suite", "sandwich"]])
def test_upper_box_overflow_is_usage_error(tmp_path, capsys, command):
    path = write_config(tmp_path, OVERFLOW_CONFIG)
    assert main(command + [path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "upper solution" in err


# --------------------------------------------------------------------- verify


def oracle_config(dt):
    return {
        "geometry": {"kind": "interval", "n_cells": 3, "length": 1.0},
        "params": {"alpha": 2.0, "beta": 1.0, "delta_u": 1.0},
        "initial": {"kind": "step", "u0": 0.8, "v0": 0.8, "amplitude": 0.7},
        "step": {"dt": dt},
        "t_end": 0.1,
    }


def test_verify_oracle_passes_at_fine_dt(tmp_path):
    path = write_config(tmp_path, oracle_config(1e-3))
    assert main(["verify", path, "--suite", "oracle",
                 "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["suite"] == "oracle"
    assert verdict["passed"] is True
    assert verdict["metrics"]["sup_diff"] <= verdict["metrics"]["tolerance"]


def test_verify_oracle_flags_coarse_dt(tmp_path):
    # two backward-Euler steps across the transient genuinely miss the
    # reference; the suite must say so rather than pass
    path = write_config(tmp_path, oracle_config(0.05))
    assert main(["verify", path, "--suite", "oracle",
                 "--out", str(tmp_path)]) == 1
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["passed"] is False


def test_verify_oracle_on_stiff_diffusion_exits_3(tmp_path, capsys):
    # explicit steps shrink with 1/delta_u; the evaluation cap ends the run
    cfg = base_config(params={"alpha": 1.0, "beta": 1.0, "delta_u": 1e6},
                      initial={"kind": "cosine", "u0": 1.0, "v0": 0.5,
                               "amplitude": 0.3})
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", "oracle",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "evaluations" in err


def test_verify_oracle_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a reference trajectory that blows up is a runtime failure, not a verdict
    monkeypatch.setattr(diagnostics, "semi_discrete_rhs",
                        lambda u, v, geom, params: (1e3 * (1.0 + u ** 2), v))
    path = write_config(tmp_path, oracle_config(1e-3))
    assert main(["verify", path, "--suite", "oracle",
                 "--out", str(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["conservation", "entropy", "ckp",
                                   "sandwich", "comparison", "linear-case"])
def test_verify_suites_pass_on_small_interval_run(tmp_path, suite):
    cfg = base_config(initial={"kind": "step", "u0": 1.0, "v0": 0.5,
                               "amplitude": 0.4},
                      seed=7)
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", suite,
                 "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["passed"] is True


@pytest.mark.parametrize("suite", ["entropy", "ckp"])
def test_verify_entropy_suites_pass_with_unequal_rate_constants(tmp_path, suite):
    cfg = {
        "geometry": {"kind": "interval", "n_cells": 20, "length": 1.0},
        "params": {"alpha": 2, "beta": 1, "delta_u": 1.0, "delta_v": 0.0,
                   "k_u": 5, "k_v": 0.2},
        "initial": {"kind": "cosine", "u0": 1.0, "v0": 0.5, "amplitude": 0.4},
        "step": {"dt": 0.01},
        "t_end": 2.0,
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", suite,
                 "--out", str(tmp_path)]) == 0


def test_verify_comparison_builds_one_stepper(tmp_path, monkeypatch):
    built = []
    real_init = stepper._CoupledStepper.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(stepper._CoupledStepper, "__init__", counting_init)
    cfg = base_config(initial={"kind": "step", "u0": 1.0, "v0": 0.5,
                               "amplitude": 0.4}, seed=7)
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", "comparison",
                 "--out", str(tmp_path)]) == 0
    assert len(built) == 1
    metrics = json.loads((tmp_path / "verdict.json").read_text())["metrics"]
    assert metrics["pairs"] == 5


def test_verify_comparison_failure_reports_every_pair(tmp_path, monkeypatch):
    # a negative slack demands a margin of at least the data scale, which no
    # pair keeps; the reported worst margin is still taken over all 5 pairs
    monkeypatch.setattr(monotone, "COMPARISON_SLACK", -1.0)
    seen = []
    real_pairs = cli.comparison_pairs
    monkeypatch.setattr(cli, "comparison_pairs",
                        lambda *a: seen.extend(real_pairs(*a)) or seen)
    cfg = base_config(initial={"kind": "step", "u0": 1.0, "v0": 0.5,
                               "amplitude": 0.4}, seed=7)
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", "comparison",
                 "--out", str(tmp_path)]) == 1
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["passed"] is False
    assert len(seen) == 5 and not any(v.passed for v in seen)
    margins = [v.worst_violation for v in seen]
    assert len(set(margins)) == 5
    assert verdict["metrics"]["worst_margin"] == min(margins)


def test_verify_degenerate_suite_on_strip(tmp_path):
    cfg = {
        "geometry": {"kind": "strip", "nx": 8, "ny": 4,
                     "width": 1.0, "height": 1.0},
        "params": {"alpha": 2.0, "beta": 1.0, "delta_u": 1.0, "delta_v": 0.0},
        "initial": {"kind": "cosine", "u0": 1.0, "v0": 0.5, "amplitude": 0.3},
        "step": {"dt": 0.02},
        "t_end": 0.2,
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", "degenerate",
                 "--out", str(tmp_path)]) == 0


def test_verify_degenerate_suite_rejects_surface_diffusion(tmp_path):
    cfg = {
        "geometry": {"kind": "strip", "nx": 8, "ny": 4,
                     "width": 1.0, "height": 1.0},
        "params": {"alpha": 2.0, "beta": 1.0, "delta_u": 1.0, "delta_v": 1.0},
        "initial": {"kind": "cosine", "u0": 1.0, "v0": 0.5, "amplitude": 0.3},
        "step": {"dt": 0.02},
        "t_end": 0.2,
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", "degenerate",
                 "--out", str(tmp_path)]) == 2


def test_verify_linear_case_requires_linear_exponents(tmp_path):
    cfg = base_config()
    cfg["params"]["alpha"] = 2.0
    path = write_config(tmp_path, cfg)
    assert main(["verify", path, "--suite", "linear-case",
                 "--out", str(tmp_path)]) == 2


def test_suite_registry_matches_parser_choices():
    assert sorted(SUITES) == ["ckp", "comparison", "conservation",
                              "degenerate", "entropy", "linear-case",
                              "oracle", "sandwich"]


# ---------------------------------------------------------------------- sweep


def sweep_spec():
    return {
        "template": base_config(initial={"kind": "cosine", "u0": 1.0,
                                         "v0": 0.5, "amplitude": 0.3},
                                t_end=1.0),
        "grid": {"params.alpha": [1.0, 2.0], "step.dt": [0.02, 0.01]},
    }


def test_sweep_is_deterministic_and_parallel_safe(tmp_path):
    path = write_config(tmp_path, sweep_spec(), name="sweep.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["sweep", path, "--out", str(out_a)]) == 0
    assert main(["sweep", path, "--out", str(out_b)]) == 0
    assert main(["sweep", path, "--out", str(out_c), "--jobs", "2"]) == 0
    bytes_a = (out_a / "sweep.csv").read_bytes()
    assert bytes_a == (out_b / "sweep.csv").read_bytes()
    assert bytes_a == (out_c / "sweep.csv").read_bytes()

    rows = bytes_a.decode().splitlines()
    assert rows[0] == "run,params.alpha,step.dt,C0_emp,eed_min,r_squared,mass_drift"
    assert len(rows) == 5  # header + 2x2 grid
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[3]) > 0.0      # C0_emp
        assert float(cells[4]) > 0.0      # eed_min
        assert float(cells[5]) >= 0.99    # r_squared


def geometry_sweep_spec():
    strip = {"kind": "strip", "nx": 4, "ny": 2, "width": 1.0, "height": 2.0}
    disk = {"kind": "disk", "nr": 3, "ntheta": 8, "radius": 1.0}
    return {
        "template": {
            "geometry": strip,
            "params": {"alpha": 1, "beta": 1, "delta_u": 1.0, "delta_v": 0.5},
            "initial": {"kind": "cosine", "u0": 1.0, "v0": 0.5,
                        "amplitude": 0.3},
            "step": {"dt": 0.05},
            "t_end": 1.0,
        },
        "grid": {"geometry": [strip, disk], "params.alpha": [1, 2]},
    }


def test_sweep_over_geometries_is_byte_identical_across_jobs(tmp_path):
    path = write_config(tmp_path, geometry_sweep_spec(), name="sweep.json")
    for jobs in ("1", "2"):
        assert main(["sweep", path, "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    serial = (tmp_path / "1" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "2" / "sweep.csv").read_bytes()
    rows = serial.decode().splitlines()
    assert len(rows) == 5
    assert '"kind": "disk"' in rows[3] and '"kind": "strip"' in rows[1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    path = write_config(tmp_path, sweep_spec(), name="sweep.json")
    assert main(["sweep", path, "--out", str(tmp_path), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


class RecordingExecutor:
    """Stands in for the process pool: records its size, runs in-process."""

    sizes = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_sweep_pool_has_at_most_one_worker_per_run(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    spec = sweep_spec()
    spec["grid"] = {"params.alpha": [1.0, 2.0]}
    path = write_config(tmp_path, spec, name="sweep.json")
    assert main(["sweep", path, "--out", str(tmp_path), "--jobs", "64"]) == 0
    assert RecordingExecutor.sizes == [2]
    # a single run needs no pool at all
    spec["grid"] = {"params.alpha": [2.0]}
    path = write_config(tmp_path, spec, name="sweep.json")
    assert main(["sweep", path, "--out", str(tmp_path), "--jobs", "4"]) == 0
    assert RecordingExecutor.sizes == [2]


def sweep_errors(capsys, path, out):
    """Exit code and stderr of the sweep at --jobs 1 and at --jobs 2."""
    results = []
    for jobs in ("1", "2"):
        rc = main(["sweep", path, "--out", str(out), "--jobs", jobs])
        results.append((rc, capsys.readouterr().err))
    return results


def test_sweep_bad_grid_value_fails_alike_in_workers(tmp_path, capsys):
    bad = {"kind": "strip", "nx": 4, "ny": 2, "width": 1.0, "height": -2.0}
    spec = geometry_sweep_spec()
    spec["grid"]["geometry"].append(bad)
    path = write_config(tmp_path, spec, name="sweep.json")
    serial, pooled = sweep_errors(capsys, path, tmp_path)
    assert serial == pooled
    assert serial[0] == 2
    assert serial[1].startswith("error: ") and "height" in serial[1]
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_step_failure_fails_alike_in_workers(tmp_path, capsys):
    spec = geometry_sweep_spec()
    spec["template"]["step"].update(newton_max_iter=1, newton_tol=1e-14)
    path = write_config(tmp_path, spec, name="sweep.json")
    serial, pooled = sweep_errors(capsys, path, tmp_path)
    assert serial == pooled
    assert serial[0] == 3
    assert serial[1].startswith("error: Newton")
    assert "Traceback" not in serial[1]


def lockstep_sweep_spec(step, grid):
    return {
        "template": {
            "geometry": {"kind": "strip", "nx": 4, "ny": 2, "width": 1.0,
                         "height": 2.0},
            "params": {"alpha": 1, "beta": 1, "delta_u": 1.0,
                       "delta_v": 0.5},
            "initial": {"kind": "cosine", "u0": 1.0, "v0": 0.5,
                        "amplitude": 0.4},
            "step": step,
            "t_end": 1.0,
        },
        "grid": grid,
    }


def test_sweep_failure_order_matches_one_run_at_a_time(tmp_path, capsys,
                                                      monkeypatch):
    # at an absolute target of 1e-15 the alpha = 1 runs give up later than
    # the alpha = 2 runs, so run 0, the first failure in grid order, is the
    # last to fail in a lockstep batch
    spec = lockstep_sweep_spec(
        {"dt": 0.01, "newton_tol": 1e-15, "newton_max_iter": 3},
        {"initial.amplitude": [0.4, 0.1], "params.alpha": [1, 2]})
    path = write_config(tmp_path, spec, name="sweep.json")
    batches = []
    real_batch = cli._record_batch
    monkeypatch.setattr(cli, "_record_batch", lambda states, *a: batches.append(
        len(states)) or real_batch(states, *a))
    lockstep = sweep_errors(capsys, path, tmp_path)
    # --jobs 1 marches the four runs together, and after a failure runs
    # them one by one up to the first that fails
    assert batches == [4, 1]
    monkeypatch.setattr(cli, "_SWEEP_BATCH_ROWS", 1)
    one_by_one = sweep_errors(capsys, path, tmp_path)
    assert batches == [4, 1, 1]
    assert lockstep == one_by_one
    rc, err = lockstep[0]
    assert rc == 3
    assert err == ("error: Newton did not reach tolerance in 3 iterations at "
                   "t=0.07 (reduce dt)\n")
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_stops_at_a_failing_first_run(tmp_path, capsys, monkeypatch):
    # geometry.nx sorts first, so runs 0-3 and 4-7 are two lockstep
    # groups; run 0 fails, and the second group never runs
    spec = lockstep_sweep_spec(
        {"dt": 0.01, "newton_tol": 1e-15, "newton_max_iter": 3},
        {"geometry.nx": [4, 6], "initial.amplitude": [0.4, 0.1],
         "params.alpha": [1, 2]})
    path = write_config(tmp_path, spec, name="sweep.json")
    batches = []
    real_batch = cli._record_batch
    monkeypatch.setattr(cli, "_record_batch", lambda states, *a: batches.append(
        len(states)) or real_batch(states, *a))
    assert main(["sweep", path, "--out", str(tmp_path), "--jobs", "1"]) == 3
    assert batches == [4, 1]
    assert capsys.readouterr().err == (
        "error: Newton did not reach tolerance in 3 iterations at t=0.07 "
        "(reduce dt)\n")


def test_sweep_results_read_no_batch_past_the_first_failure():
    batches = [[0, 2], [1, 3], [4, 5]]
    ok = {"C0_emp": 1.0}
    late, early = ValueError("run 2"), ValueError("run 1")
    for outcomes, raised, read in (
            # run 2 fails; batch [1, 3] may hold an earlier failure
            ([[ok, late], [ok, ok], [ok, ok]], late, 2),
            ([[ok, late], [early]], early, 2),
            ([[ok, ok], [ok, ok], [late]], late, 3)):
        seen = []
        with pytest.raises(ValueError) as exc:
            cli._sweep_results(batches, 6, (
                seen.append(o) or o for o in outcomes))
        assert exc.value is raised and len(seen) == read
    assert cli._sweep_results(batches, 6, [[ok, ok]] * 3) == [ok] * 6


def test_sweep_with_interleaved_groups_is_byte_identical(tmp_path,
                                                         monkeypatch):
    # step.dt is the last grid key, so its two lockstep groups alternate in
    # grid order: runs 0, 2, 4, 6 and runs 1, 3, 5, 7
    spec = lockstep_sweep_spec(
        {"dt": 0.05},
        {"initial.amplitude": [0.2, 0.4], "params.beta": [1, 2.5],
         "step.dt": [0.05, 0.04]})
    path = write_config(tmp_path, spec, name="sweep.json")
    batches = []
    real_batch = cli._record_batch
    monkeypatch.setattr(cli, "_record_batch", lambda states, *a: batches.append(
        len(states)) or real_batch(states, *a))
    outputs = []
    for jobs, rows in (("1", 8), ("2", 8), ("1", 1)):
        monkeypatch.setattr(cli, "_SWEEP_BATCH_ROWS", rows)
        out = tmp_path / f"{jobs}-{rows}"
        assert main(["sweep", path, "--out", str(out), "--jobs", jobs]) == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert batches[:2] == [4, 4] and batches[2:] == [1] * 8
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].decode().splitlines()) == 9


def test_sweep_batches_are_bounded_and_cut_for_jobs(monkeypatch):
    keys = ["geometry", "initial.u0", "params.alpha", "params.k_v"]
    combos = [(geo, u0, alpha, 1.0) for geo in ("strip", "disk")
              for u0 in (1.0, 2.0) for alpha in (1, 2, 3)]
    # one group per geometry, in grid order
    assert cli._sweep_batches(keys, combos, 1) == [list(range(6)),
                                                   list(range(6, 12))]
    monkeypatch.setattr(cli, "_SWEEP_BATCH_ROWS", 4)
    assert cli._sweep_batches(keys, combos, 1) == [
        [0, 1, 2, 3], [4, 5], [6, 7, 8, 9], [10, 11]]
    # more jobs than batches: the largest batch is halved, first one first
    assert cli._sweep_batches(keys, combos, 5) == [
        [0, 1], [2, 3], [4, 5], [6, 7, 8, 9], [10, 11]]
    assert cli._sweep_batches(keys, combos, 6) == [
        [0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]
    assert cli._sweep_batches(keys, combos, 64) == [[i] for i in range(12)]
    # batches come in the order of their first runs
    monkeypatch.setattr(cli, "_SWEEP_BATCH_ROWS", 2)
    assert cli._sweep_batches(["params.alpha", "step.dt"], [
        (1, 0.1), (1, 0.2), (2, 0.1), (2, 0.2), (3, 0.1)], 4) == [
            [0], [1, 3], [2], [4]]
    # a key that enters K, here delta_u, splits the groups
    assert cli._sweep_batches(["params.delta_u"], [(1.0,), (2.0,)], 1) == [
        [0], [1]]


def _die(template, keys, combos):
    os._exit(1)


def test_sweep_dead_worker_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_sweep_batch", _die)
    path = write_config(tmp_path, geometry_sweep_spec(), name="sweep.json")
    assert main(["sweep", path, "--out", str(tmp_path), "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_unknown_grid_key(tmp_path, capsys):
    spec = sweep_spec()
    spec["grid"] = {"params.gamma": [1.0]}
    path = write_config(tmp_path, spec, name="sweep.json")
    assert main(["sweep", path, "--out", str(tmp_path)]) == 2
    assert "gamma" in capsys.readouterr().err


def test_sweep_rejects_nan_grid_value(tmp_path, capsys):
    spec = sweep_spec()
    spec["grid"] = {"initial.u0": [1.0, float("nan")]}
    path = write_config(tmp_path, spec, name="sweep.json")
    assert main(["sweep", path, "--out", str(tmp_path)]) == 2
    assert "NaN" in capsys.readouterr().err


def test_sweep_rejects_empty_grid(tmp_path):
    spec = sweep_spec()
    spec["grid"] = {}
    path = write_config(tmp_path, spec, name="sweep.json")
    assert main(["sweep", path, "--out", str(tmp_path)]) == 2
