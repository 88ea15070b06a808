import json

import numpy as np
import pytest

import volsurf.diagnostics as diagnostics
from volsurf.cli import SUITES, main


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


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_missing_config_is_usage_error(capsys):
    assert main(["simulate"]) == 2
    assert "error" in capsys.readouterr().err


def test_config_given_twice_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["equilibrium", path, "--config", path]) == 2
    assert "not both" in capsys.readouterr().err


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
])
def test_fractional_integer_key_rejected(tmp_path, capsys, section, key,
                                         value):
    cfg = base_config()
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    assert main(["simulate", path, "--out", str(tmp_path)]) == 2
    assert "whole number" in capsys.readouterr().err


def test_whole_float_for_integer_key_accepted(tmp_path):
    cfg = base_config()
    cfg["geometry"]["n_cells"] = 10.0
    path = write_config(tmp_path, cfg)
    assert main(["equilibrium", path]) == 0


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


def test_monotone_nonconvergence_exits_3(tmp_path, capsys):
    cfg = base_config(initial={"kind": "constant", "u0": 1.0, "v0": 0.0})
    path = write_config(tmp_path, cfg)
    rc = main(["monotone", path, "--out", str(tmp_path),
               "--outer-tol", "1e-15", "--k-max", "2"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


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
