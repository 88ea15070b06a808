"""Command line front end.

Configs are strict JSON: unknown keys anywhere are an error, so a typo like
"ampliutde" cannot silently fall back to a default. The params, step,
geometry and initial sections take their keys, types and defaults from the
signature of ModelParams, StepConfig or the builder their kind names
(`_schema`, `_KINDS`). A file whose top level holds a "config" key is
treated as a run manifest (the file `simulate` writes next to its outputs)
and the embedded config is used, which makes re-running a manifest
reproduce the original series byte for byte.

Exit codes: 0 success, 1 a verification suite failed, 2 bad usage or config,
3 numerical failure (step rejection, solver breakdown, non-convergence).
"""

import argparse
import copy
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .diagnostics import (_fmt, _record_batch, audit_ckp,
                          audit_degenerate_coupling, dense_oracle, fit_rate,
                          record, write_series_csv)
from .errors import (LinearSolverError, MonotoneConvergenceError,
                     OracleFailure, StepFailure)
from .grid import build_interval, build_periodic_strip, build_polar_disk
from .model import (ModelParams, State, ckp_constant, mass,
                    solve_equilibrium)
from .monotone import (DEFAULT_K_MAX, DEFAULT_OUTER_TOL, check_sandwich,
                       comparison_pairs, run_monotone)
from .stepper import StepConfig, integrate

__all__ = ["main", "load_config", "build_geometry", "build_params",
           "build_initial_state", "build_step_config"]


def _check_keys(section: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(section).difference(required, optional)
    if unknown:
        raise ValueError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))} "
            f"(accepted: {', '.join(sorted({*required, *optional}))})")
    missing = set(required).difference(section)
    if missing:
        raise ValueError(
            f"missing key(s) in {where}: {', '.join(sorted(missing))}")


def _reject_constant(name):
    raise ValueError(f"{name} is not a valid number in a config")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _finite_int(text):
    _finite_float(text)
    return int(text)


def _load_json(path):
    """Parse a JSON file whose numbers must all be finite: Python's json
    accepts NaN, Infinity and literals beyond the float range, which no
    config allows."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant,
                         parse_float=_finite_float, parse_int=_finite_int)


def _check_numbers(section: dict, where: str, types: dict):
    """The keys of types take finite JSON numbers, not bools or strings;
    those typed int only whole numbers (10 or 10.0, not 10.7)."""
    for key, value in section.items():
        cast = types.get(key)
        if cast is None:
            continue
        ok = isinstance(value, int) and not isinstance(value, bool) or (
            isinstance(value, float) and math.isfinite(value)
            and (cast is float or value.is_integer()))
        if not ok:
            kind = "a whole number" if cast is int else "a finite number"
            raise ValueError(f"{where}.{key} must be {kind}, got {value!r}")


@functools.cache
def _schema(target):
    """Required keys, key types and defaults of the config section that
    target is called with: an argument without a default is required, one
    annotated int takes whole numbers and any other finite numbers. Cached:
    reading a signature costs about 0.1 ms. Positional-only arguments are
    the caller's, not config keys."""
    args = inspect.signature(target, eval_str=True).parameters.values()
    args = [a for a in args if a.kind is not a.POSITIONAL_ONLY]
    return (tuple(a.name for a in args if a.default is a.empty),
            {a.name: int if a.annotation is int else float for a in args},
            {a.name: a.default for a in args if a.default is not a.empty})


def _check_section(section: dict, where: str, target, extra=()):
    """Check a config section against target's schema; the keys in extra
    are required as well, and checked by the caller."""
    required, types, _ = _schema(target)
    _check_keys(section, where, extra + required, types)
    _check_numbers(section, where, types)


def _arguments(section: dict, target) -> dict:
    """target's keyword arguments from a checked config section."""
    types = _schema(target)[1]
    return {key: types[key](value) for key, value in section.items()
            if key in types}


def _constant(geom, /, u0: float, v0: float) -> State:
    return State(np.full(geom.n_omega, u0), np.full(geom.n_gamma, v0))


def _step(geom, /, u0: float, v0: float, amplitude: float) -> State:
    """+amplitude below the middle of each unit coordinate, -amplitude above."""
    return State(
        np.where(geom.omega_unit_coord < 0.5, u0 + amplitude, u0 - amplitude),
        np.where(geom.gamma_unit_coord < 0.5, v0 + amplitude, v0 - amplitude))


def _cosine(geom, /, u0: float, v0: float, amplitude: float) -> State:
    """One cosine period along each unit coordinate."""
    return State(u0 + amplitude * np.cos(2.0 * np.pi * geom.omega_unit_coord),
                 v0 + amplitude * np.cos(2.0 * np.pi * geom.gamma_unit_coord))


# section -> kind -> builder, whose signature is the schema of the rest
_KINDS = {
    "geometry": {"interval": build_interval, "strip": build_periodic_strip,
                 "disk": build_polar_disk},
    "initial": {"constant": _constant, "step": _step, "cosine": _cosine},
}


def _builder(section: dict, where: str):
    """The builder that the kind of the geometry or initial section names."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    kinds = _KINDS[where]
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"{where}.kind must be one of "
                         f"{sorted(kinds)}, got {kind!r}")
    return kinds[kind]


def load_config(path) -> dict:
    """Load a config file, unwrapping a manifest if given one."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    if "config" in data:
        data = data["config"]
        if not isinstance(data, dict):
            raise ValueError(f"{path}: manifest 'config' must be an object")
    return data


def validate_config(cfg: dict):
    _check_keys(cfg, "config", ("geometry", "params", "initial", "step", "t_end"),
                ("out", "seed"))
    geo, ini = cfg["geometry"], cfg["initial"]
    _check_section(geo, "geometry", _builder(geo, "geometry"), extra=("kind",))
    _check_section(cfg["params"], "params", ModelParams)
    _check_section(ini, "initial", _builder(ini, "initial"), extra=("kind",))
    _check_section(cfg["step"], "step", StepConfig)
    _check_numbers(cfg, "config", {"t_end": float, "seed": int})
    if cfg["t_end"] < 0:
        raise ValueError(f"t_end must be a finite nonnegative number, "
                         f"got {cfg['t_end']!r}")
    if not isinstance(cfg.get("out", ""), str):
        raise ValueError(f"config.out must be a string, got {cfg['out']!r}")


def build_geometry(geo: dict):
    builder = _builder(geo, "geometry")
    # called by its name here, the namespace the benchmark's tracer wraps
    return globals()[builder.__name__](**_arguments(geo, builder))


def build_params(sec: dict) -> ModelParams:
    """ModelParams of a validated section; the dataclass owns its keys,
    their types and defaults."""
    return ModelParams(**_arguments(sec, ModelParams))


def build_initial_state(ini: dict, geom) -> State:
    """The initial State that the validated section's kind builds on geom.
    Nonnegativity is enforced by State."""
    builder = _builder(ini, "initial")
    return builder(geom, **_arguments(ini, builder))


def build_step_config(sec: dict) -> StepConfig:
    """StepConfig of a validated section; the dataclass owns its keys,
    their types and defaults."""
    return StepConfig(**_arguments(sec, StepConfig))


def _setup(cfg: dict, args=None):
    """Apply command-line overrides, validate, build everything. Returns the
    effective config first so manifests echo exactly what ran."""
    if args is not None:
        if getattr(args, "t_end", None) is not None:
            cfg = dict(cfg, t_end=args.t_end)
        if getattr(args, "seed", None) is not None:
            cfg = dict(cfg, seed=args.seed)
    validate_config(cfg)
    geom = build_geometry(cfg["geometry"])
    params = build_params(cfg["params"])
    state0 = build_initial_state(cfg["initial"], geom)
    step_cfg = build_step_config(cfg["step"])
    return cfg, geom, params, state0, step_cfg, float(cfg["t_end"])


def _out_dir(args, cfg) -> str:
    out = args.out if args.out is not None else cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def write_state_csv(state: State, geom, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("field,index,coord,value\n")
        for i, (c, x) in enumerate(zip(geom.omega_unit_coord, state.u)):
            fh.write(f"u,{i},{_fmt(c)},{_fmt(x)}\n")
        for j, (c, x) in enumerate(zip(geom.gamma_unit_coord, state.v)):
            fh.write(f"v,{j},{_fmt(c)},{_fmt(x)}\n")


# --- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg, geom, params, state0, step_cfg, t_end = _setup(
        load_config(args.config), args)
    series = record(state0, geom, params, step_cfg, t_end)
    out = _out_dir(args, cfg)
    write_series_csv(series, os.path.join(out, "series.csv"))
    write_state_csv(series.final, geom, os.path.join(out, "final_state.csv"))
    manifest = {
        "command": "simulate",
        "version": __version__,
        "tolerances": dataclasses.asdict(step_cfg),
        "config": cfg,
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}/series.csv ({len(series)} records), "
          f"final_state.csv, manifest.json")
    return 0


def cmd_equilibrium(args) -> int:
    cfg, geom, params, state0, _, _ = _setup(
        load_config(args.config), args)
    m = mass(state0, geom, params)
    eq = solve_equilibrium(params, geom, m)
    print(f"u_inf={_fmt(eq.u_inf)}")
    print(f"v_inf={_fmt(eq.v_inf)}")
    print(f"mass={_fmt(eq.mass)}")
    print(f"ckp_constant={_fmt(ckp_constant(params, m))}")
    return 0


def cmd_monotone(args) -> int:
    cfg, geom, params, state0, step_cfg, t_end = _setup(
        load_config(args.config), args)
    solution, report = run_monotone(state0, geom, params, step_cfg, t_end,
                                    outer_tol=args.outer_tol, k_max=args.k_max)
    verdict = check_sandwich(report)
    out = _out_dir(args, cfg)
    with open(os.path.join(out, "gaps.csv"), "w", encoding="utf-8") as fh:
        fh.write("k,gap,margin_lower,margin_cross,margin_upper\n")
        fh.write(f"0,{_fmt(report.gaps[0])},,,\n")
        for k, margins in enumerate(report.margins, start=1):
            fh.write(f"{k},{_fmt(report.gaps[k])},"
                     + ",".join(_fmt(m) for m in margins) + "\n")
    write_state_csv(solution[-1], geom, os.path.join(out, "final_state.csv"))
    write_state_csv(State(report.lower_u[-1], report.lower_v[-1],
                          float(report.times[-1])), geom,
                    os.path.join(out, "final_lower.csv"))
    write_state_csv(State(report.upper_u[-1], report.upper_v[-1],
                          float(report.times[-1])), geom,
                    os.path.join(out, "final_upper.csv"))
    print(f"converged in {report.k_final} sweeps, final gap "
          f"{_fmt(report.gaps[-1])}, ordering "
          f"{'intact' if verdict.passed else 'VIOLATED'} "
          f"(worst margin {_fmt(verdict.worst_violation)})")
    return 0


def _suite_conservation(geom, params, state0, step_cfg, t_end, seed):
    series = record(state0, geom, params, step_cfg, t_end)
    drift = float(np.max(np.abs(series.mass - series.mass[0])))
    tol = 1e-8 * max(1.0, abs(series.mass[0]))
    return drift <= tol, {"max_drift": drift, "tolerance": tol}


def _suite_entropy(geom, params, state0, step_cfg, t_end, seed):
    series = record(state0, geom, params, step_cfg, t_end)
    increase = float(np.max(np.diff(series.entropy))) if len(series) > 1 else 0.0
    slack = 1e-9 * max(1.0, abs(series.entropy[0]))
    d_min = float(np.min(series.dissipation))
    ok = increase <= slack and d_min >= -1e-12 * max(1.0, abs(d_min))
    return ok, {"max_increase": increase, "slack": slack,
                "min_dissipation": d_min}


def _suite_ckp(geom, params, state0, step_cfg, t_end, seed):
    series = record(state0, geom, params, step_cfg, t_end)
    margin = audit_ckp(series, params)
    tol = -1e-9 * (1.0 + abs(series.entropy_eq))
    return margin >= tol, {"min_margin": margin, "tolerance": tol}


def _suite_sandwich(geom, params, state0, step_cfg, t_end, seed):
    _, report = run_monotone(state0, geom, params, step_cfg, t_end)
    verdict = check_sandwich(report)
    return verdict.passed, {
        "worst_margin": verdict.worst_violation,
        "ordering": verdict.ordering,
        "sweeps": report.k_final,
        "final_gap": report.gaps[-1]}


def _suite_comparison(geom, params, state0, step_cfg, t_end, seed):
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(state0.u)), float(np.max(state0.v)))
    pairs = []
    for _ in range(5):
        lo = State(rng.uniform(0.0, scale, geom.n_omega),
                   rng.uniform(0.0, scale, geom.n_gamma), state0.time)
        hi = State(lo.u + rng.uniform(0.0, scale, geom.n_omega),
                   lo.v + rng.uniform(0.0, scale, geom.n_gamma), state0.time)
        pairs.append((lo, hi))
    verdicts = comparison_pairs(pairs, geom, params, step_cfg, t_end)
    return all(v.passed for v in verdicts), {
        "worst_margin": min(v.worst_violation for v in verdicts),
        "pairs": len(pairs)}


def _newton_within(ref, tol, geom, params, state0, step_cfg, t_end):
    """Newton's final state, whether it is within tol of ref, and metrics."""
    final = integrate(state0, geom, params, step_cfg, t_end)
    diff = max(float(np.max(np.abs(final.u - ref.u))),
               float(np.max(np.abs(final.v - ref.v))))
    return final, diff <= tol, {"sup_diff": diff, "tolerance": tol}


def _suite_oracle(geom, params, state0, step_cfg, t_end, seed):
    ref = dense_oracle(state0, geom, params, t_end, n_checkpoints=11)[-1]
    tol = 1e-2 * max(1.0, float(np.max(ref.u)), float(np.max(ref.v)))
    return _newton_within(ref, tol, geom, params, state0, step_cfg, t_end)[1:]


def _suite_degenerate(geom, params, state0, step_cfg, t_end, seed):
    # audited state by state, which rejects delta_v != 0 before the run
    ratios = [audit_degenerate_coupling(state0, geom, params)]
    integrate(state0, geom, params, step_cfg, t_end, observer=lambda s:
              ratios.append(audit_degenerate_coupling(s, geom, params)))
    return min(ratios) > 0, {"min_ratio": min(ratios)}


def _suite_agreement(geom, params, state0, step_cfg, t_end, seed):
    """Newton and the certified iteration solve the same backward-Euler step
    equations for any (alpha, beta), so their final states must agree."""
    # certified two decades inside the tolerance; tighter only costs sweeps
    solution, report = run_monotone(state0, geom, params, step_cfg, t_end,
                                    outer_tol=1e-9)
    tol = 1e-7 * max(1.0, *report.bounds)
    final, passed, metrics = _newton_within(solution[-1], tol, geom, params,
                                            state0, step_cfg, t_end)
    metrics["sweeps"] = report.k_final
    # not gated on: a valid newton_tol may leave Newton outside the slack
    metrics["enclosure_margin"] = min(float(np.min(hi - lo)) for lo, hi in (
        (report.lower_u[-1], final.u), (report.lower_v[-1], final.v),
        (final.u, report.upper_u[-1]), (final.v, report.upper_v[-1])))
    return passed, metrics


SUITES = {
    "conservation": _suite_conservation,
    "entropy": _suite_entropy,
    "ckp": _suite_ckp,
    "sandwich": _suite_sandwich,
    "comparison": _suite_comparison,
    "oracle": _suite_oracle,
    "degenerate": _suite_degenerate,
    "agreement": _suite_agreement,
}


def cmd_verify(args) -> int:
    cfg, geom, params, state0, step_cfg, t_end = _setup(
        load_config(args.config), args)
    seed = int(cfg.get("seed", 0))
    passed, metrics = SUITES[args.suite](geom, params, state0, step_cfg,
                                         t_end, seed)
    out = _out_dir(args, cfg)
    verdict = {"suite": args.suite, "passed": bool(passed), "metrics": metrics}
    with open(os.path.join(out, "verdict.json"), "w", encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=2)
        fh.write("\n")
    print(f"suite={args.suite} passed={passed}")
    return 0 if passed else 1


def _set_dotted(cfg: dict, dotted: str, value):
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"sweep grid key {dotted!r} not found in template")
        node = node[key]
    if not isinstance(node, dict):
        raise ValueError(f"sweep grid key {dotted!r} not found in template")
    node[keys[-1]] = value


# rows of one lockstep batch of sweep runs. The dense part of a batch that
# grows with its rows is one capacitance system per row (the interface rows
# of K^{-1}A are shared), and the gain flattens: 16 (alpha, beta) runs of 250
# steps took 1.36, 0.69, 0.54 and 0.44 s in batches of 1, 4, 8 and 16 on a
# 16x8 strip, 1.36, 0.62, 0.51 and 0.53 s on an 8x16 disk
_SWEEP_BATCH_ROWS = 8


def _batch_key(cfg: dict) -> str:
    """What the runs of a lockstep batch share, as JSON of their values: the
    geometry, the step, the horizon, and delta_u and delta_v, which with dt
    fix K = diag(M/dt) - D. Orders, rate constants and initial data may
    differ. Numbers are floats, and left-out step keys and delta_v take
    their defaults: 1 and 1.0, or no delta_v and 0.0, share a batch."""
    step, params = cfg.get("step"), cfg.get("params")
    if isinstance(step, dict):  # anything else fails in _setup
        step = {**_schema(StepConfig)[2], **step}
    if isinstance(params, dict):
        params = {**_schema(ModelParams)[2], **params}
        params = [params.get("delta_u"), params["delta_v"]]
    key = json.dumps([cfg.get("geometry"), step, cfg.get("t_end"), params])
    # read back with whole numbers as floats; true and false stay bools
    return json.dumps(json.loads(key, parse_int=float), sort_keys=True)


def _sweep_batches(configs: list, jobs: int) -> list:
    """The configs' indices in lockstep batches, ordered by their first
    index: the configs with one _batch_key, in grid order, cut into batches
    of at most _SWEEP_BATCH_ROWS; while there are fewer batches than jobs,
    the largest is halved."""
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(_batch_key(cfg), []).append(i)
    batches = [group[j:j + _SWEEP_BATCH_ROWS] for group in groups.values()
               for j in range(0, len(group), _SWEEP_BATCH_ROWS)]
    while len(batches) < jobs:
        k = max(range(len(batches)), key=lambda b: len(batches[b]))
        if len(batches[k]) == 1:
            break
        half = (len(batches[k]) + 1) // 2
        batches[k:k + 1] = [batches[k][:half], batches[k][half:]]
    return sorted(batches)


# the metric columns of sweep.csv, which are the keys of a _sweep_result
_SWEEP_METRICS = ("C0_emp", "eed_min", "r_squared", "mass_drift")


def _sweep_result(series) -> dict:
    """A sweep run's fitted rate and mass drift, by _SWEEP_METRICS name."""
    drift = float(np.max(np.abs(series.mass - series.mass[0])))
    try:
        fit = fit_rate(series)
        c0, eed, r2 = fit.c0_emp, fit.eed_min, fit.r_squared
    except ValueError:  # run already at equilibrium: nothing to fit
        c0 = eed = r2 = float("nan")
    return dict(zip(_SWEEP_METRICS, (c0, eed, r2, drift)))


def _sweep_batch(configs: list) -> list:
    """One batch of a sweep: per config, its run recorded and reduced by
    _sweep_result. The runs march in lockstep (_record_batch), as their
    configs share one _batch_key. If any run fails, the runs go again one by
    one, and the list ends with the exception of the first that fails.
    Module level so that a process pool can pickle it."""
    try:
        runs = [_setup(cfg) for cfg in configs]
        _, geom, _, _, step_cfg, t_end = runs[0]
        series = _record_batch([run[3] for run in runs], geom,
                               [run[2] for run in runs], step_cfg, t_end)
        return [_sweep_result(s) for s in series]
    except Exception as exc:
        if len(configs) == 1:
            return [exc]
    outcomes = []
    for cfg in configs:
        outcomes += _sweep_batch([cfg])
        if isinstance(outcomes[-1], Exception):
            break
    return outcomes


def _sweep_results(batches: list, n_runs: int, outcomes) -> list:
    """The results of the n_runs runs of a sweep, from an iterable of the
    batches' _sweep_batch outcomes, read lazily and in batch order. The
    first failed run in grid order is raised, as if the runs had gone one
    by one, as soon as no batch left to read can hold an earlier run."""
    results = [None] * n_runs
    failed = n_runs
    starts = [batch[0] for batch in batches[1:]] + [n_runs]
    for batch, batch_outcomes, start in zip(batches, outcomes, starts):
        for i, outcome in zip(batch, batch_outcomes):
            results[i] = outcome
            if isinstance(outcome, Exception):
                failed = min(failed, i)
        if failed < start:
            raise results[failed]
    return results


def _sweep_pool(workers: int, batches: list, configs: list) -> list:
    """_sweep_results of the batches of configs, run on forked worker
    processes (the default start method where fork is missing). A fork
    inherits the imported modules; a fresh interpreter would spend about
    half a second importing numpy and scipy again. A raised failure
    cancels the queued batches."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork" if fork else None))
    try:
        return _sweep_results(batches, len(configs), pool.map(
            _sweep_batch, [[configs[i] for i in batch] for batch in batches]))
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    sweep_spec = _load_json(args.config)
    _check_keys(sweep_spec, "sweep config", ("template", "grid"))
    grid = sweep_spec["grid"]
    if not isinstance(grid, dict) or not grid:
        raise ValueError("sweep grid must be a non-empty object")
    for key, vals in grid.items():
        if not isinstance(vals, list) or not vals:
            raise ValueError(f"sweep grid {key!r} must be a non-empty list")
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    configs = []
    for combo in combos:
        cfg = copy.deepcopy(sweep_spec["template"])
        for key, value in zip(keys, combo):
            # a copy: a later key inside this value must not edit the grid
            _set_dotted(cfg, key, copy.deepcopy(value))
        configs.append(cfg)

    batches = _sweep_batches(configs, args.jobs)
    workers = min(args.jobs, len(batches))
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool
        try:
            results = _sweep_pool(workers, batches, configs)
        except BrokenProcessPool as exc:  # a worker was killed or exited
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        results = _sweep_results(batches, len(configs), (
            _sweep_batch([configs[i] for i in batch]) for batch in batches))

    out = _out_dir(args, sweep_spec)  # a sweep config has no "out"
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run," + ",".join(keys) + "," + ",".join(_SWEEP_METRICS)
                 + "\n")
        for i, (combo, res) in enumerate(zip(combos, results)):
            cells = [str(i)] + [json.dumps(v) for v in combo]
            cells += [_fmt(res[name]) for name in _SWEEP_METRICS]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {path} ({len(combos)} runs)")
    return 0


def _add_common(p, t_end=False, seed=False, out=True):
    p.add_argument("config", help="run config (JSON) or a simulate manifest")
    if out:
        p.add_argument("--out", default=None,
                       help="output directory (default: config 'out' or '.')")
    if t_end:
        p.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override the config's t_end")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volsurf",
        description="Finite-volume solver and verification harness for "
                    "volume-surface reaction-diffusion systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", help="integrate and write the observable series")
    _add_common(p, t_end=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equilibrium", help="print the equilibrium for the "
                                           "config's initial mass")
    _add_common(p, out=False)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("monotone", help="run the certified two-sided iteration")
    _add_common(p, t_end=True)
    p.add_argument("--outer-tol", type=float, default=DEFAULT_OUTER_TOL)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p.set_defaults(func=cmd_monotone)

    p = sub.add_parser("verify", help="run one verification suite")
    _add_common(p, t_end=True, seed=True)
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run a parameter grid from a template")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="forked worker processes, each marching one batch "
                        "of runs at a time (at most one per batch)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        # overflow ends in one error line, not numpy warnings (forks inherit)
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the grid or the horizon is too large for memory. "
              f"{exc}".rstrip(), file=sys.stderr)
        return 2
    except (StepFailure, MonotoneConvergenceError, LinearSolverError,
            OracleFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
