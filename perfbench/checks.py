"""Checks on the files each workload's commands wrote.

Every check tests a property the method must have, or compares against a
value computed here, never against a stored copy of earlier output. Each
function returns a list of failure messages; an empty list means correct.
The checks run after the timed loop and are not part of any metric.
"""

import json
import math
import os

import numpy as np
from scipy.optimize import brentq

from volsurf.cli import (build_geometry, build_initial_state, build_params,
                         build_step_config)
from volsurf.stepper import integrate

OUTER_TOL = 1e-8        # the CLI's default --outer-tol, which the workload keeps
ORDERING_SLACK = 1e-9   # relative slack of the sandwich margins
MASS_RTOL = 1e-8
R_SQUARED_MIN = 0.99
# least-squares fit error allowed on top of the backward-Euler decay bound
FIT_SLACK = 0.005
# relative agreement of C0_emp with the linear prediction (alpha = beta = 1)
LINEAR_RATE_RTOL = 5e-3


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def same_files(op_dirs, names):
    """Every operation wrote byte-identical copies of the named files."""
    failures = []
    for name in names:
        first = _read(os.path.join(op_dirs[0], name))
        for d in op_dirs[1:]:
            if _read(os.path.join(d, name)) != first:
                failures.append(f"{d}/{name} differs from {op_dirs[0]}/{name}")
    return failures


def _measures(geo):
    """Exact |Omega| and |Gamma| of a strip or a disk."""
    if geo["kind"] == "strip":
        return geo["width"] * geo["height"], 2.0 * geo["width"]
    return math.pi * geo["radius"] ** 2, 2.0 * math.pi * geo["radius"]


def initial_mass(cfg):
    """beta*|Omega|*u0 + alpha*|Gamma|*v0: the cosine part sums to zero on
    every grid here, each having a whole number of periods of cells."""
    omega, gamma = _measures(cfg["geometry"])
    p, ini = cfg["params"], cfg["initial"]
    return p["beta"] * omega * ini["u0"] + p["alpha"] * gamma * ini["v0"]


def equilibrium(cfg, total_mass):
    """(u_inf, v_inf) from beta|Omega|u + alpha|Gamma|(k_u u^alpha/k_v)^(1/beta) = M."""
    omega, gamma = _measures(cfg["geometry"])
    p = cfg["params"]
    k_u, k_v = p.get("k_u", 1.0), p.get("k_v", 1.0)

    def v_of(u):
        return (k_u * u ** p["alpha"] / k_v) ** (1.0 / p["beta"])

    def excess(u):
        return p["beta"] * omega * u + p["alpha"] * gamma * v_of(u) - total_mass

    u_inf = brentq(excess, 0.0, total_mass / (p["beta"] * omega),
                   xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    return u_inf, v_of(u_inf)


def _read_state(path):
    """(u, v) arrays from a state CSV (field,index,coord,value)."""
    fields = {"u": [], "v": []}
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            field, _, _, value = line.rstrip("\n").split(",")
            fields[field].append(float(value))
    return np.array(fields["u"]), np.array(fields["v"])


def _strip_weights(geo):
    omega, gamma = _measures(geo)
    return omega / (geo["nx"] * geo["ny"]), gamma / (2 * geo["nx"])


def check_simulate(cfg, op_dirs):
    failures = same_files(op_dirs, ("series.csv", "final_state.csv",
                                    "manifest.json"))
    d = op_dirs[0]
    with open(os.path.join(d, "series.csv"), "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(os.path.join(d, "series.csv"), delimiter=",", skiprows=1)
    col = {name: rows[:, i] for i, name in enumerate(header)}
    p = cfg["params"]

    n_steps = round(cfg["t_end"] / cfg["step"]["dt"])
    if len(rows) != n_steps + 1 or abs(col["t"][-1] - cfg["t_end"]) > 1e-12:
        failures.append(f"series has {len(rows)} rows ending at "
                        f"t={col['t'][-1]!r}, expected {n_steps + 1} to "
                        f"t={cfg['t_end']}")
    m0 = initial_mass(cfg)
    drift = float(np.max(np.abs(col["mass"] - m0)))
    if drift > MASS_RTOL * m0:
        failures.append(f"mass drifts by {drift:.3e} from {m0!r}")
    rise = float(np.max(np.diff(col["E"])))
    if rise > 1e-12 * max(1.0, abs(col["E"][0])):
        failures.append(f"entropy rises by {rise:.3e}")
    if np.min(col["D"]) < 0:
        failures.append(f"negative dissipation {np.min(col['D']):.3e}")

    u_inf, v_inf = equilibrium(cfg, m0)
    u, v = _read_state(os.path.join(d, "final_state.csv"))
    w, wg = _strip_weights(cfg["geometry"])
    mass = p["beta"] * w * u.sum() + p["alpha"] * wg * v.sum()
    if abs(mass - col["mass"][-1]) > 1e-12 * m0:
        failures.append(f"final state mass {mass!r} against last row "
                        f"{col['mass'][-1]!r}")
    for name, got in (("L1_u", w * np.abs(u - u_inf).sum()),
                      ("L1_v", wg * np.abs(v - v_inf).sum())):
        if abs(got - col[name][-1]) > 1e-10 * m0:
            failures.append(f"{name} of the final state {got!r} against last "
                            f"row {col[name][-1]!r}")
    return failures


def upper_bounds(cfg):
    """Constant upper solution (A, B) of the certified iteration, from the
    suprema of the cosine initial data on the strip's cell centres."""
    geo, p, ini = cfg["geometry"], cfg["params"], cfg["initial"]
    k_u, k_v = p.get("k_u", 1.0), p.get("k_v", 1.0)
    wave = np.cos(2.0 * np.pi * (np.arange(geo["nx"]) + 0.5) / geo["nx"])
    a = float(np.max(ini["u0"] + ini["amplitude"] * wave))
    b = (k_u * a ** p["alpha"] / k_v) ** (1.0 / p["beta"])
    sup_v = float(np.max(ini["v0"] + ini["amplitude"] * wave))
    if b < sup_v:
        b = sup_v
        a = max(a, (k_v * b ** p["beta"] / k_u) ** (1.0 / p["alpha"]))
    return a, b


def check_monotone(cfg, op_dirs):
    names = ("gaps.csv", "final_state.csv", "final_lower.csv",
             "final_upper.csv")
    failures = same_files(op_dirs, names)
    d = op_dirs[0]
    table = np.genfromtxt(os.path.join(d, "gaps.csv"), delimiter=",",
                          skip_header=1)
    gaps = table[:, 1]
    margins = table[1:, 2:]
    if np.any(np.diff(gaps) > 0):
        failures.append("gap increases between sweeps")
    if not gaps[-1] <= OUTER_TOL:
        failures.append(f"last gap {gaps[-1]!r} above {OUTER_TOL}")
    slack = ORDERING_SLACK * max(1.0, *upper_bounds(cfg))
    if not np.min(margins) >= -slack:
        failures.append(f"ordering margin {np.min(margins)!r} below -{slack}")

    mid = np.concatenate(_read_state(os.path.join(d, "final_state.csv")))
    lower = np.concatenate(_read_state(os.path.join(d, "final_lower.csv")))
    upper = np.concatenate(_read_state(os.path.join(d, "final_upper.csv")))
    if np.any(lower > mid) or np.any(mid > upper):
        failures.append("final state leaves the final enclosure")
    if np.max(upper - lower) > gaps[-1]:
        failures.append(f"final enclosure width {np.max(upper - lower)!r} "
                        f"above the last gap {gaps[-1]!r}")

    # the certified midpoint and Newton converge to the same backward-Euler
    # solution: within half the gap, plus the two solvers' tolerances
    geom = build_geometry(cfg["geometry"])
    step = build_step_config(cfg["step"])
    final = integrate(build_initial_state(cfg["initial"], geom), geom,
                      build_params(cfg["params"]), step, cfg["t_end"])
    newton = np.concatenate([final.u, final.v])
    tol = 0.5 * gaps[-1] + (step.newton_tol + step.linear_tol) * max(
        1.0, *upper_bounds(cfg))
    diff = float(np.max(np.abs(newton - mid)))
    if diff > tol:
        failures.append(f"midpoint differs from Newton by {diff!r} > {tol!r}")
    return failures


def _read_sweep(path, n_keys_after_geometry):
    """Rows of sweep.csv as (geometry JSON, key values, metrics).

    The geometry cell is JSON with unquoted commas, so fields are taken by
    position from both ends of the line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            tail = cells[-4 - n_keys_after_geometry:]
            geometry = json.loads(",".join(cells[1:-4 - n_keys_after_geometry]))
            keys = [json.loads(x) for x in tail[:n_keys_after_geometry]]
            rows.append((geometry, keys, [float(x) for x in tail[-4:]]))
    return rows


def slowest_excited_rate(cfg):
    """Slowest decay rate of the linear (alpha = beta = 1) semi-discrete
    system among the modes the initial data excite.

    With the measure weights W the operator A is self-adjoint, so
    W^(1/2) A W^(-1/2) is symmetric and a dense eigensolver gives its modes.
    """
    geom = build_geometry(cfg["geometry"])
    p, ini = cfg["params"], cfg["initial"]
    n, m = geom.n_omega, geom.n_gamma
    a = np.zeros((n + m, n + m))
    a[:n, :n] = p["delta_u"] * geom.bulk_laplacian.toarray()
    a[n:, n:] = p["delta_v"] * geom.surface_laplacian.toarray()
    rows, cols = geom.trace_cells, n + np.arange(m)
    np.add.at(a, (rows, rows), -geom.trace_factors)
    np.add.at(a, (rows, cols), geom.trace_factors)
    np.add.at(a, (cols, rows), 1.0)
    np.add.at(a, (cols, cols), -1.0)
    w = np.sqrt(np.concatenate([geom.omega_weights, geom.gamma_weights]))
    sym = w[:, None] * a / w[None, :]
    evals, modes = np.linalg.eigh(0.5 * (sym + sym.T))

    z0 = np.concatenate([
        ini["u0"] + ini["amplitude"] * np.cos(2 * np.pi * geom.omega_unit_coord),
        ini["v0"] + ini["amplitude"] * np.cos(2 * np.pi * geom.gamma_unit_coord)])
    z_inf = initial_mass(cfg) / (geom.omega_measure + geom.gamma_measure)
    coeff = np.abs(modes.T @ (w * (z0 - z_inf)))
    rates = -evals[(coeff > 1e-8 * coeff.max()) & (-evals > 1e-10)]
    return float(rates.min())


def check_sweep(spec, op_dirs):
    failures = same_files(op_dirs, ("sweep.csv",))
    grid = spec["grid"]
    rows = _read_sweep(os.path.join(op_dirs[0], "sweep.csv"), len(grid) - 1)
    if len(rows) != math.prod(len(v) for v in grid.values()):
        failures.append(f"sweep.csv has {len(rows)} rows")
    template = spec["template"]
    dt = template["step"]["dt"]
    for i, (geometry, (alpha, beta), metrics) in enumerate(rows):
        c0, eed, r2, drift = metrics
        cfg = dict(template, geometry=geometry,
                   params=dict(template["params"], alpha=alpha, beta=beta))
        where = f"row {i} ({geometry['kind']}, alpha={alpha}, beta={beta})"
        if not all(np.isfinite(metrics)):
            failures.append(f"{where}: NaN in {metrics}")
            continue
        if drift > MASS_RTOL * initial_mass(cfg):
            failures.append(f"{where}: mass drift {drift!r}")
        if r2 < R_SQUARED_MIN:
            failures.append(f"{where}: r_squared {r2!r}")
        # backward Euler turns D >= eed*E into a decay of at least
        # log(1 + eed*dt)/dt per unit time
        slack = 1.0 - math.log1p(eed * dt) / (eed * dt) + FIT_SLACK
        if c0 < eed * (1.0 - slack):
            failures.append(f"{where}: C0_emp {c0!r} below eed_min {eed!r} "
                            f"with slack {slack:.4f}")
        if alpha == 1 and beta == 1:
            lam = slowest_excited_rate(cfg)
            predicted = 2.0 * math.log1p(lam * dt) / dt
            if abs(c0 - predicted) > LINEAR_RATE_RTOL * predicted:
                failures.append(f"{where}: C0_emp {c0!r} against linear "
                                f"prediction {predicted!r}")
    return failures
