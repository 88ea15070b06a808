"""Certified solve via monotone upper/lower iteration.

Starting from the constant lower solution 0 and a constant upper solution
(A, B) with balanced rates, each outer sweep solves linear problems with the
reaction frozen at the previous iterate, shifted so the frozen sources are
monotone. The two sequences squeeze every grid value of the true solution
between computable bounds:

    lower^(k) <= lower^(k+1) <= solution <= upper^(k+1) <= upper^(k)

The discrete steps inherit this ordering exactly (M-matrix structure), so
the recorded gap g_k is a certificate: the returned midpoint trajectory is
within g_k/2 of the backward-Euler solution in sup norm. Each sweep's three
ordering margins are measured as the sweep completes, against the pair
before it, which is then dropped: a run holds at most two iterate pairs.

The linear bulk and surface matrices are the same for every step of every
sweep (Robin coefficient alpha*L_u, absorption beta*L_v, fixed dt), so one
block matrix holding both is factored once per run, and the lower and upper
sweeps of one outer iteration, which both read only iterate k-1, advance
together as a two-column right-hand side.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import MonotoneConvergenceError
from .grid import GridGeometry
from .model import (ModelParams, State, constant_upper_solution,
                    lipschitz_bounds, shifted_f, shifted_g)
from .stepper import StepConfig, _LinearStepper, integrate
# unused here; bound because perfbench/tracing.py wraps them by name
from .stepper import linear_bulk_step, linear_surface_step  # noqa: F401

__all__ = [
    "IterationReport",
    "SandwichVerdict",
    "ComparisonVerdict",
    "run_monotone",
    "check_sandwich",
    "comparison_experiment",
]

DEFAULT_OUTER_TOL = 1e-8
DEFAULT_K_MAX = 200
ORDERING_SLACK = 1e-9
COMPARISON_SLACK = 1e-8
ORDERINGS = ("lower_nondecreasing", "lower_below_upper", "upper_nonincreasing")


@dataclass
class IterationReport:
    """What the outer iteration produced: per-sweep gaps and ordering
    margins, and the last (lower, upper) pair.

    gaps[k] is the sup-norm distance between the upper and lower iterate k
    over the whole time grid; gaps[0] is the constant starting pair's.
    margins[k-1] holds the worst signed margin of each of the ORDERINGS
    between iterates k-1 and k (negative is a violation). lower_u ...
    upper_v are iterate k_final, indexed [time, cell]; no earlier iterate
    is kept.
    """

    times: np.ndarray
    gaps: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    lower_u: np.ndarray = None
    lower_v: np.ndarray = None
    upper_u: np.ndarray = None
    upper_v: np.ndarray = None
    bounds: tuple = (0.0, 0.0)
    converged: bool = False
    k_final: int = 0


@dataclass(frozen=True)
class SandwichVerdict:
    passed: bool
    worst_violation: float
    ordering: str
    k: int


@dataclass(frozen=True)
class ComparisonVerdict:
    passed: bool
    worst_violation: float
    time: float


def _sweep_pair(u0, v0, prev_u, prev_v, stepper, params, l_u, l_v):
    """One outer sweep of the lower and the upper sequence together.

    Stacks are indexed [time, sequence, cell]. Each sequence advances the
    linear problems with sources frozen at its own previous iterate, sampled
    at the new time level.
    """
    tc = stepper.geom.trace_cells
    u_traj = np.empty_like(prev_u)
    v_traj = np.empty_like(prev_v)
    u_traj[0] = u0
    v_traj[0] = v0
    for n in range(len(prev_u) - 1):
        ut = prev_u[n + 1][:, tc]
        vt = prev_v[n + 1]
        u_traj[n + 1], v_traj[n + 1], _ = stepper.step(
            u_traj[n], v_traj[n], shifted_f(params, l_u, ut, vt),
            shifted_g(params, l_v, ut, vt))
    return u_traj, v_traj


def _ordering_margins(prev_u, prev_v, new_u, new_v):
    """Worst signed margins of the three ORDERINGS between the pair stacks
    of iterates k-1 and k, indexed [time, sequence, cell] with the lower
    sequence first (negative is a violation)."""
    def worst(below_u, below_v, above_u, above_v):
        return float(min(np.min(above_u - below_u), np.min(above_v - below_v)))

    return (worst(prev_u[:, 0], prev_v[:, 0], new_u[:, 0], new_v[:, 0]),
            worst(new_u[:, 0], new_v[:, 0], new_u[:, 1], new_v[:, 1]),
            worst(new_u[:, 1], new_v[:, 1], prev_u[:, 1], prev_v[:, 1]))


def run_monotone(state0: State, geom: GridGeometry, params: ModelParams,
                 cfg: StepConfig, t_horizon: float,
                 outer_tol: float = DEFAULT_OUTER_TOL,
                 k_max: int = DEFAULT_K_MAX):
    """Run the upper/lower iteration over [time0, time0 + t_horizon].

    Returns (solution, report): the midpoint trajectory as a list of States
    on the uniform time grid, and the IterationReport with every sweep's gap
    and ordering margins and the final pair. Raises MonotoneConvergenceError
    (gap sequence attached) if k_max sweeps do not reach outer_tol.
    """
    if state0.u.shape != (geom.n_omega,) or state0.v.shape != (geom.n_gamma,):
        raise ValueError("state does not match geometry dimensions")
    if t_horizon <= 0:
        raise ValueError(f"t_horizon must be positive, got {t_horizon}")
    if not outer_tol > 0:
        raise ValueError(f"outer_tol must be positive, got {outer_tol}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    n_steps = max(1, int(round(t_horizon / cfg.dt)))
    h = t_horizon / n_steps
    times = state0.time + h * np.arange(n_steps + 1)

    sup_u0 = float(np.max(state0.u))
    sup_v0 = float(np.max(state0.v))
    # zero data is stationary: the box (0, 0) already encloses it
    a_bound, b_bound = (constant_upper_solution(params, sup_u0, sup_v0)
                        if sup_u0 or sup_v0 else (0.0, 0.0))
    l_u, l_v = lipschitz_bounds(params, a_bound, b_bound)

    stepper = _LinearStepper(geom, params, dataclasses.replace(cfg, dt=h),
                             params.alpha * l_u, params.beta * l_v)

    report = IterationReport(times=times, bounds=(a_bound, b_bound))
    # stacks of the (lower, upper) pair, indexed [time, sequence, cell]
    pair_u = np.empty((n_steps + 1, 2, geom.n_omega))
    pair_v = np.empty((n_steps + 1, 2, geom.n_gamma))
    pair_u[:, 0], pair_u[:, 1] = 0.0, a_bound
    pair_v[:, 0], pair_v[:, 1] = 0.0, b_bound
    report.gaps.append(max(a_bound, b_bound))

    for k in range(1, k_max + 1):
        new_u, new_v = _sweep_pair(state0.u, state0.v, pair_u, pair_v,
                                   stepper, params, l_u, l_v)
        report.margins.append(_ordering_margins(pair_u, pair_v, new_u, new_v))
        pair_u, pair_v = new_u, new_v
        gap = max(float(np.max(np.abs(pair_u[:, 1] - pair_u[:, 0]))),
                  float(np.max(np.abs(pair_v[:, 1] - pair_v[:, 0]))))
        report.gaps.append(gap)
        report.k_final = k
        if gap <= outer_tol:
            report.converged = True
            break
    else:
        raise MonotoneConvergenceError(
            f"gap {report.gaps[-1]:.3e} above tolerance {outer_tol:.1e} after "
            f"{k_max} sweeps (raise k_max or shorten the horizon)",
            gaps=report.gaps)

    report.lower_u, report.upper_u = pair_u[:, 0], pair_u[:, 1]
    report.lower_v, report.upper_v = pair_v[:, 0], pair_v[:, 1]
    mid_u = 0.5 * (report.upper_u + report.lower_u)
    mid_v = 0.5 * (report.upper_v + report.lower_v)
    solution = [State(np.maximum(mid_u[n], 0.0), np.maximum(mid_v[n], 0.0),
                      float(times[n]))
                for n in range(n_steps + 1)]
    return solution, report


def check_sandwich(report: IterationReport) -> SandwichVerdict:
    """Audit all three orderings from the margins run_monotone measured as
    each sweep completed.

    Passes when no margin is below -ORDERING_SLACK * max(1, A, B). Returns
    the worst margin together with the ordering and sweep where it occurred.
    """
    if not report.margins:
        raise ValueError("report holds no sweep")
    slack = ORDERING_SLACK * max(1.0, *report.bounds)
    worst = np.inf
    worst_ord = "none"
    worst_k = 0
    for k, triple in enumerate(report.margins, start=1):
        for name, margin in zip(ORDERINGS, triple):
            if margin < worst:
                worst = margin
                worst_ord = name
                worst_k = k
    return SandwichVerdict(passed=bool(worst >= -slack),
                           worst_violation=worst,
                           ordering=worst_ord, k=worst_k)


def comparison_experiment(state_low: State, state_high: State,
                          geom: GridGeometry, params: ModelParams,
                          cfg: StepConfig, t_end: float) -> ComparisonVerdict:
    """Integrate an ordered pair with the coupled stepper and audit that the
    ordering persists at every accepted step."""
    if np.any(state_low.u > state_high.u) or np.any(state_low.v > state_high.v):
        raise ValueError("state_low must be <= state_high entrywise")
    if state_low.time != state_high.time:
        raise ValueError("states must share the same time")
    scale = max(1.0, float(np.max(state_high.u)), float(np.max(state_high.v)))

    low_steps = []
    high_steps = []
    integrate(state_low, geom, params, cfg, t_end, observer=low_steps.append)
    integrate(state_high, geom, params, cfg, t_end, observer=high_steps.append)

    worst = np.inf
    worst_time = state_low.time
    for lo, hi in zip(low_steps, high_steps):
        margin = min(float(np.min(hi.u - lo.u)), float(np.min(hi.v - lo.v)))
        if margin < worst:
            worst = margin
            worst_time = lo.time
    if not low_steps:
        worst = 0.0
    return ComparisonVerdict(passed=bool(worst >= -COMPARISON_SLACK * scale),
                             worst_violation=float(worst), time=worst_time)
