"""Certified solve via monotone upper/lower iteration.

Starting from the constant lower solution 0 and a constant upper solution
(A, B) with balanced rates, each outer sweep solves linear problems with the
reaction frozen at the previous iterate, shifted so the frozen sources are
monotone. The two sequences squeeze every grid value of the true solution
between computable bounds:

    lower^(k) <= lower^(k+1) <= solution <= upper^(k+1) <= upper^(k)

The discrete steps inherit this ordering exactly (M-matrix structure), so
the recorded gap g_k is a certificate: the returned midpoint trajectory is
within g_k/2 of the backward-Euler solution in sup norm.

The linear matrices are the same for every step of every sweep (Robin
coefficient alpha*L_u, absorption beta*L_v, fixed dt), so they are factored
once per run, and the lower and upper sweeps of one outer iteration, which
both read only iterate k-1, advance together as a two-column right-hand side.
"""

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


@dataclass
class IterationReport:
    """Everything the outer iteration produced, including the full iterate
    stacks so orderings can be re-audited after the fact.

    gaps[k] is the sup-norm distance between the upper and lower iterate k
    over the whole time grid; the violation arrays hold the worst signed
    margin of each ordering between consecutive iterates (negative would be
    a violation). Index 0 of the stacks is the constant starting pair.
    """

    times: np.ndarray
    gaps: list = field(default_factory=list)
    violations_lower: list = field(default_factory=list)
    violations_cross: list = field(default_factory=list)
    violations_upper: list = field(default_factory=list)
    lower_u: list = field(default_factory=list)
    lower_v: list = field(default_factory=list)
    upper_u: list = field(default_factory=list)
    upper_v: list = field(default_factory=list)
    bounds: tuple = (0.0, 0.0)
    outer_tol: float = DEFAULT_OUTER_TOL
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
        u_traj[n + 1], _ = stepper.bulk(u_traj[n], shifted_f(params, l_u, ut, vt))
        v_traj[n + 1] = stepper.surface(v_traj[n], shifted_g(params, l_v, ut, vt))
    return u_traj, v_traj


def run_monotone(state0: State, geom: GridGeometry, params: ModelParams,
                 cfg: StepConfig, t_horizon: float,
                 outer_tol: float = DEFAULT_OUTER_TOL,
                 k_max: int = DEFAULT_K_MAX):
    """Run the upper/lower iteration over [time0, time0 + t_horizon].

    Returns (solution, report): the midpoint trajectory as a list of States
    on the uniform time grid, and the IterationReport with gaps, ordering
    margins and the full iterate stacks. Raises MonotoneConvergenceError
    (gap sequence attached) if k_max sweeps do not reach outer_tol.
    """
    if state0.u.shape != (geom.n_omega,) or state0.v.shape != (geom.n_gamma,):
        raise ValueError("state does not match geometry dimensions")
    if t_horizon <= 0:
        raise ValueError(f"t_horizon must be positive, got {t_horizon}")
    if outer_tol <= 0:
        raise ValueError(f"outer_tol must be positive, got {outer_tol}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    n_steps = max(1, int(round(t_horizon / cfg.dt)))
    h = t_horizon / n_steps
    cfg_h = StepConfig(dt=h, newton_tol=cfg.newton_tol,
                       newton_max_iter=cfg.newton_max_iter,
                       linear_tol=cfg.linear_tol)
    times = state0.time + h * np.arange(n_steps + 1)
    shape_u = (n_steps + 1, geom.n_omega)
    shape_v = (n_steps + 1, geom.n_gamma)

    sup_u0 = float(np.max(state0.u))
    sup_v0 = float(np.max(state0.v))
    if sup_u0 == 0.0 and sup_v0 == 0.0:
        # zero data is stationary and both sequences stay identically zero;
        # report one confirming sweep instead of raising on the (0,0) bound
        report = IterationReport(times=times, bounds=(0.0, 0.0),
                                 outer_tol=outer_tol)
        for _ in range(2):
            report.lower_u.append(np.zeros(shape_u))
            report.lower_v.append(np.zeros(shape_v))
            report.upper_u.append(np.zeros(shape_u))
            report.upper_v.append(np.zeros(shape_v))
            report.gaps.append(0.0)
        report.violations_lower.append(0.0)
        report.violations_cross.append(0.0)
        report.violations_upper.append(0.0)
        report.k_final = 1
        report.converged = True
        solution = [State(np.zeros(geom.n_omega), np.zeros(geom.n_gamma),
                          float(t)) for t in times]
        return solution, report

    a_bound, b_bound = constant_upper_solution(params, sup_u0, sup_v0)
    l_u, l_v = lipschitz_bounds(params, a_bound, b_bound)

    stepper = _LinearStepper(geom, params, cfg_h, robin_coeff=params.alpha * l_u,
                             absorption=params.beta * l_v)

    report = IterationReport(times=times, bounds=(a_bound, b_bound),
                             outer_tol=outer_tol)
    # stacks of the (lower, upper) pair, indexed [time, sequence, cell]; the
    # report holds views of one sequence each
    pair_u = np.empty((n_steps + 1, 2, geom.n_omega))
    pair_v = np.empty((n_steps + 1, 2, geom.n_gamma))
    pair_u[:, 0], pair_u[:, 1] = 0.0, a_bound
    pair_v[:, 0], pair_v[:, 1] = 0.0, b_bound
    report.lower_u.append(pair_u[:, 0])
    report.lower_v.append(pair_v[:, 0])
    report.upper_u.append(pair_u[:, 1])
    report.upper_v.append(pair_v[:, 1])
    gap0 = max(a_bound, b_bound)
    report.gaps.append(gap0)

    for k in range(1, k_max + 1):
        pair_u, pair_v = _sweep_pair(state0.u, state0.v, pair_u, pair_v,
                                     stepper, params, l_u, l_v)
        lo_u, hi_u = pair_u[:, 0], pair_u[:, 1]
        lo_v, hi_v = pair_v[:, 0], pair_v[:, 1]
        report.violations_lower.append(float(min(
            np.min(lo_u - report.lower_u[-1]), np.min(lo_v - report.lower_v[-1]))))
        report.violations_cross.append(float(min(
            np.min(hi_u - lo_u), np.min(hi_v - lo_v))))
        report.violations_upper.append(float(min(
            np.min(report.upper_u[-1] - hi_u), np.min(report.upper_v[-1] - hi_v))))
        report.lower_u.append(lo_u)
        report.lower_v.append(lo_v)
        report.upper_u.append(hi_u)
        report.upper_v.append(hi_v)
        gap = max(float(np.max(np.abs(hi_u - lo_u))),
                  float(np.max(np.abs(hi_v - lo_v))))
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

    mid_u = 0.5 * (report.upper_u[-1] + report.lower_u[-1])
    mid_v = 0.5 * (report.upper_v[-1] + report.lower_v[-1])
    solution = [State(np.maximum(mid_u[n], 0.0), np.maximum(mid_v[n], 0.0),
                      float(times[n]))
                for n in range(n_steps + 1)]
    return solution, report


def check_sandwich(report: IterationReport, slack: float = None) -> SandwichVerdict:
    """Re-audit all three orderings from the stored iterate stacks.

    Slack defaults to ORDERING_SLACK * max(1, A, B). Returns the worst signed
    margin together with where it occurred.
    """
    if not report.lower_u or len(report.lower_u) < 2:
        raise ValueError("report holds fewer than two iterates")
    if slack is None:
        slack = ORDERING_SLACK * max(1.0, *report.bounds)
    worst = np.inf
    worst_ord = "none"
    worst_k = 0
    for k in range(len(report.lower_u) - 1):
        checks = (
            ("lower_nondecreasing",
             min(np.min(report.lower_u[k + 1] - report.lower_u[k]),
                 np.min(report.lower_v[k + 1] - report.lower_v[k]))),
            ("lower_below_upper",
             min(np.min(report.upper_u[k + 1] - report.lower_u[k + 1]),
                 np.min(report.upper_v[k + 1] - report.lower_v[k + 1]))),
            ("upper_nonincreasing",
             min(np.min(report.upper_u[k] - report.upper_u[k + 1]),
                 np.min(report.upper_v[k] - report.upper_v[k + 1]))),
        )
        for name, margin in checks:
            if margin < worst:
                worst = float(margin)
                worst_ord = name
                worst_k = k + 1
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
    integrate(state_low.copy(), geom, params, cfg, t_end,
              observer=lambda s: low_steps.append(s.copy()))
    integrate(state_high.copy(), geom, params, cfg, t_end,
              observer=lambda s: high_steps.append(s.copy()))

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
