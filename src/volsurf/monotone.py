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
before it, which is then dropped. A pair is one array indexed [time,
sequence, unknown] over the stacked unknowns z = (u, v), so margins, gaps
and the midpoint are each one expression over both species.

The linear bulk and surface matrices are the same for every step of every
sweep (Robin coefficient alpha*L_u, absorption beta*L_v, fixed dt), so one
block matrix holding both is factored once per run. Step n+1 of sweep k
reads only step n of sweep k and step n+1 of sweep k-1, so up to
_SWEEPS_IN_FLIGHT sweeps run as a wavefront, each one step behind the one
before it (pipelined waveform relaxation; Womble, SIAM J. Sci. Stat.
Comput. 1990): every time step of the wavefront, lower and upper sequences
of every moving sweep together, is one multi-column solve. Sweeps past the
converged one are speculative and are discarded; a run holds at most
_SWEEPS_IN_FLIGHT + 1 iterate pairs.

The comparison experiment marches its ordered pairs of States as one z-stack
on one coupled stepper (stepper._march), low and high in alternate rows, and
compares each step as it arrives; one pair is the case of a one-item list.
"""

import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import MonotoneConvergenceError
from .grid import GridGeometry
from .model import (ModelParams, State, constant_upper_solution,
                    lipschitz_bounds, shifted_f, shifted_g)
from .stepper import (StepConfig, _LinearStepper, _march, _stacked,
                      _step_grid)
# unused here; bound because perfbench/tracing.py wraps them by name
from .stepper import linear_bulk_step, linear_surface_step  # noqa: F401

__all__ = [
    "IterationReport",
    "SandwichVerdict",
    "ComparisonVerdict",
    "run_monotone",
    "check_sandwich",
    "comparison_pairs",
]

DEFAULT_OUTER_TOL = 1e-8
DEFAULT_K_MAX = 200
ORDERING_SLACK = 1e-9
COMPARISON_SLACK = 1e-8
ORDERINGS = ("lower_nondecreasing", "lower_below_upper", "upper_nonincreasing")
# sweeps marched at once as a wavefront: each one more saves a solver call
# per time step until the gap converges, and then costs discarded columns
# (4 beat 8 on a 64x32 strip)
_SWEEPS_IN_FLIGHT = 4


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

    @property
    def k_final(self) -> int:
        """Number of sweeps run."""
        return len(self.margins)


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


def _sweeps(z0, pair, stepper, params, l_u, l_v, k_max):
    """Yield the pair stacks of iterates 1, 2, ..., k_max in order, starting
    from the pair stack of iterate 0.

    Stacks are indexed [time, sequence, unknown] with z = (u, v) along the
    last axis; a yielded stack is complete and never modified afterwards.
    Each sequence advances the linear problems with sources frozen at its own
    previous iterate, sampled at the new time level. Up to _SWEEPS_IN_FLIGHT
    sweeps are in flight: sweep k+1 starts once sweep k has taken a step, and
    on each tick every sweep whose predecessor is ahead takes one step, all
    of them in one stepper call. A tick that fails raises at once. The sweeps
    past the one the caller stops at are discarded; they share its factored
    matrix, and their iterates stay in the box [0, A] x [0, B] whose rates
    lipschitz_bounds checked to be finite, so their solves are of the same
    kind as those of the sweeps before them.
    """
    geom = stepper.geom
    last = len(pair) - 1
    chain = [pair]   # the newest complete stack, then the sweeps in flight
    levels = [last]  # the time level each stack of the chain has reached
    started = 0
    while len(chain) > 1 or started < k_max:
        if (started < k_max and len(chain) <= _SWEEPS_IN_FLIGHT
                and levels[-1] > 0):
            traj = np.empty_like(pair)
            traj[0] = z0
            chain.append(traj)
            levels.append(0)
            started += 1
        moving = [i for i in range(1, len(chain)) if levels[i - 1] > levels[i]]
        now = np.stack([chain[i][levels[i]] for i in moving])
        ahead = np.stack([chain[i - 1][levels[i] + 1] for i in moving])
        ut = ahead[..., geom.trace_cells]
        vt = ahead[..., geom.n_omega:]
        new = stepper.step(now, shifted_f(params, l_u, ut, vt),
                           shifted_g(params, l_v, ut, vt))
        for i, z in zip(moving, new):
            levels[i] += 1
            chain[i][levels[i]] = z
        if levels[1] == last:
            del chain[0], levels[0]
            yield chain[0]


def _ordering_margins(prev, new):
    """Worst signed margins of the three ORDERINGS between the pair stacks
    of iterates k-1 and k, indexed [time, sequence, unknown] with the lower
    sequence first (negative is a violation)."""
    return tuple(float(np.min(above - below)) for below, above in
                 ((prev[:, 0], new[:, 0]), (new[:, 0], new[:, 1]),
                  (new[:, 1], prev[:, 1])))


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
    z0 = _stacked(state0, geom)
    if t_horizon <= 0:
        raise ValueError(f"t_horizon must be positive, got {t_horizon}")
    if not outer_tol > 0:
        raise ValueError(f"outer_tol must be positive, got {outer_tol}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    # the time grid and the pair stacks of the sweeps in flight and of their
    # predecessor, sized before any of them is allocated
    n_levels = t_horizon / cfg.dt + 1.0
    need = 8.0 * n_levels * (1 + 2 * z0.size * (_SWEEPS_IN_FLIGHT + 1))
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise MemoryError(
            f"the time grid and {_SWEEPS_IN_FLIGHT + 1} iterate pair stacks of "
            f"{n_levels:.3g} time levels need {need / 2**30:.3g} GiB, more than "
            f"the {memory / 2**30:.3g} GiB of physical memory")
    h, times = _step_grid(state0.time, t_horizon, cfg.dt)

    sup_u0 = float(np.max(state0.u))
    sup_v0 = float(np.max(state0.v))
    # zero data is stationary: the box (0, 0) already encloses it
    a_bound, b_bound = (constant_upper_solution(params, sup_u0, sup_v0)
                        if sup_u0 or sup_v0 else (0.0, 0.0))
    l_u, l_v = lipschitz_bounds(params, a_bound, b_bound)

    stepper = _LinearStepper(geom, params, dataclasses.replace(cfg, dt=h),
                             params.alpha * l_u, params.beta * l_v)

    report = IterationReport(times=times, bounds=(a_bound, b_bound))
    n_u = geom.n_omega
    # the (lower, upper) pair, indexed [time, sequence, unknown]
    pair = np.zeros((len(times), 2, z0.size))
    pair[:, 1, :n_u], pair[:, 1, n_u:] = a_bound, b_bound
    report.gaps.append(max(a_bound, b_bound))

    for new in _sweeps(z0, pair, stepper, params, l_u, l_v, k_max):
        report.margins.append(_ordering_margins(pair, new))
        pair = new
        gap = float(np.max(np.abs(pair[:, 1] - pair[:, 0])))
        report.gaps.append(gap)
        if gap <= outer_tol:
            break
    else:
        raise MonotoneConvergenceError(
            f"gap {report.gaps[-1]:.3e} above tolerance {outer_tol:.1e} after "
            f"{k_max} sweeps (raise k_max or shorten the horizon)",
            gaps=report.gaps)

    report.lower_u, report.lower_v = pair[:, 0, :n_u], pair[:, 0, n_u:]
    report.upper_u, report.upper_v = pair[:, 1, :n_u], pair[:, 1, n_u:]
    mid = np.maximum(0.5 * (pair[:, 1] + pair[:, 0]), 0.0)
    solution = [State(z[:n_u], z[n_u:], t)
                for z, t in zip(mid, times.tolist())]
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


def comparison_pairs(pairs, geom: GridGeometry, params: ModelParams,
                     cfg: StepConfig, t_end: float) -> list:
    """Integrate ordered pairs (low, high) of States together on one coupled
    stepper and audit, pair by pair, that the ordering persists at every
    accepted step. Returns one ComparisonVerdict per pair."""
    for low, high in pairs:
        if np.any(low.u > high.u) or np.any(low.v > high.v):
            raise ValueError("state_low must be <= state_high entrywise")
    scales = [max(1.0, float(np.max(high.u)), float(np.max(high.v)))
              for _, high in pairs]

    # the pairs advance together and are compared as they arrive, so only
    # the current z-stack is held
    worst = np.full(len(pairs), np.inf)
    worst_time = np.array([low.time for low, _ in pairs], dtype=float)
    states = [state for pair in pairs for state in pair]
    for time, z in _march(states, geom, [params] * len(states), cfg, t_end):
        margins = np.min(z[1::2] - z[::2], axis=1)
        worst_time = np.where(margins < worst, time, worst_time)
        worst = np.minimum(worst, margins)
    worst[worst == np.inf] = 0.0  # no step was taken
    return [ComparisonVerdict(passed=bool(w >= -COMPARISON_SLACK * scale),
                              worst_violation=float(w), time=float(t))
            for w, scale, t in zip(worst, scales, worst_time)]
