"""Observables, audits and the explicit reference integrator.

A TraceSeries is the recorded history of one integration: conserved mass,
entropy, dissipation, distance from equilibrium and the mixing/translation
split of the relative entropy, one row per accepted step plus the initial
state. record reads the z-stacks of stepper._march, as comparison_pairs
does, and computes the rows in blocks: each state is only copied into a
[row, unknown] buffer of at most _BLOCK_ELEMENTS numbers, and each full
buffer, then the rest, goes through model's row-wise functionals in one
vectorised pass. The rows are bitwise those of the one-State functionals,
and memory does not grow with the horizon beyond the nine columns.
_record_batch records runs that share a stepper in lockstep, each with its
own equilibrium, buffers and row checks; record is its one-run case. All
audits consume the series (or the raw state trajectory) after the fact;
nothing here feeds back into the solvers.

The reference integrator is scipy's adaptive Dormand-Prince 8(5,3) (DOP853)
on the identical semi-discrete system, run at a relative tolerance of 1e-13.
It is deliberately restricted to tiny instances and exists to cross-check the
implicit path.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import xlogy

from .errors import OracleFailure
from .grid import GridGeometry
from .model import (Equilibrium, ModelParams, State, _decomposition_rows,
                    _dissipation_rows, _entropy_rows, _mass_rows, ckp_constant,
                    equilibrium_entropy, mass, solve_equilibrium)
# record evaluates blocks of rows and no longer calls these per state; they
# stay importable here because the benchmark's tracer wraps them by this name
from .model import dissipation, entropy, entropy_decomposition  # noqa: F401
from .stepper import StepConfig, _march, _stacked, semi_discrete_rhs
# record marches the stepper itself; bound because the benchmark's tracer
# wraps integrate by this name
from .stepper import integrate  # noqa: F401

__all__ = [
    "TraceSeries",
    "RateFit",
    "record",
    "check_entropy_dissipation_identity",
    "fit_rate",
    "audit_ckp",
    "audit_degenerate_coupling",
    "dense_oracle",
    "write_series_csv",
]

SERIES_COLUMNS = ("t", "mass", "E", "D", "E_rel", "I1", "I2", "L1_u", "L1_v")


@dataclass
class TraceSeries:
    """Per-record observables of one run, plus its final state. The first
    nine fields are the SERIES_COLUMNS, in that order."""

    times: np.ndarray
    mass: np.ndarray
    entropy: np.ndarray
    dissipation: np.ndarray
    entropy_rel: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    l1_u: np.ndarray
    l1_v: np.ndarray
    equilibrium: Equilibrium
    entropy_eq: float
    final: State

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential decay fit of the relative entropy."""

    c0_emp: float
    r_squared: float
    window: tuple
    eed_min: float
    intercept: float


# elements (rows x unknowns) of the block of states that record evaluates at
# once: the buffer and the block's temporaries stay a few tens of kB
# whatever the grid and the horizon
_BLOCK_ELEMENTS = 4096


def _series_block(times, u, v, geom: GridGeometry, params: ModelParams,
                  eq: Equilibrium, e_eq: float) -> np.ndarray:
    """The SERIES_COLUMNS, as a fresh [column, row] array, of a block of
    states u [row, n_omega], v [row, n_gamma] at the given times. The
    x log x terms and the mass are evaluated once, for E and I1 and for the
    mass column and the decomposition's check."""
    xu, xv = xlogy(u, u), xlogy(v, v)
    e = _entropy_rows(u, v, geom, params, xu, xv)
    m = _mass_rows(u, v, geom, params)
    i1, i2 = _decomposition_rows(u, v, geom, params, eq, m, xu, xv)
    return np.array((
        times, m, e, _dissipation_rows(u, v, geom, params), e - e_eq, i1, i2,
        np.vecdot(geom.omega_weights, np.abs(u - eq.u_inf)),
        np.vecdot(geom.gamma_weights, np.abs(v - eq.v_inf))))


class _Recorder:
    """The series rows of one run, relative to the equilibrium of its
    initial mass: pushed states are copied into [row, unknown] buffers, and
    each full buffer, then the rest, is evaluated as one block."""

    def __init__(self, state0: State, geom: GridGeometry, params: ModelParams):
        self.geom, self.params = geom, params
        self.eq = solve_equilibrium(params, geom, mass(state0, geom, params))
        self.e_eq = equilibrium_entropy(self.eq, geom, params)
        n_rows = max(1, _BLOCK_ELEMENTS // (geom.n_omega + geom.n_gamma))
        self.times = np.empty(n_rows)
        self.u = np.empty((n_rows, geom.n_omega))
        self.v = np.empty((n_rows, geom.n_gamma))
        self.blocks = []
        self.pending = 0
        self.push(state0.time, state0.u, state0.v)

    def push(self, time, u, v):
        k = self.pending
        self.times[k], self.u[k], self.v[k] = time, u, v
        self.pending = k + 1
        if self.pending == len(self.times):
            self.flush()

    def flush(self):
        k, self.pending = self.pending, 0
        if k:
            self.blocks.append(_series_block(
                self.times[:k], self.u[:k], self.v[:k], self.geom,
                self.params, self.eq, self.e_eq))

    def series(self, final: State) -> TraceSeries:
        self.flush()
        return TraceSeries(*np.concatenate(self.blocks, axis=1),
                           equilibrium=self.eq, entropy_eq=self.e_eq,
                           final=final)


def _record_batch(states0, geom: GridGeometry, params, cfg: StepConfig,
                  t_end: float) -> list:
    """record of several runs at once, run i from states0[i] with params[i];
    the TraceSeries of each. The runs march in lockstep as one z-stack
    (stepper._march), so their params must share delta_u and delta_v.

    A failure of any run is raised once the rows of every run are
    evaluated, so that a row's error still comes out before the error of a
    later step."""
    recorders = [_Recorder(state0, geom, p)
                 for state0, p in zip(states0, params)]
    n_u = geom.n_omega
    time, z = None, None
    try:
        for time, z in _march(states0, geom, params, cfg, t_end):
            for rec, row in zip(recorders, z):
                rec.push(time, row[:n_u], row[n_u:])
    except Exception:
        for rec in recorders:
            rec.flush()
        raise
    finals = (states0 if z is None  # a zero span takes no step
              else [State(row[:n_u], row[n_u:], time) for row in z])
    return [rec.series(final) for rec, final in zip(recorders, finals)]


def record(state0: State, geom: GridGeometry, params: ModelParams,
           cfg: StepConfig, t_end: float) -> TraceSeries:
    """Integrate and record observables at the initial state and after every
    accepted step, relative to the equilibrium of the initial mass; the
    one-run _record_batch.

    Rows are evaluated in blocks (module docstring). A row's error (a state
    whose mass left the equilibrium's) still comes out before the error of a
    later step, as if each row were evaluated when its step was taken."""
    series, = _record_batch([state0], geom, [params], cfg, t_end)
    return series


def check_entropy_dissipation_identity(series: TraceSeries,
                                       t_start: float = 0.0) -> float:
    """Largest normalized defect of dE/dt = -D over interior record times.

    The centered difference of E is compared against -D; the result shrinks
    linearly with dt on a fixed window. t_start can exclude an initial
    transient so runs with different dt are compared at matching times.
    """
    n = len(series)
    if n < 3:
        raise ValueError(f"need at least 3 records, got {n}")
    dts = np.diff(series.times)
    h = dts[0]
    if np.max(np.abs(dts - h)) > 1e-8 * abs(h):
        raise ValueError("identity check requires a uniform time grid")
    interior = np.arange(1, n - 1)
    interior = interior[series.times[interior] >= t_start]
    if len(interior) == 0:
        raise ValueError("t_start excludes every interior record")
    e = series.entropy
    d = series.dissipation
    resid = np.abs((e[interior + 1] - e[interior - 1]) / (2.0 * h) + d[interior])
    return float(np.max(resid / np.maximum(1.0, np.abs(d[interior]))))


def fit_rate(series: TraceSeries, skip_fraction: float = 0.3) -> RateFit:
    """Fit log E_rel against t on the tail window.

    Skips the initial skip_fraction of records, drops records whose relative
    entropy is at the cancellation floor (<= 10 eps |E_eq|), and needs at
    least two surviving records.
    """
    if not 0.0 <= skip_fraction < 1.0:
        raise ValueError(f"skip_fraction must be in [0, 1), got {skip_fraction}")
    n = len(series)
    start = int(math.floor(n * skip_fraction))
    t = series.times[start:]
    e_rel = series.entropy_rel[start:]
    d = series.dissipation[start:]
    floor = 10.0 * np.finfo(float).eps * abs(series.entropy_eq)
    keep = e_rel > floor
    if np.count_nonzero(keep) < 2:
        raise ValueError(
            "fewer than two records with resolvable relative entropy in window")
    t = t[keep]
    y = np.log(e_rel[keep])
    slope, intercept = np.polyfit(t, y, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    eed = float(np.min(d[keep] / e_rel[keep]))
    return RateFit(c0_emp=float(-slope), r_squared=float(r2),
                   window=(float(t[0]), float(t[-1])), eed_min=eed,
                   intercept=float(intercept))


def audit_ckp(series: TraceSeries, params: ModelParams) -> float:
    """Smallest margin of E_rel >= C_ckp (||u - u_inf||_1^2 + ||v - v_inf||_1^2)
    over the records; nonnegative up to roundoff when the inequality holds."""
    c = ckp_constant(params, series.equilibrium.mass)
    margins = series.entropy_rel - c * (series.l1_u ** 2 + series.l1_v ** 2)
    return float(np.min(margins))


def audit_degenerate_coupling(state: State, geom: GridGeometry,
                              params: ModelParams) -> float:
    """Empirical constant in the boundary-coupling estimate for delta_v = 0.

    In the rescaled variables u~ = k_u^(1/a) u, v~ = k_v^(1/b) v, in which the
    reaction reads u~^a - v~^b, and with U = sqrt(u~), V = sqrt(v~), returns
    for the given state

        [ ||U^a - V^b||^2_G + ||grad U||^2_O + ||U - mean(U)||^2_G ]
        / ||V - mean(V)||^2_G

    or inf when the denominator is below 1e-14. Positive ratios along a run
    (callers take the minimum) are the evidence that surface oscillations are
    controlled by bulk quantities even without surface diffusion. With
    k_u = k_v = 1 the rescaling is the identity.
    """
    if params.delta_v != 0:
        raise ValueError("degenerate coupling audit requires delta_v = 0")
    wg = geom.gamma_weights
    v_sqrt = np.sqrt(params.k_v ** (1.0 / params.beta) * state.v)
    v_mean = float(wg @ v_sqrt) / geom.gamma_measure
    den = float(wg @ (v_sqrt - v_mean) ** 2)
    if den <= 1e-14:
        return np.inf
    u_sqrt = np.sqrt(params.k_u ** (1.0 / params.alpha) * state.u)
    ut_sqrt = u_sqrt[geom.trace_cells]
    u_mean = float(geom.omega_weights @ u_sqrt) / geom.omega_measure
    jumps = u_sqrt[geom.omega_faces[:, 1]] - u_sqrt[geom.omega_faces[:, 0]]
    num = (float(wg @ (ut_sqrt ** params.alpha - v_sqrt ** params.beta) ** 2)
           + float(geom.omega_face_coeffs @ jumps ** 2)
           + float(wg @ (ut_sqrt - u_mean) ** 2))
    return num / den


# --- explicit reference integrator ----------------------------------------

MAX_ORACLE_UNKNOWNS = 64
# the explicit step count grows with the stiffness; past this many
# right-hand-side evaluations (seconds of work) the oracle gives up
MAX_ORACLE_EVALUATIONS = 100_000


def dense_oracle(state0: State, geom: GridGeometry, params: ModelParams,
                 t_end: float, n_checkpoints: int = 101):
    """Adaptive explicit reference trajectory on the same spatial
    discretization.

    Integrates the semi-discrete system with scipy's DOP853 (Dormand-Prince
    8(5,3)) at rtol 1e-13, atol 1e-15, restricted to instances with at most
    64 unknowns. Returns the states at n_checkpoints evenly spaced times
    including both endpoints. Raises OracleFailure when the solver gives up,
    needs more than MAX_ORACLE_EVALUATIONS right-hand-side evaluations,
    produces non-finite values, or leaves the nonnegative cone.
    """
    n_tot = geom.n_omega + geom.n_gamma
    if n_tot > MAX_ORACLE_UNKNOWNS:
        raise ValueError(
            f"oracle limited to {MAX_ORACLE_UNKNOWNS} unknowns, got {n_tot}")
    z0 = _stacked(state0, geom)
    span = t_end - state0.time
    if span < 0:
        raise ValueError(f"t_end={t_end} is before state time {state0.time}")
    if span == 0:
        return [state0.copy()]
    if n_checkpoints < 2:
        raise ValueError(f"need at least 2 checkpoints, got {n_checkpoints}")

    # deferred: scipy.integrate is slow to import and only the oracle needs it
    from scipy.integrate import solve_ivp

    n_u = geom.n_omega
    evaluations = 0

    def rhs(t, z):
        nonlocal evaluations
        evaluations += 1
        if evaluations > MAX_ORACLE_EVALUATIONS:
            raise OracleFailure(
                f"reference integration stopped at t={t:g} after "
                f"{MAX_ORACLE_EVALUATIONS} right-hand-side evaluations "
                f"(too stiff for the explicit oracle)")
        du, dv = semi_discrete_rhs(z[:n_u], z[n_u:], geom, params)
        return np.concatenate([du, dv])

    seg = span / (n_checkpoints - 1)
    times = state0.time + seg * np.arange(n_checkpoints)
    sol = solve_ivp(rhs, (times[0], times[-1]), z0, method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-15)
    if sol.status < 0:
        reached = sol.t[-1] if len(sol.t) else state0.time
        raise OracleFailure(
            f"reference integration failed after t={reached:g}: {sol.message}")

    out = [state0.copy()]
    for c in range(1, n_checkpoints):
        z = sol.y[:, c]
        if not np.all(np.isfinite(z)):
            raise OracleFailure(
                f"reference integration produced non-finite values near "
                f"t={times[c]:g}")
        scale = max(1.0, float(np.max(np.abs(z))))
        if np.min(z) < -1e-10 * scale:
            raise OracleFailure(
                f"reference integration left the nonnegative cone near "
                f"t={times[c]:g}")
        zc = np.maximum(z, 0.0)
        out.append(State(zc[:n_u], zc[n_u:], float(times[c])))
    return out


# --- CSV export -----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_series_csv(series: TraceSeries, path):
    """CSV of the SERIES_COLUMNS at full precision, one row per record."""
    cols = [getattr(series, f.name)
            for f in fields(series)[:len(SERIES_COLUMNS)]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(x) for x in row) + "\n")
