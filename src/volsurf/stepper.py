"""Implicit time stepping for the coupled bulk-surface system.

Everything is backward Euler on the measure-weighted form of the equations,
so the conserved weighted total is preserved by construction up to solver
tolerances:

    w_i (u_i^{n+1} - u_i^n)/dt = delta_u (W L u^{n+1})_i / w_i ...

On the stacked unknowns z = (u, v) with masses M = (w, w_Gamma), every
implicit matrix is diag(M/dt + shift) - D, where D = blockdiag(delta_u W L,
delta_v W_Gamma L_Gamma) is assembled once per stepper by
_weighted_diffusion. Both steppers map z-stacks to z-stacks, a leading axis
holding trajectories. The linear substeps (frozen sources) have a fixed,
block-diagonal matrix, so _LinearStepper factors it once and a step is one
solve; linear_bulk_step and linear_surface_step are independent one-shot
references. The fully coupled step runs Newton with exact power-law
partials: K = diag(M/dt) - D is factored once per stepper, and the
rank-n_Gamma reaction part of the Jacobian goes through a dense capacitance
solve (Woodbury; Hager, SIAM Review 1989). The iterations run on the
interface values only (the trace cells and the surface patches), reading the
2 n_Gamma x n_Gamma interface rows of K^{-1}A, so a step that iterates does
two sparse solves whatever its iteration count and the stepper stores
O(n + n_Gamma^2) numbers; see _CoupledStepper. All factorizations go through
linsolve.factor. _march advances States as one z-stack on one coupled
stepper; integrate is its one-State case and builds the States.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linsolve
from .errors import LinearSolverError, StepFailure
from .grid import GridGeometry, GridKind
from .model import DERIVATIVE_FLOOR, ModelParams, State

__all__ = [
    "StepConfig",
    "linear_bulk_step",
    "linear_surface_step",
    "integrate",
    "semi_discrete_rhs",
]


@dataclass(frozen=True)
class StepConfig:
    """Time step size and solver tolerances for the implicit schemes."""

    dt: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 25
    linear_tol: float = 1e-10

    def __post_init__(self):
        # written as range tests, which NaN fails too
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, "
                             f"got {self.newton_tol}")
        if not 1 <= self.newton_max_iter < math.inf:
            raise ValueError(f"newton_max_iter must be finite and >= 1, "
                             f"got {self.newton_max_iter}")
        if not 0 < self.linear_tol < math.inf:
            raise ValueError(f"linear_tol must be positive and finite, "
                             f"got {self.linear_tol}")


def _check_surface_diffusion(geom: GridGeometry, params: ModelParams):
    # the interval boundary is two points; surface diffusion has no meaning there
    if params.delta_v > 0 and geom.kind is GridKind.INTERVAL_1D:
        raise ValueError(
            "delta_v > 0 is not meaningful on an interval geometry "
            "(point boundary has no surface Laplacian)")


def _as_gamma_array(value, geom, name, nonnegative=False):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(geom.n_gamma, float(arr))
    if arr.shape != (geom.n_gamma,):
        raise ValueError(
            f"{name} has shape {arr.shape}, expected ({geom.n_gamma},) or scalar")
    if nonnegative and np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _stacked(state: State, geom: GridGeometry) -> np.ndarray:
    """The stacked unknowns z = (u, v) of a State on geom."""
    if state.u.shape != (geom.n_omega,) or state.v.shape != (geom.n_gamma,):
        raise ValueError("state does not match geometry dimensions")
    return np.concatenate([state.u, state.v])


def _step_grid(t0: float, span: float, dt: float):
    """(h, times) of the uniform grid of round(span/dt) >= 1 steps over
    [t0, t0 + span]: a span that is a multiple of dt gives dt-sized steps."""
    n_steps = max(1, int(round(span / dt)))
    h = span / n_steps
    return h, t0 + h * np.arange(n_steps + 1)


# columns per chunk of the K^{-1}A solve at construction: enough for SuperLU's
# multi-column solve to reach its per-column speed, few enough that the
# transient stays O(n)
_CHUNK_COLUMNS = 32


def _weighted_diffusion(geom: GridGeometry, params: ModelParams) -> sp.csr_matrix:
    """D = blockdiag(delta_u W L, delta_v W_Gamma L_Gamma) on the stacked
    unknowns z = (u, v): the diffusion part of every implicit matrix, which
    is diag(M/dt + shift) - D with M = (w, w_Gamma). Symmetric negative
    semidefinite; a block with zero diffusivity holds no entries."""
    d = sp.block_diag(
        [params.delta_u * (sp.diags(geom.omega_weights) @ geom.bulk_laplacian),
         params.delta_v * (sp.diags(geom.gamma_weights) @ geom.surface_laplacian)],
        format="csr")
    d.eliminate_zeros()
    return d


class _LinearStepper:
    """Backward-Euler steps of the linear bulk and surface problems on the
    stacked unknowns z = (u, v), with the Robin coefficient, the absorption
    and dt fixed.

    The two problems are decoupled, so one block matrix
    diag(M/dt + shift) - D holds both; it is assembled and factored once and
    a step is a triangular solve. A z-stack may carry leading axes of
    independent trajectories, which advance together as one multi-column
    right-hand side.
    """

    def __init__(self, geom: GridGeometry, params: ModelParams, cfg: StepConfig,
                 robin_coeff, absorption):
        _check_surface_diffusion(geom, params)
        self.geom = geom
        self.dt = cfg.dt
        self.tol = cfg.linear_tol
        rho = _as_gamma_array(robin_coeff, geom, "robin_coeff", nonnegative=True)
        a_coeff = _as_gamma_array(absorption, geom, "absorption",
                                  nonnegative=True)
        wg = geom.gamma_weights
        diag_shift = np.concatenate([geom.omega_weights / cfg.dt,
                                     wg * (1.0 / cfg.dt + a_coeff)])
        np.add.at(diag_shift, geom.trace_cells, wg * rho)
        self.a = linsolve.assemble_shifted(_weighted_diffusion(geom, params),
                                           diag_shift, 1.0)
        self.lu = linsolve.factor(self.a)

    def step(self, z_old, boundary_source, surface_source):
        """The z-stack one step on, of the shape (..., n_Omega + n_Gamma) of
        z_old; the sources are frozen, see linear_bulk_step and
        linear_surface_step."""
        geom = self.geom
        n_u = geom.n_omega
        wg = geom.gamma_weights
        rhs_u = geom.omega_weights * z_old[..., :n_u] / self.dt
        np.add.at(rhs_u.T, geom.trace_cells, (wg * boundary_source).T)
        rhs = np.concatenate(
            [rhs_u, wg * (z_old[..., n_u:] / self.dt + surface_source)],
            axis=-1).T
        z = self.lu.solve(rhs)
        linsolve.check_residual(self.a, z, rhs, self.tol)
        return z.T


def linear_bulk_step(u_old: np.ndarray, robin_coeff, boundary_source,
                     geom: GridGeometry, params: ModelParams,
                     cfg: StepConfig):
    """One backward-Euler step of the bulk diffusion problem with Robin data
    delta_u du/dnu + robin_coeff * u = boundary_source on the boundary.

    Returns (u_new, boundary_flux) where boundary_flux[j] is the flux density
    absorbed through patch j at the new time level, so that

        (w @ u_new - w @ u_old)/dt == gamma_weights @ boundary_flux

    up to the linear solve tolerance (the conservation pairing). A one-shot
    assembly and solve, independent of the factored sweep stepper.
    """
    u_old = np.asarray(u_old, dtype=float)
    if u_old.shape != (geom.n_omega,):
        raise ValueError(
            f"u_old has shape {u_old.shape}, expected ({geom.n_omega},)")
    rho = _as_gamma_array(robin_coeff, geom, "robin_coeff", nonnegative=True)
    src = _as_gamma_array(boundary_source, geom, "boundary_source")
    w, wg = geom.omega_weights, geom.gamma_weights
    diag_shift = w / cfg.dt
    np.add.at(diag_shift, geom.trace_cells, wg * rho)
    rhs = w * u_old / cfg.dt
    np.add.at(rhs, geom.trace_cells, wg * src)
    a = linsolve.assemble_shifted(sp.diags(w) @ geom.bulk_laplacian,
                                  diag_shift, params.delta_u)
    u_new, _ = linsolve.solve(a, rhs, cfg.linear_tol)
    return u_new, src - rho * u_new[geom.trace_cells]


def linear_surface_step(v_old: np.ndarray, absorption, source,
                        geom: GridGeometry, params: ModelParams,
                        cfg: StepConfig) -> np.ndarray:
    """One backward-Euler step of v_t - delta_v Lap_Gamma v + absorption*v = source.
    A one-shot assembly and solve, independent of the factored sweep stepper."""
    v_old = np.asarray(v_old, dtype=float)
    if v_old.shape != (geom.n_gamma,):
        raise ValueError(
            f"v_old has shape {v_old.shape}, expected ({geom.n_gamma},)")
    _check_surface_diffusion(geom, params)
    a_coeff = _as_gamma_array(absorption, geom, "absorption", nonnegative=True)
    src = _as_gamma_array(source, geom, "source")
    wg = geom.gamma_weights
    a = linsolve.assemble_shifted(sp.diags(wg) @ geom.surface_laplacian,
                                  wg * (1.0 / cfg.dt + a_coeff), params.delta_v)
    v_new, _ = linsolve.solve(a, wg * (v_old / cfg.dt + src), cfg.linear_tol)
    return v_new


def semi_discrete_rhs(u: np.ndarray, v: np.ndarray, geom: GridGeometry,
                      params: ModelParams):
    """Right-hand side of the spatially discretized system: the dense
    oracle's independent right-hand side, which the implicit steppers do
    not call.

    Powers are evaluated at max(., 0); the exact flow never leaves the
    nonnegative cone, the clip only guards transient solver excursions.
    """
    ut = np.maximum(u[geom.trace_cells], 0.0)
    vc = np.maximum(v, 0.0)
    r = params.k_u * ut ** params.alpha - params.k_v * vc ** params.beta
    du = params.delta_u * (geom.bulk_laplacian @ u)
    np.add.at(du, geom.trace_cells, geom.trace_factors * (-params.alpha) * r)
    dv = params.beta * r
    if params.delta_v > 0:
        dv = dv + params.delta_v * (geom.surface_laplacian @ v)
    return du, dv


class _CoupledStepper:
    """Reusable backward-Euler Newton stepper on z = (u, v): step maps a
    z-stack to the z-stack one step on, as _LinearStepper.step does.

    The residual is F(z) = (M/dt)(z - z_old) - D z + A r(z), with
    K = diag(M/dt) - D factored once, column j of A equal to
    w_Gamma,j (alpha e_tc(j) - beta e_patch(j)) and r_j the rate of patch j;
    the Jacobian is K + A B^T, column j of B holding the partials of r_j.

    Newton runs on the interface values zg = (u at the trace cells, v). A
    pass starts from an iterate z with one sparse solve,
    base = z + K^{-1}(-F(z)), and r0 = r(z). Every Newton iterate after z is
    base - K^{-1}A p for some p in R^{n_Gamma}, with interface values
    base_g - ka_interface p and residual exactly A (r - r0 - p), r the rates
    there; ka_interface holds the rows of K^{-1}A at the trace cells and the
    patches. The Woodbury form of J^{-1} (Hager, SIAM Review 1989) then
    updates p by one dense n_Gamma x n_Gamma solve and no sparse one. Once
    the interface residual meets the tolerance, a second sparse solve forms
    z = base - K^{-1}(A p); it must meet the full residual test, else the
    next pass starts from it.

    Both sparse solves are in increment form: their right-hand sides, -F(z)
    and A p, are the step's change, not the state. A solve's round-off
    scales with its solution, so the weighted mass moves by round-off of the
    change; solving for the state from scratch moves it by round-off of the
    state, about a hundred times more over a thousand steps.
    """

    def __init__(self, geom: GridGeometry, params: ModelParams, cfg: StepConfig):
        _check_surface_diffusion(geom, params)
        self.geom = geom
        self.params = params
        self.cfg = cfg
        n_u, n_g = geom.n_omega, geom.n_gamma
        self.mass = np.concatenate([geom.omega_weights, geom.gamma_weights])
        self.diffusion = _weighted_diffusion(geom, params)
        self.lu = linsolve.factor(sp.diags(self.mass / cfg.dt) - self.diffusion)
        # A's two entries per column: the trace cell of each patch, then the
        # patch itself
        self.interface = np.concatenate([geom.trace_cells, n_u + np.arange(n_g)])
        wg = geom.gamma_weights
        self.weights = np.concatenate([params.alpha * wg, -params.beta * wg])
        # K^{-1}A is solved in column chunks and only its interface rows are
        # kept, so neither the storage nor the transient is n x n_Gamma
        rows, w = self.interface.reshape(2, n_g), self.weights.reshape(2, n_g)
        blocks = []
        for j in range(0, n_g, _CHUNK_COLUMNS):
            cols = np.arange(j, min(j + _CHUNK_COLUMNS, n_g))
            a = np.zeros((n_u + n_g, cols.size))
            a[rows[:, cols], cols - j] = w[:, cols]
            blocks.append(self.lu.solve(a)[self.interface])
        self.ka_interface = np.concatenate(blocks, axis=1)

    def _spread(self, x):
        """A x for x in R^{n_Gamma}: the reaction weights times x at the
        trace cells and the patches."""
        return np.bincount(self.interface, self.weights * np.concatenate([x, x]),
                           self.mass.size)

    def _rates(self, zg):
        """Rate of each patch at the interface values zg, powers of max(., 0)."""
        p = self.params
        n_g = self.geom.n_gamma
        return (p.k_u * np.maximum(zg[:n_g], 0.0) ** p.alpha
                - p.k_v * np.maximum(zg[n_g:], 0.0) ** p.beta)

    def _residual(self, z, z_old):
        return (self.mass * (z - z_old) / self.cfg.dt - self.diffusion @ z
                + self._spread(self._rates(z[self.interface])))

    def _partials(self, zg):
        """(dr/du, -dr/dv) per patch at the interface values zg, arguments
        floored at DERIVATIVE_FLOOR."""
        p = self.params
        n_g = self.geom.n_gamma
        ut = np.maximum(zg[:n_g], DERIVATIVE_FLOOR)
        vc = np.maximum(zg[n_g:], DERIVATIVE_FLOOR)
        return (p.k_u * p.alpha * ut ** (p.alpha - 1.0),
                p.k_v * p.beta * vc ** (p.beta - 1.0))

    def _interface_update(self, zg, g, dg=None):
        """Newton increment of p at the interface values zg:
        (I + B^T ka_interface)^{-1} (g + B^T dg), B the rate partials at zg.
        g is the iterate's residual coefficient and dg the part of its
        interface values that p does not carry: on the first iteration of a
        pass g = 0 and dg is the first solve's change, after it dg = None."""
        n_g = self.geom.n_gamma
        ka = self.ka_interface
        dpu, dpv = self._partials(zg)
        cap = dpu[:, None] * ka[:n_g] - dpv[:, None] * ka[n_g:]
        cap.flat[::n_g + 1] += 1.0
        if dg is not None:
            g = g + dpu * dg[:n_g] - dpv * dg[n_g:]
        try:
            dp = np.linalg.solve(cap, g)
        except np.linalg.LinAlgError as exc:
            raise LinearSolverError("Newton capacitance system is singular") from exc
        if not np.all(np.isfinite(dp)):
            raise LinearSolverError("Newton capacitance solve is not finite")
        return dp

    def _tracked(self, res_norm, history, scale, time):
        """Append res_norm to the history; raise StepFailure if it diverged."""
        history.append(res_norm)
        if not np.isfinite(res_norm) or res_norm > 1e8 * scale:
            raise StepFailure(f"Newton diverged at t={time:g} (reduce dt)",
                              residual_history=history, time=time)
        return res_norm

    def step(self, z_old, time):
        """The z-stack one step on from time, z_old indexed [trajectory,
        unknown]; each trajectory runs its own Newton iteration, one after
        another."""
        return np.stack([self._newton(z, time) for z in z_old])

    def _newton(self, z_old, time):
        """The new z of one trajectory, from z_old at time."""
        cfg = self.cfg
        rows = self.interface
        z = z_old
        res = self._residual(z, z_old)
        res_norm = float(np.linalg.norm(res))
        history = [res_norm]
        if not np.isfinite(res_norm):  # the data overflow the reaction rates
            raise StepFailure(
                f"Newton residual is not finite at t={time:g}",
                residual_history=history, time=time)
        scale = max(1.0, res_norm)
        target = cfg.newton_tol * scale

        it = 0
        while res_norm > target:
            # one pass: rebase at z, Newton on p, then form the iterate
            y = self.lu.solve(-res)
            base = z + y
            base_g = base[rows]
            zg = z[rows]
            r0 = self._rates(zg)
            p = np.zeros(self.geom.n_gamma)
            g, dg = 0.0, y[rows]
            while True:
                if it >= cfg.newton_max_iter:
                    raise StepFailure(
                        f"Newton did not reach tolerance in {cfg.newton_max_iter} "
                        f"iterations at t={time:g} (reduce dt)",
                        residual_history=history, time=time)
                it += 1
                p_new = p + self._interface_update(zg, g, dg)
                if np.array_equal(p_new, p):  # update below float resolution
                    break
                p, dg = p_new, None
                zg = base_g - self.ka_interface @ p
                g = self._rates(zg) - r0 - p
                if self._tracked(float(np.linalg.norm(self._spread(g))),
                                 history, scale, time) <= target:
                    break
            z_new = base - self.lu.solve(self._spread(p))
            if np.array_equal(z_new, z):  # update below float resolution
                break
            z = z_new
            res = self._residual(z, z_old)
            res_norm = self._tracked(float(np.linalg.norm(res)), history,
                                     scale, time)

        mag = max(1.0, float(np.max(np.abs(z))))
        if np.any(z < -1e-12 * mag):
            raise StepFailure(
                f"negative concentrations beyond tolerance at "
                f"t={time + cfg.dt:g} (reduce dt)",
                residual_history=history, time=time)
        return np.maximum(z, 0.0)


def _march(states, geom: GridGeometry, params: ModelParams, cfg: StepConfig,
           t_end: float):
    """Advance States sharing one start time to t_end on one coupled stepper
    (one factorization), held as one z-stack indexed [trajectory, unknown].
    Yields (time, z) after every step of _step_grid, z a fresh stack that is
    never modified afterwards. A StepFailure of any trajectory ends the
    march at that step."""
    z = np.stack([_stacked(state, geom) for state in states])
    t0 = states[0].time
    if any(state.time != t0 for state in states):
        raise ValueError("states must share the same time")
    span = t_end - t0
    if span < 0:
        raise ValueError(f"t_end={t_end} is before state time {t0}")
    if span == 0:
        return
    h, times = _step_grid(t0, span, cfg.dt)
    stepper = _CoupledStepper(geom, params, dataclasses.replace(cfg, dt=h))
    for time, t_new in zip(times[:-1].tolist(), times[1:].tolist()):
        z = stepper.step(z, time)
        yield t_new, z


def integrate(state0: State, geom: GridGeometry, params: ModelParams,
              cfg: StepConfig, t_end: float, observer=None) -> State:
    """March state0 to t_end on the uniform grid of _step_grid, so
    diagnostics can rely on equal steps; the one-trajectory _march.

    The observer, if given, is called after every accepted step with that
    step's State, which is fresh and never modified afterwards, so it may be
    kept without a copy.
    """
    n_u = geom.n_omega
    state = state0
    for time, z in _march((state0,), geom, params, cfg, t_end):
        state = State(z[0, :n_u], z[0, n_u:], time)
        if observer is not None:
            observer(state)
    return state
