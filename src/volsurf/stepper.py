"""Implicit time stepping for the coupled bulk-surface system.

Everything is backward Euler on the measure-weighted form of the equations,
so the conserved weighted total is preserved by construction up to solver
tolerances:

    w_i (u_i^{n+1} - u_i^n)/dt = delta_u (W L u^{n+1})_i / w_i ...

On the stacked unknowns z = (u, v) with masses M = (w, w_Gamma), every
implicit matrix is diag(M/dt + shift) - D, where D = blockdiag(delta_u W L,
delta_v W_Gamma L_Gamma) is assembled once per stepper by
_weighted_diffusion. The linear substeps (frozen sources) have a fixed,
block-diagonal matrix, so _LinearStepper factors it once and then solves per
step, several trajectories at a time; linear_bulk_step and
linear_surface_step are independent one-shot references. The fully coupled
step runs Newton on z with exact power-law partials: diag(M/dt) - D is
factored once per stepper, the rank-n_Gamma reaction part of the Jacobian
goes through a dense capacitance solve per iteration (Woodbury; Hager, SIAM
Review 1989). All factorizations go through linsolve.factor.
"""

import dataclasses
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
    "coupled_step",
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
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.newton_tol <= 0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(
                f"newton_max_iter must be >= 1, got {self.newton_max_iter}")
        if self.linear_tol <= 0:
            raise ValueError(f"linear_tol must be positive, got {self.linear_tol}")


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
    """Backward-Euler steps of the linear bulk and surface problems with the
    Robin coefficient, the absorption and dt fixed.

    The two problems are decoupled, so one block matrix
    diag(M/dt + shift) - D holds both; it is assembled and factored once and
    a step is a triangular solve. States may carry a leading axis of
    independent trajectories, which advance together as one multi-column
    right-hand side.
    """

    def __init__(self, geom: GridGeometry, params: ModelParams, cfg: StepConfig,
                 robin_coeff, absorption):
        _check_surface_diffusion(geom, params)
        self.geom = geom
        self.dt = cfg.dt
        self.tol = cfg.linear_tol
        self.rho = _as_gamma_array(robin_coeff, geom, "robin_coeff",
                                   nonnegative=True)
        a_coeff = _as_gamma_array(absorption, geom, "absorption",
                                  nonnegative=True)
        wg = geom.gamma_weights
        diag_shift = np.concatenate([geom.omega_weights / cfg.dt,
                                     wg * (1.0 / cfg.dt + a_coeff)])
        np.add.at(diag_shift, geom.trace_cells, wg * self.rho)
        self.a = linsolve.assemble_shifted(_weighted_diffusion(geom, params),
                                           diag_shift, 1.0)
        self.lu = linsolve.factor(self.a)

    def step(self, u_old, v_old, boundary_source, surface_source):
        """Returns (u_new, v_new, boundary_flux); see linear_bulk_step and
        linear_surface_step."""
        geom = self.geom
        wg = geom.gamma_weights
        rhs_u = geom.omega_weights * u_old / self.dt
        np.add.at(rhs_u.T, geom.trace_cells, (wg * boundary_source).T)
        rhs = np.concatenate([rhs_u, wg * (v_old / self.dt + surface_source)],
                             axis=-1).T
        z = self.lu.solve(rhs)
        linsolve.check_residual(self.a, z, rhs, self.tol)
        u_new, v_new = z.T[..., :geom.n_omega], z.T[..., geom.n_omega:]
        return (u_new, v_new,
                boundary_source - self.rho * u_new[..., geom.trace_cells])


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
    """Right-hand side of the spatially discretized system (shared by the
    implicit steppers and the explicit reference integrator).

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
    """Reusable backward-Euler Newton stepper on z = (u, v).

    The residual is (M/dt)(z - z_old) - D z plus the reaction at the trace
    entries, so the Jacobian is K + A B^T: K = diag(M/dt) - D, column j of A
    is w_Gamma,j (alpha e_tc(j) - beta e_patch(j)), column j of B holds the
    partials of the rate r_j of patch j. K is factored and KA = K^{-1} A
    solved once; J^{-1} x = y - KA c with y = K^{-1} x, (I + B^T KA) c = B^T y.
    """

    def __init__(self, geom: GridGeometry, params: ModelParams, cfg: StepConfig):
        _check_surface_diffusion(geom, params)
        self.geom = geom
        self.params = params
        self.cfg = cfg
        n_u, n_g = geom.n_omega, geom.n_gamma
        self.n_u = n_u
        self.mass = np.concatenate([geom.omega_weights, geom.gamma_weights])
        self.diffusion = _weighted_diffusion(geom, params)
        self.lu = linsolve.factor(sp.diags(self.mass / cfg.dt) - self.diffusion)
        patches = np.arange(n_g)
        a = np.zeros((n_u + n_g, n_g))
        a[geom.trace_cells, patches] = params.alpha * geom.gamma_weights
        a[n_u + patches, patches] = -params.beta * geom.gamma_weights
        self.ka = self.lu.solve(a)

    def _residual(self, z, z_old):
        p = self.params
        geom = self.geom
        wg = geom.gamma_weights
        ut = np.maximum(z[geom.trace_cells], 0.0)
        vc = np.maximum(z[self.n_u:], 0.0)
        r = p.k_u * ut ** p.alpha - p.k_v * vc ** p.beta
        res = self.mass * (z - z_old) / self.cfg.dt - self.diffusion @ z
        np.add.at(res, geom.trace_cells, wg * p.alpha * r)
        res[self.n_u:] -= wg * p.beta * r
        return res

    def _partials(self, z):
        """(dr/du, -dr/dv) per patch, arguments floored at DERIVATIVE_FLOOR."""
        p = self.params
        ut = np.maximum(z[self.geom.trace_cells], DERIVATIVE_FLOOR)
        vc = np.maximum(z[self.n_u:], DERIVATIVE_FLOOR)
        return (p.k_u * p.alpha * ut ** (p.alpha - 1.0),
                p.k_v * p.beta * vc ** (p.beta - 1.0))

    def _newton_update(self, z, res):
        """-J(z)^{-1} res through the capacitance system."""
        tc, n_u = self.geom.trace_cells, self.n_u
        dpu, dpv = self._partials(z)
        y = self.lu.solve(-res)
        cap = dpu[:, None] * self.ka[tc] - dpv[:, None] * self.ka[n_u:]
        cap[np.diag_indices_from(cap)] += 1.0
        try:
            c = np.linalg.solve(cap, dpu * y[tc] - dpv * y[n_u:])
        except np.linalg.LinAlgError as exc:
            raise LinearSolverError("Newton capacitance system is singular") from exc
        if not np.all(np.isfinite(c)):
            raise LinearSolverError("Newton capacitance solve is not finite")
        return y - self.ka @ c

    def step(self, state: State) -> State:
        cfg = self.cfg
        n_u = self.n_u
        z_old = np.concatenate([state.u, state.v])
        z = z_old
        res = self._residual(z, z_old)
        res_norm = float(np.linalg.norm(res))
        history = [res_norm]
        if not np.isfinite(res_norm):  # the data overflow the reaction rates
            raise StepFailure(
                f"Newton residual is not finite at t={state.time:g}",
                residual_history=history, time=state.time)
        scale = max(1.0, res_norm)
        target = cfg.newton_tol * scale

        converged = res_norm <= target
        it = 0
        while not converged:
            if it >= cfg.newton_max_iter:
                raise StepFailure(
                    f"Newton did not reach tolerance in {cfg.newton_max_iter} "
                    f"iterations at t={state.time:g} (reduce dt)",
                    residual_history=history, time=state.time)
            z_new = z + self._newton_update(z, res)
            if np.array_equal(z_new, z):  # update below float resolution
                break
            z = z_new
            res = self._residual(z, z_old)
            res_norm = float(np.linalg.norm(res))
            history.append(res_norm)
            if not np.isfinite(res_norm) or res_norm > 1e8 * scale:
                raise StepFailure(
                    f"Newton diverged at t={state.time:g} (reduce dt)",
                    residual_history=history, time=state.time)
            converged = res_norm <= target
            it += 1

        mag = max(1.0, float(np.max(np.abs(z))))
        if np.any(z < -1e-12 * mag):
            raise StepFailure(
                f"negative concentrations beyond tolerance at "
                f"t={state.time + cfg.dt:g} (reduce dt)",
                residual_history=history, time=state.time)
        z = np.maximum(z, 0.0)
        return State(z[:n_u], z[n_u:], state.time + cfg.dt)


def coupled_step(state: State, geom: GridGeometry, params: ModelParams,
                 cfg: StepConfig) -> State:
    """One fully implicit step of the coupled nonlinear system."""
    if state.u.shape != (geom.n_omega,) or state.v.shape != (geom.n_gamma,):
        raise ValueError("state does not match geometry dimensions")
    return _CoupledStepper(geom, params, cfg).step(state)


def integrate(state0: State, geom: GridGeometry, params: ModelParams,
              cfg: StepConfig, t_end: float, observer=None) -> State:
    """March the coupled stepper to t_end with uniform steps.

    The step count is round((t_end - t0)/dt), so requesting a t_end that is a
    multiple of dt gives exactly dt-sized steps and diagnostics can rely on a
    uniform grid. The observer, if given, is called after every accepted step
    with that step's State, which is fresh and never modified afterwards, so
    it may be kept without a copy.
    """
    if state0.u.shape != (geom.n_omega,) or state0.v.shape != (geom.n_gamma,):
        raise ValueError("state does not match geometry dimensions")
    span = t_end - state0.time
    if span < 0:
        raise ValueError(f"t_end={t_end} is before state time {state0.time}")
    if span == 0:
        return state0
    n_steps = max(1, int(round(span / cfg.dt)))
    h = span / n_steps
    stepper = _CoupledStepper(geom, params, dataclasses.replace(cfg, dt=h))
    state = state0
    for i in range(n_steps):
        state = stepper.step(state)
        state.time = state0.time + (i + 1) * h  # avoid accumulation drift
        if observer is not None:
            observer(state)
    return state
