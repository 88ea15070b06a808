"""Implicit time stepping for the coupled bulk-surface system.

Everything is backward Euler on the measure-weighted form of the equations,
so the conserved weighted total is preserved by construction up to solver
tolerances:

    w_i (u_i^{n+1} - u_i^n)/dt = delta_u (W L u^{n+1})_i / w_i ...

in practice assembled as SPD systems diag(w/dt + boundary) - delta * (W L).
The linear substeps (frozen boundary sources) have fixed matrices, so
_LinearStepper assembles and factors them once and then solves per step,
several trajectories at a time; linear_bulk_step and linear_surface_step are
its one-shot forms. The fully coupled step runs Newton on the stacked (u, v)
unknowns with exact power-law partials and a fresh sparse LU per iteration.
All factorizations go through linsolve.factor.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linsolve
from .errors import StepFailure
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


def _as_gamma_array(value, geom, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(geom.n_gamma, float(arr))
    if arr.shape != (geom.n_gamma,):
        raise ValueError(
            f"{name} has shape {arr.shape}, expected ({geom.n_gamma},) or scalar")
    return arr


def _shifted_solver(weighted_op, diag_shift, scale, tol):
    """Solver for diag(diag_shift) - scale*weighted_op, assembled and factored
    once. It maps a right-hand side of shape (n,) or (m, n) to the solution of
    the same shape, the m rows solved together as one m-column system; with
    scale 0 the matrix is diagonal and it divides instead."""
    if scale == 0:
        return lambda rhs: rhs / diag_shift
    a = linsolve.assemble_shifted(weighted_op, diag_shift, scale)
    lu = linsolve.factor(a)

    def solve(rhs):
        x = lu.solve(rhs.T)
        linsolve.check_residual(a, x, rhs.T, tol)
        return x.T
    return solve


class _LinearStepper:
    """Backward-Euler steps of the linear bulk and surface problems with the
    Robin coefficient, the absorption and dt fixed.

    Each matrix is assembled and factored once, so a step is a triangular
    solve. States may carry a leading axis of independent trajectories, which
    advance together as one multi-column right-hand side. Give robin_coeff
    for bulk steps and absorption for surface steps.
    """

    def __init__(self, geom: GridGeometry, params: ModelParams, cfg: StepConfig,
                 robin_coeff=None, absorption=None):
        self.geom = geom
        self.dt = cfg.dt
        w = geom.omega_weights
        wg = geom.gamma_weights
        if robin_coeff is not None:
            self.rho = _as_gamma_array(robin_coeff, geom, "robin_coeff")
            if np.any(self.rho < 0):
                raise ValueError("robin_coeff must be nonnegative")
            diag_shift = w / cfg.dt
            np.add.at(diag_shift, geom.trace_cells, wg * self.rho)
            self._solve_u = _shifted_solver(sp.diags(w) @ geom.bulk_laplacian,
                                            diag_shift, params.delta_u,
                                            cfg.linear_tol)
        if absorption is not None:
            _check_surface_diffusion(geom, params)
            a_coeff = _as_gamma_array(absorption, geom, "absorption")
            if np.any(a_coeff < 0):
                raise ValueError("absorption must be nonnegative")
            self._solve_v = _shifted_solver(
                sp.diags(wg) @ geom.surface_laplacian,
                wg * (1.0 / cfg.dt + a_coeff), params.delta_v, cfg.linear_tol)

    def bulk(self, u_old, boundary_source):
        """Returns (u_new, boundary_flux); see linear_bulk_step."""
        geom = self.geom
        rhs = geom.omega_weights * u_old / self.dt
        np.add.at(rhs.T, geom.trace_cells,
                  (geom.gamma_weights * boundary_source).T)
        u_new = self._solve_u(rhs)
        return u_new, boundary_source - self.rho * u_new[..., geom.trace_cells]

    def surface(self, v_old, source):
        """Returns v_new; see linear_surface_step."""
        return self._solve_v(self.geom.gamma_weights * (v_old / self.dt + source))


def linear_bulk_step(u_old: np.ndarray, robin_coeff, boundary_source,
                     geom: GridGeometry, params: ModelParams,
                     cfg: StepConfig):
    """One backward-Euler step of the bulk diffusion problem with Robin data
    delta_u du/dnu + robin_coeff * u = boundary_source on the boundary.

    Returns (u_new, boundary_flux) where boundary_flux[j] is the flux density
    absorbed through patch j at the new time level, so that

        (w @ u_new - w @ u_old)/dt == gamma_weights @ boundary_flux

    up to the linear solve tolerance (the conservation pairing).
    """
    u_old = np.asarray(u_old, dtype=float)
    if u_old.shape != (geom.n_omega,):
        raise ValueError(
            f"u_old has shape {u_old.shape}, expected ({geom.n_omega},)")
    stepper = _LinearStepper(geom, params, cfg, robin_coeff=robin_coeff)
    src = _as_gamma_array(boundary_source, geom, "boundary_source")
    return stepper.bulk(u_old, src)


def linear_surface_step(v_old: np.ndarray, absorption, source,
                        geom: GridGeometry, params: ModelParams,
                        cfg: StepConfig) -> np.ndarray:
    """One backward-Euler step of v_t - delta_v Lap_Gamma v + absorption*v = source."""
    v_old = np.asarray(v_old, dtype=float)
    if v_old.shape != (geom.n_gamma,):
        raise ValueError(
            f"v_old has shape {v_old.shape}, expected ({geom.n_gamma},)")
    stepper = _LinearStepper(geom, params, cfg, absorption=absorption)
    src = _as_gamma_array(source, geom, "source")
    return stepper.surface(v_old, src)


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


def _csr_entry_indices(a: sp.csr_matrix, rows, cols):
    """Flat positions of (rows[k], cols[k]) inside a.data; indices must exist."""
    out = np.empty(len(rows), dtype=np.int64)
    for k, (i, j) in enumerate(zip(rows, cols)):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        pos = lo + np.searchsorted(a.indices[lo:hi], j)
        if pos >= hi or a.indices[pos] != j:
            raise AssertionError("missing structural entry in Jacobian pattern")
        out[k] = pos
    return out


class _CoupledStepper:
    """Reusable backward-Euler Newton stepper with a frozen Jacobian pattern.

    The sparsity of the stacked Jacobian never changes, so the constant
    diffusion/identity part is assembled once and only the four reaction
    entry groups are rewritten each Newton iteration.
    """

    def __init__(self, geom: GridGeometry, params: ModelParams, cfg: StepConfig):
        _check_surface_diffusion(geom, params)
        self.geom = geom
        self.params = params
        self.cfg = cfg
        n_u, n_g = geom.n_omega, geom.n_gamma
        self.n_u = n_u
        w = geom.omega_weights
        wg = geom.gamma_weights
        dt = cfg.dt

        k_u = sp.diags(w / dt) - params.delta_u * (sp.diags(w) @ geom.bulk_laplacian)
        k_v = sp.diags(wg / dt)
        if params.delta_v > 0:
            k_v = k_v - params.delta_v * (sp.diags(wg) @ geom.surface_laplacian)

        tc = geom.trace_cells
        ones = np.ones(n_g)
        c_uv = sp.coo_matrix((ones, (tc, np.arange(n_g))), shape=(n_u, n_g))
        c_vu = sp.coo_matrix((ones, (np.arange(n_g), tc)), shape=(n_g, n_u))
        jac = sp.bmat([[k_u, c_uv], [c_vu, k_v]], format="csr")
        jac.sort_indices()

        self.idx_uu = _csr_entry_indices(jac, tc, tc)
        self.idx_uv = _csr_entry_indices(jac, tc, n_u + np.arange(n_g))
        self.idx_vu = _csr_entry_indices(jac, n_u + np.arange(n_g), tc)
        self.idx_vv = _csr_entry_indices(jac, n_u + np.arange(n_g),
                                         n_u + np.arange(n_g))
        base = jac.data.copy()
        base[self.idx_uv] -= 1.0  # remove coupling placeholders
        base[self.idx_vu] -= 1.0
        self.jac = jac
        self.base_data = base

        self.weighted_lap_u = sp.diags(w) @ geom.bulk_laplacian
        self.weighted_lap_v = (sp.diags(wg) @ geom.surface_laplacian
                               if params.delta_v > 0 else None)

    def _residual(self, z, u_old, v_old):
        p = self.params
        geom = self.geom
        n_u = self.n_u
        u = z[:n_u]
        v = z[n_u:]
        ut = np.maximum(u[geom.trace_cells], 0.0)
        vc = np.maximum(v, 0.0)
        r = p.k_u * ut ** p.alpha - p.k_v * vc ** p.beta
        w = geom.omega_weights
        wg = geom.gamma_weights
        res_u = w * (u - u_old) / self.cfg.dt - p.delta_u * (self.weighted_lap_u @ u)
        np.add.at(res_u, geom.trace_cells, wg * p.alpha * r)
        res_v = wg * (v - v_old) / self.cfg.dt - wg * p.beta * r
        if self.weighted_lap_v is not None:
            res_v -= p.delta_v * (self.weighted_lap_v @ v)
        return np.concatenate([res_u, res_v])

    def _jacobian(self, z):
        p = self.params
        geom = self.geom
        n_u = self.n_u
        ut = np.maximum(z[:n_u][geom.trace_cells], DERIVATIVE_FLOOR)
        vc = np.maximum(z[n_u:], DERIVATIVE_FLOOR)
        dpu = p.k_u * p.alpha * ut ** (p.alpha - 1.0)
        dpv = p.k_v * p.beta * vc ** (p.beta - 1.0)
        wg = geom.gamma_weights
        data = self.base_data.copy()
        np.add.at(data, self.idx_uu, wg * p.alpha * dpu)
        data[self.idx_uv] = -wg * p.alpha * dpv
        data[self.idx_vu] = -wg * p.beta * dpu
        np.add.at(data, self.idx_vv, wg * p.beta * dpv)
        self.jac.data = data
        return self.jac

    def step(self, state: State) -> State:
        cfg = self.cfg
        n_u = self.n_u
        u_old = state.u
        v_old = state.v
        z = np.concatenate([u_old, v_old])
        res = self._residual(z, u_old, v_old)
        res_norm = float(np.linalg.norm(res))
        history = [res_norm]
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
            jac = self._jacobian(z)
            lu = linsolve.factor(jac)
            z = z + lu.solve(-res)
            res = self._residual(z, u_old, v_old)
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
    uniform grid. The observer, if given, is called after every accepted step.
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
