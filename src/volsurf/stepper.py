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
block-diagonal matrix whose two shifts are numbers, so _LinearStepper
factors it once and a step is one solve; linear_bulk_step and
linear_surface_step are independent one-shot references, which also take
per-patch arrays. The fully coupled step runs Newton with exact power-law
partials: K = diag(M/dt) - D is factored once per stepper, and the
rank-n_Gamma reaction part of the Jacobian goes through a dense capacitance
solve (Woodbury; Hager, SIAM Review 1989). The iterations run on the
interface values only (the trace cells and the surface patches), reading the
2 n_Gamma x n_Gamma interface rows of K^{-1}A, so a step that iterates does
two sparse solves whatever its iteration count. K is block-diagonal, so one
array of those rows serves every (alpha, beta), and the stepper stores
O(n + n_Gamma^2) numbers plus one n_Gamma x n_Gamma LU per row; see
_CoupledStepper. The sparse factorizations go through linsolve.factor, so
on the periodic strip, where every implicit matrix is a Kronecker sum over
the rings of cells, a solve is a fast diagonalization and elsewhere a
SuperLU solve. The dense capacitance systems are factored and
solved per row through LAPACK (dgetrf, dgetrs), and the first Newton
iteration of a row's step solves with the last LU the row factored, as stiff
solvers reuse their Jacobians (Hairer and Wanner, Solving ODEs II, IV.8).

Each row of a coupled stepper's z-stack has its own ModelParams. K does not
depend on alpha, beta, k_u or k_v, so rows that share delta_u and delta_v
share the factorization, and their Newton iterations run in lockstep on the
whole stack: masks mark the rows still iterating instead of compacting the
arrays, one multi-column sparse solve serves every row, each iterating row
solves its own capacitance system, and each row rounds bitwise as it would
alone. _march advances States as one z-stack on one coupled stepper, each
with its own parameters; integrate is its one-State case and builds the
States.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from . import linsolve
from .errors import LinearSolverError, StepFailure
from .grid import GridGeometry
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
    # the interval boundary is two points, so its surface has no faces and
    # surface diffusion has no meaning there
    if params.delta_v > 0 and not len(geom.gamma_faces):
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


def _step_count(span: float, dt: float) -> int:
    """round(span/dt), at least 1: the step count of _step_grid."""
    if not math.isfinite(span / dt):
        raise ValueError(f"t_end / dt = {span:g} / {dt:g} steps is beyond "
                         f"the float range")
    return max(1, int(round(span / dt)))


def _step_grid(t0: float, span: float, dt: float):
    """(h, times) of the uniform grid of _step_count steps over
    [t0, t0 + span]: a span that is a multiple of dt gives dt-sized steps."""
    n_steps = _step_count(span, dt)
    h = span / n_steps
    return h, t0 + h * np.arange(n_steps + 1)


# ulps of a row's largest |p| within which a Newton update of p is round-off,
# and within which an update that did not lower the residual has stalled
_ROUNDOFF_ULPS = 1024
_STALL_ULPS = 2 ** 20

# columns per chunk of the K^{-1}A solve at construction: few enough that the
# transient stays O(n), and enough for SuperLU's multi-column solve to reach
# its per-column speed; the fast factor solves each column as its own
# matrix products, so for it the chunk only bounds the transient
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
    stacked unknowns z = (u, v), with dt and two nonnegative numbers fixed:
    the Robin coefficient on every trace cell and the absorption on every
    patch (run_monotone's alpha*L_u and beta*L_v).

    The two problems are decoupled, so one block matrix
    diag(M/dt + shift) - D holds both; it is assembled and factored once and
    a step is one solve with that factor. A z-stack may carry leading axes of
    independent trajectories, which advance together as one multi-column
    right-hand side.
    """

    def __init__(self, geom: GridGeometry, params: ModelParams, cfg: StepConfig,
                 robin_coeff: float, absorption: float):
        _check_surface_diffusion(geom, params)
        self.geom = geom
        self.dt = cfg.dt
        self.tol = cfg.linear_tol
        wg = geom.gamma_weights
        diag_shift = np.concatenate([geom.omega_weights / cfg.dt,
                                     wg * (1.0 / cfg.dt + absorption)])
        np.add.at(diag_shift, geom.trace_cells, wg * robin_coeff)
        self.a = linsolve.assemble_shifted(_weighted_diffusion(geom, params),
                                           diag_shift, 1.0)
        self.lu = linsolve.factor(self.a)

    def step(self, z_old, boundary_source, surface_source):
        """The z-stack one step on, of the shape (..., n_Omega + n_Gamma) of
        z_old; the sources are frozen, see linear_bulk_step and
        linear_surface_step. The leading axes are flattened into the columns
        of one solve."""
        geom = self.geom
        n_u = geom.n_omega
        wg = geom.gamma_weights
        rhs_u = geom.omega_weights * z_old[..., :n_u] / self.dt
        np.add.at(rhs_u.T, geom.trace_cells, (wg * boundary_source).T)
        rhs = np.concatenate(
            [rhs_u, wg * (z_old[..., n_u:] / self.dt + surface_source)],
            axis=-1)
        rhs = rhs.reshape(-1, rhs.shape[-1]).T
        z = self.lu.solve(rhs)
        linsolve.check_residual(self.a, z, rhs, self.tol)
        return z.T.reshape(z_old.shape)


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


def _norms(x):
    """The 2-norm of each row of x, rounded as the 1-D np.linalg.norm: one
    BLAS dot per row."""
    return np.sqrt(np.vecdot(x, x))


def _power(x, exponents, shift=0.0):
    """x ** (e - shift) on each row of x, e the row's exponent, from the
    (exponent, rows) pairs a _CoupledStepper gathers for its stack: one
    scalar-exponent power per distinct exponent, taken on its rows only. So
    a row rounds as in the one-row case; an array of exponents would not
    (x ** 2.0 is x * x only for a scalar 2.0)."""
    (e, _), *rest = exponents
    if not rest:
        return x ** (e - shift)
    out = np.empty_like(x)
    for e, rows in exponents:
        out[rows] = x[rows] ** (e - shift)
    return out


class _CoupledStepper:
    """Reusable backward-Euler Newton stepper on z = (u, v): step maps a
    z-stack to the z-stack one step on, as _LinearStepper.step does. Row i
    of the stacks it steps has its own ModelParams, params[i], and all rows
    step with cfg; the rows must share delta_u and delta_v, which with dt
    fix K, so one factorization serves them all.

    The residual is F(z) = (M/dt)(z - z_old) - D z + A r(z), with
    K = diag(M/dt) - D factored once, column j of A equal to
    w_Gamma,j (alpha e_tc(j) - beta e_patch(j)) and r_j the rate of patch j;
    the Jacobian is K + A B^T, column j of B holding the partials of r_j.

    Newton runs on the interface values zg = (u at the trace cells, v). A
    pass starts from an iterate z with one sparse solve,
    base = z + K^{-1}(-F(z)), and r0 = r(z). Every Newton iterate after z is
    base - K^{-1}A p for some p in R^{n_Gamma}, with interface values
    base_g - ka p and residual exactly A (r - r0 - p), r the rates there;
    ka = [alpha X; -beta Y] holds the rows of K^{-1}A at the trace cells
    and the patches. K is block-diagonal, bulk and surface, so [X; Y] =
    ka_interface, the interface rows of K^{-1} on the columns
    w_Gamma,j (e_tc(j) + e_patch(j)), serves every (alpha, beta): a row
    reads it through its scale, and the stepper stores O(n + n_Gamma^2)
    numbers plus one n_Gamma x n_Gamma LU per row. The Woodbury form of
    J^{-1} (Hager, SIAM Review 1989) then updates p by one dense
    n_Gamma x n_Gamma solve and no sparse one. Once the interface residual
    meets the tolerance, or an update of p is round-off (_ROUNDOFF_ULPS), or
    an update near round-off (_STALL_ULPS) did not lower the residual, a
    second sparse solve forms z = base - K^{-1}(A p); it must meet the full
    residual test, else the next pass starts from it. Rebasing costs two
    sparse solves and removes the cancellation base_g - ka p, whose rounding
    a pass that has stalled cannot get below.

    Each factorization of a row builds its capacitance system I + B^T ka in
    a fresh array, which LAPACK (dgetrf) factors in place, so the LU and
    pivots the row keeps, those of its last system, are its own. The first
    iteration of the row's next step solves with them (dgetrs) instead of
    factoring: they were taken at the previous step's second-to-last
    iterate, one Newton increment away, so that update is nearly exact
    Newton and the iteration count does not grow. Every later iteration
    factors afresh; a chord iteration over a whole pass ran out of
    iterations. A row without factors (its first step, or one on which it
    has not iterated) factors.

    The rows iterate in lockstep on the whole stack. What the Newton
    formulas read of the rows (rate constants, exponents, scales, reaction
    weights, the bincount index of A x) is gathered once, at construction,
    and two boolean masks track the rows instead of compacting the arrays:
    `going` holds the rows above their targets, which take the iterate of a
    pass, and `active` the rows still updating p. Every vector operation
    and both multi-column sparse solves run on every row; only the
    capacitance solves visit the active rows, and an inactive row's p takes
    a +0.0 increment, which leaves it bitwise (p is never -0.0). Each
    operation rounds a row as the one-row stepper does (one gemv per row,
    one scalar-exponent power per distinct exponent on the rows that use
    it, one BLAS dot per norm, one LAPACK factor or solve per row, reused
    or not by the row's own history), so a row of a batch is bitwise its
    single run.

    Both sparse solves are in increment form: their right-hand sides, -F(z)
    and A p, are the step's change, not the state. A solve's round-off
    scales with its solution, so the weighted mass moves by round-off of the
    change; solving for the state from scratch moves it by round-off of the
    state, about a hundred times more over a thousand steps.
    """

    def __init__(self, geom: GridGeometry, params, cfg: StepConfig):
        params = tuple(params)
        first = params[0]
        if any((p.delta_u, p.delta_v) != (first.delta_u, first.delta_v)
               for p in params):
            raise ValueError("the rows of one stepper must share delta_u "
                             "and delta_v")
        _check_surface_diffusion(geom, first)
        self.geom = geom
        self.params = params
        self.cfg = cfg
        n_u, n_g = geom.n_omega, geom.n_gamma
        self.mass = np.concatenate([geom.omega_weights, geom.gamma_weights])
        self.diffusion = _weighted_diffusion(geom, first)
        self.lu = linsolve.factor(sp.diags(self.mass / cfg.dt) - self.diffusion)
        # A's two entries per column: the trace cell of each patch, then the
        # patch itself
        self.interface = np.concatenate([geom.trace_cells, n_u + np.arange(n_g)])
        # [X; Y] in column chunks, keeping only the interface rows, so
        # neither the storage nor the transient is n x n_Gamma
        wg = geom.gamma_weights
        rows = self.interface.reshape(2, n_g)
        self.ka_interface = np.empty((2 * n_g, n_g))
        for j in range(0, n_g, _CHUNK_COLUMNS):
            cols = np.arange(j, min(j + _CHUNK_COLUMNS, n_g))
            a = np.zeros((n_u + n_g, cols.size))
            a[rows[:, cols], cols - j] = wg[cols]
            self.ka_interface[:, cols] = self.lu.solve(a)[self.interface]

        def column(values):
            return np.array(values, dtype=float)[:, None]

        def exponents(values):
            # an exponent's rows as a slice where they are evenly spaced, as
            # in an (alpha, beta) grid, so that _power indexes views: index
            # arrays copy, which made a sweep of such a grid 7% slower
            pairs = []
            for e in dict.fromkeys(values):
                at = np.flatnonzero([v == e for v in values])
                step = at[1] - at[0] if at.size > 1 else 1
                if (np.diff(at) == step).all():
                    at = slice(at[0], at[-1] + 1, step)
                pairs.append((e, at))
            return tuple(pairs)

        # per row, as [row, 1] columns, the rate constants grouped as the
        # one-row formulas group them; the exponents as (exponent, rows)
        # pairs for _power; the scale of ka_interface and with it the
        # reaction weights; and the bincount index of A x on the stack
        self.k_u = column([p.k_u for p in params])
        self.k_v = column([p.k_v for p in params])
        self.k_u_alpha = column([p.k_u * p.alpha for p in params])
        self.k_v_beta = column([p.k_v * p.beta for p in params])
        self.alpha = exponents([p.alpha for p in params])
        self.beta = exponents([p.beta for p in params])
        self.scale = np.array([np.repeat([p.alpha, -p.beta], n_g)
                               for p in params])
        self.weights = self.scale * np.tile(wg, 2)
        self.index = (self.interface + self.mass.size
                      * np.arange(len(params))[:, None]).ravel()
        # per row, the LU factors and pivots of the last capacitance system
        # it factored (None before its first)
        self._cap_lu = [None] * len(params)

    def _spread(self, x):
        """A x on every row of x [row, n_Gamma]: the row's reaction weights
        times x at the trace cells and the patches."""
        n = self.mass.size
        values = self.weights * np.concatenate([x, x], axis=1)
        return np.bincount(self.index, values.ravel(), n * len(x)).reshape(-1, n)

    def _rates(self, zg):
        """Rate of each patch at the interface values zg [row, 2 n_Gamma],
        powers of max(., 0)."""
        n_g = self.geom.n_gamma
        return (self.k_u * _power(np.maximum(zg[:, :n_g], 0.0), self.alpha)
                - self.k_v * _power(np.maximum(zg[:, n_g:], 0.0), self.beta))

    def _residual(self, z, z_old):
        return (self.mass * (z - z_old) / self.cfg.dt - (self.diffusion @ z.T).T
                + self._spread(self._rates(z.take(self.interface, axis=1))))

    def _partials(self, zg):
        """(dr/du, -dr/dv) per patch at the interface values zg
        [row, 2 n_Gamma], arguments floored at DERIVATIVE_FLOOR."""
        n_g = self.geom.n_gamma
        ut = np.maximum(zg[:, :n_g], DERIVATIVE_FLOOR)
        vc = np.maximum(zg[:, n_g:], DERIVATIVE_FLOOR)
        return (self.k_u_alpha * _power(ut, self.alpha, 1.0),
                self.k_v_beta * _power(vc, self.beta, 1.0))

    def _interface_update(self, zg, g, dg, rows, reuse):
        """Newton increment of p at the interface values zg [row, 2 n_Gamma]
        on the stepper rows `rows`, +0.0 on the others:
        (I + B^T ka)^{-1} (g + B^T dg), B the rate partials at zg and ka the
        row's scale times ka_interface. g is the iterate's residual
        coefficient and dg the part of its interface values that p does not
        carry: on the first iteration of a pass g = 0 and dg is the first
        solve's change, after it dg = None.

        Each row assembles its capacitance system I + B^T ka in a fresh
        array and factors it in place through LAPACK, keeping the factors.
        With reuse, a row that holds factors solves with them instead."""
        n_g = self.geom.n_gamma
        dpu, dpv = self._partials(zg)
        if dg is not None:
            g = g + dpu * dg[:, :n_g] - dpv * dg[:, n_g:]
        su = self.scale[:, :n_g] * dpu  # B^T ka = su X - sv Y
        sv = self.scale[:, n_g:] * dpv
        dp = np.zeros_like(g)
        for row in rows.tolist():
            if not (reuse and self._cap_lu[row]):
                # the system is built in C order, so its .T is the
                # Fortran-ordered transpose: LAPACK factors that in place
                # and solves with trans=1
                cap = su[row, :, None] * self.ka_interface[:n_g]
                cap -= sv[row, :, None] * self.ka_interface[n_g:]
                cap.reshape(-1)[::n_g + 1] += 1.0
                lu, piv, info = dgetrf(cap.T, overwrite_a=1)
                if info > 0:
                    raise LinearSolverError(
                        "Newton capacitance system is singular")
                self._cap_lu[row] = lu, piv
            dp[row] = dgetrs(*self._cap_lu[row], g[row], trans=1)[0]
        if not np.isfinite(dp).all():
            raise LinearSolverError("Newton capacitance solve is not finite")
        return dp

    def step(self, z_old, time):
        """The z-stack one step on from time, z_old indexed [row, unknown].
        A StepFailure names, as .row, the first failing row found, and
        carries that row's message and residual history."""
        cfg = self.cfg
        iface = self.interface

        def failure(message, j):
            return StepFailure(message, residual_history=histories[j],
                               time=time, row=int(j))

        def tracked(rows, norms):
            """Append the residual norm of each row of the mask `rows` to
            the row's history; raise for the first row that diverged."""
            norms = norms.tolist()
            for j in np.flatnonzero(rows).tolist():
                histories[j].append(norms[j])
                if not norms[j] <= 1e8 * scale[j]:  # true for NaN too
                    raise failure(f"Newton diverged at t={time:g} (reduce dt)",
                                  j)

        res = self._residual(z_old, z_old)
        norms = _norms(res)
        histories = [[norm] for norm in norms.tolist()]
        finite = np.isfinite(norms)
        if not finite.all():  # the data overflow the rates
            raise failure(f"Newton residual is not finite at t={time:g}",
                          np.argmin(finite))
        scale = np.maximum(1.0, norms)
        target = cfg.newton_tol * scale
        its = np.zeros(len(z_old), dtype=int)  # Newton iterations per row
        z = z_old.copy()
        going = norms > target
        first_pass = True
        while going.any():
            # one pass of the whole stack: rebase at z, Newton on p, then
            # form the iterates, which the going rows take
            y = self.lu.solve(-res.T).T
            base = z + y
            zg = z.take(iface, axis=1)
            r0 = self._rates(zg)
            base_g = base.take(iface, axis=1)
            p, g, dg = np.zeros_like(r0), np.zeros_like(r0), y.take(iface, axis=1)
            active = going.copy()
            last = np.full(len(z), np.inf)
            for k in itertools.count():
                # only an active row can pass the cap: the first of those
                # with the most iterations fails
                its += active
                if its.max() > cfg.newton_max_iter:
                    raise failure(
                        f"Newton did not reach tolerance in "
                        f"{cfg.newton_max_iter} iterations at t={time:g} "
                        f"(reduce dt)", np.argmax(its))
                # a row's first iteration of the step solves with the
                # factors of its last system, taken one Newton increment
                # away; every later iteration factors afresh
                p_new = p + self._interface_update(
                    zg, g, dg, np.flatnonzero(active), first_pass and k == 0)
                dg = None
                # a row's pass is done once its update is round-off, or is
                # near round-off and its residual did not fall (the noise of
                # base_g - ka p can keep such updates above round-off), or
                # its residual meets the target
                change = np.abs(p_new - p).max(axis=1)
                ulp = math.ulp(1.0) * np.abs(p_new).max(axis=1)
                moved = change > _ROUNDOFF_ULPS * ulp
                near = change <= _STALL_ULPS * ulp
                p = p_new
                zg = base_g - self.scale * np.matmul(
                    self.ka_interface, p[..., None])[..., 0]
                g = self._rates(zg) - r0 - p
                norms = _norms(self._spread(g))
                tracked(moved, norms)
                active = moved & (norms > target) & ~(near & (norms >= last))
                last = norms
                if not active.any():
                    break
            first_pass = False
            z_new = base - self.lu.solve(self._spread(p).T).T
            # an iterate equal to z is below float resolution: the row is done
            going &= (z_new != z).any(axis=1)
            np.copyto(z, z_new, where=going[:, None])
            res = self._residual(z, z_old)
            norms = _norms(res)
            tracked(going, norms)
            going &= norms > target

        mag = np.maximum(1.0, np.max(np.abs(z), axis=1))
        negative = (z < -1e-12 * mag[:, None]).any(axis=1)
        if negative.any():
            raise failure(f"negative concentrations beyond tolerance at "
                          f"t={time + cfg.dt:g} (reduce dt)",
                          np.argmax(negative))
        return np.maximum(z, 0.0)


def _march(states, geom: GridGeometry, params, cfg: StepConfig,
           t_end: float):
    """Advance States sharing one start time to t_end on one coupled stepper
    (one factorization), held as one z-stack indexed [trajectory, unknown];
    state i steps with params[i], and the params must share delta_u and
    delta_v. Yields (time, z) after every step of _step_grid, z a fresh
    stack that is never modified afterwards. A StepFailure of any
    trajectory ends the march at that step."""
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
    for time, z in _march((state0,), geom, (params,), cfg, t_end):
        state = State(z[0, :n_u], z[0, n_u:], time)
        if observer is not None:
            observer(state)
    return state
