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
O(n + n_Gamma^2) numbers per distinct (alpha, beta); see _CoupledStepper.
All factorizations go through linsolve.factor.

Each row of a coupled stepper's z-stack has its own ModelParams. K does not
depend on alpha, beta, k_u or k_v, so rows that share delta_u and delta_v
share the factorization, and their Newton iterations run in lockstep: one
multi-column sparse solve and one batched capacitance solve serve every row,
and each row rounds bitwise as it would alone. _march advances States as one
z-stack on one coupled stepper, each with its own parameters; integrate is
its one-State case and builds the States.
"""

import dataclasses
import itertools
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


# sets of rows whose _RowFactors a coupled stepper keeps. A lockstep batch
# meets few sets: marching the eight runs of a 16x8 strip and disk (alpha,
# beta) sweep in two batches looks up 973 sets and gathers 9, and gathering
# on every look-up makes the sweep about 7% slower
_CACHED_ROW_SETS = 64

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
    (exponent, rows) pairs of _RowFactors: one scalar-exponent power per
    distinct exponent, taken on its rows only. So a row rounds as in the
    one-row case; an array of exponents would not (x ** 2.0 is x * x only
    for a scalar 2.0)."""
    (e, _), *rest = exponents
    if not rest:
        return x ** (e - shift)
    out = np.empty_like(x)
    for e, rows in exponents:
        out[rows] = x[rows] ** (e - shift)
    return out


@dataclass(frozen=True)
class _RowFactors:
    """What the Newton formulas read of a set of stepper rows: per row, as
    [row, 1] columns, the rate constants grouped as the one-row formulas
    group them; the exponents alpha and beta as (exponent, rows) pairs for
    _power, the rows indexing the set (a slice or an index array); the
    reaction weights
    and the bincount index of A x on the stacked rows; and ka, which indexes
    ka_interface to give each row its own (a one-entry view when the rows
    share one (alpha, beta))."""

    k_u: np.ndarray
    k_v: np.ndarray
    k_u_alpha: np.ndarray
    k_v_beta: np.ndarray
    alpha: tuple
    beta: tuple
    weights: np.ndarray
    index: np.ndarray
    ka: object


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
    base_g - ka_interface p and residual exactly A (r - r0 - p), r the rates
    there; ka_interface holds the rows of K^{-1}A at the trace cells and the
    patches, once per distinct (alpha, beta) of the rows, the only part of a
    row that A depends on. The Woodbury form of J^{-1} (Hager, SIAM Review
    1989) then updates p by one dense n_Gamma x n_Gamma solve and no sparse
    one. Once the interface residual meets the tolerance, a second sparse
    solve forms z = base - K^{-1}(A p); it must meet the full residual test,
    else the next pass starts from it.

    The rows iterate in lockstep. A pass of the rows above their targets is
    one multi-column sparse solve, one batched capacitance solve per Newton
    iteration and one more multi-column solve to form the iterates; a row
    keeps its values once its iteration ends, and leaves at the end of the
    pass once it has converged. Each operation rounds a row as the one-row
    stepper does (one gemv per row, one scalar-exponent power per distinct
    exponent on the rows that use it, one BLAS dot per norm), so a row of a
    batch is bitwise its single run.

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
        orders = list(dict.fromkeys((p.alpha, p.beta) for p in params))
        self.order = np.array([orders.index((p.alpha, p.beta)) for p in params])
        wg = geom.gamma_weights
        self.weights = np.array([np.concatenate([alpha * wg, -beta * wg])
                                 for alpha, beta in orders])
        # K^{-1}A is solved in column chunks and only its interface rows are
        # kept, so neither the storage nor the transient is n x n_Gamma
        rows = self.interface.reshape(2, n_g)
        self.ka_interface = np.empty((len(orders), 2 * n_g, n_g))
        for ka, w in zip(self.ka_interface, self.weights):
            w = w.reshape(2, n_g)
            for j in range(0, n_g, _CHUNK_COLUMNS):
                cols = np.arange(j, min(j + _CHUNK_COLUMNS, n_g))
                a = np.zeros((n_u + n_g, cols.size))
                a[rows[:, cols], cols - j] = w[:, cols]
                ka[:, cols] = self.lu.solve(a)[self.interface]
        self._row_sets = {}
        self._all_rows = np.arange(len(params))

    def _factors(self, rows) -> _RowFactors:
        """The _RowFactors of the stepper rows `rows`, gathered once per set
        of rows: the sets that leave Newton together repeat from step to
        step. At most _CACHED_ROW_SETS sets are kept."""
        key = rows.tobytes()
        f = self._row_sets.get(key)
        if f is None:
            if len(self._row_sets) == _CACHED_ROW_SETS:
                self._row_sets.clear()
            f = self._row_sets[key] = self._gather(rows)
        return f

    def _gather(self, rows) -> _RowFactors:
        params = [self.params[i] for i in rows.tolist()]

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

        order = self.order[rows]
        n = self.mass.size
        return _RowFactors(
            k_u=column([p.k_u for p in params]),
            k_v=column([p.k_v for p in params]),
            k_u_alpha=column([p.k_u * p.alpha for p in params]),
            k_v_beta=column([p.k_v * p.beta for p in params]),
            alpha=exponents([p.alpha for p in params]),
            beta=exponents([p.beta for p in params]),
            weights=self.weights[order],
            index=(self.interface + n * np.arange(len(rows))[:, None]).ravel(),
            ka=(slice(order[0], order[0] + 1) if np.all(order == order[0])
                else order))

    def _spread(self, x, f: _RowFactors):
        """A x on every row of x [row, n_Gamma]: the row's reaction weights
        times x at the trace cells and the patches."""
        n = self.mass.size
        values = f.weights * np.concatenate([x, x], axis=1)
        return np.bincount(f.index, values.ravel(), n * len(x)).reshape(-1, n)

    def _rates(self, zg, f: _RowFactors):
        """Rate of each patch at the interface values zg [row, 2 n_Gamma],
        powers of max(., 0)."""
        n_g = self.geom.n_gamma
        return (f.k_u * _power(np.maximum(zg[:, :n_g], 0.0), f.alpha)
                - f.k_v * _power(np.maximum(zg[:, n_g:], 0.0), f.beta))

    def _residual(self, z, z_old, f: _RowFactors):
        return (self.mass * (z - z_old) / self.cfg.dt - (self.diffusion @ z.T).T
                + self._spread(self._rates(z.take(self.interface, axis=1),
                                           f), f))

    def _partials(self, zg, f: _RowFactors):
        """(dr/du, -dr/dv) per patch at the interface values zg
        [row, 2 n_Gamma], arguments floored at DERIVATIVE_FLOOR."""
        n_g = self.geom.n_gamma
        ut = np.maximum(zg[:, :n_g], DERIVATIVE_FLOOR)
        vc = np.maximum(zg[:, n_g:], DERIVATIVE_FLOOR)
        return (f.k_u_alpha * _power(ut, f.alpha, 1.0),
                f.k_v_beta * _power(vc, f.beta, 1.0))

    def _interface_update(self, zg, g, dg, f: _RowFactors, ka):
        """Newton increment of p at the interface values zg, row by row:
        (I + B^T ka)^{-1} (g + B^T dg), B the rate partials at zg and ka the
        row's ka_interface. g is the iterate's residual coefficient and dg
        the part of its interface values that p does not carry: on the first
        iteration of a pass g = 0 and dg is the first solve's change, after
        it dg = None."""
        n_g = self.geom.n_gamma
        dpu, dpv = self._partials(zg, f)
        cap = dpu[..., None] * ka[:, :n_g] - dpv[..., None] * ka[:, n_g:]
        cap.reshape(len(cap), -1)[:, ::n_g + 1] += 1.0
        if dg is not None:
            g = g + dpu * dg[:, :n_g] - dpv * dg[:, n_g:]
        try:
            dp = np.linalg.solve(cap, g[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise LinearSolverError(
                "Newton capacitance system is singular") from exc
        if not np.isfinite(dp).all():
            raise LinearSolverError("Newton capacitance solve is not finite")
        return dp

    def step(self, z_old, time):
        """The z-stack one step on from time, z_old indexed [row, unknown].
        A StepFailure names, as .row, the first failing row found, and
        carries that row's message and residual history."""
        cfg = self.cfg
        iface, n_g = self.interface, self.geom.n_gamma

        def failure(message, j):
            return StepFailure(message, residual_history=histories[j],
                               time=time, row=int(j))

        def tracked(rows_norms):
            """Append each (row, residual norm) to the row's history; raise
            for the first row that diverged."""
            for j, norm in rows_norms:
                histories[j].append(norm)
                if not norm <= 1e8 * scale[j]:  # true for NaN too
                    raise failure(f"Newton diverged at t={time:g} (reduce dt)",
                                  j)

        f = self._factors(self._all_rows)
        res = self._residual(z_old, z_old, f)
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
        going = np.flatnonzero(norms > target)
        while going.size:
            # one pass of every row above its target: rebase at z, Newton on
            # p, then form the iterates
            if going.size < len(f.k_u):
                f = self._factors(going)
            z_pass = z[going]
            y = self.lu.solve(-res[going].T).T
            base = z_pass + y
            p_pass = np.zeros((going.size, n_g))
            # Newton on p: the arrays from here on hold the rows of the pass
            # still updating p, its rows `act`, the stack's rows `which`
            act, which, fa = np.arange(going.size), going, f
            ka = self.ka_interface[fa.ka]
            zg = z_pass.take(iface, axis=1)
            r0 = self._rates(zg, fa)
            base_g, tgt = base.take(iface, axis=1), target[going]
            p, g, dg = p_pass, np.zeros_like(p_pass), y.take(iface, axis=1)
            # iteration k of the pass is a row's its[row] + k + 1st; the
            # first row spent is the one with the most iterations before it
            before = its[going]
            spent_at = cfg.newton_max_iter - before.max()
            for k in itertools.count():
                if k >= spent_at:
                    raise failure(
                        f"Newton did not reach tolerance in "
                        f"{cfg.newton_max_iter} iterations at t={time:g} "
                        f"(reduce dt)", which[np.argmax(before)])
                p_new = p + self._interface_update(zg, g, dg, fa, ka)
                dg = None
                # a row is done once its update is below float resolution
                # (its p stays) or its residual meets the target
                moved = (p_new != p).any(axis=1)
                p = p_pass[act] = p_new
                zg = base_g - np.matmul(ka, p[..., None])[..., 0]
                g = self._rates(zg, fa) - r0 - p
                norms = _norms(self._spread(g, fa))
                tracked((j, norm) for j, norm, m in zip(
                    which.tolist(), norms.tolist(), moved.tolist()) if m)
                keep = moved & (norms > tgt)
                if not keep.all():
                    its[which[~keep]] = before[~keep] + k + 1
                    if not keep.any():
                        break
                    act, which, p, zg, g, r0, base_g, tgt, before = (
                        x[keep] for x in (act, which, p, zg, g, r0, base_g,
                                          tgt, before))
                    spent_at = cfg.newton_max_iter - before.max()
                    fa = self._factors(which)
                    ka = self.ka_interface[fa.ka]
            z_new = base - self.lu.solve(self._spread(p_pass, f).T).T
            # an iterate equal to z is below float resolution: the row is done
            moved = (z_new != z_pass).any(axis=1)
            if not moved.all():
                going, z_new = going[moved], z_new[moved]
                if not going.size:
                    break
                f = self._factors(going)
            z[going] = z_new
            res[going] = r = self._residual(z_new, z_old[going], f)
            norms = _norms(r)
            tracked(zip(going.tolist(), norms.tolist()))
            going = going[norms > target[going]]

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
