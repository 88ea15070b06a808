import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

import volsurf.stepper as stepper_module
from volsurf import linsolve
from volsurf.errors import LinearSolverError, StepFailure
from volsurf.grid import build_interval, build_periodic_strip, build_polar_disk
from volsurf.model import (ModelParams, State, entropy, equilibrium_state,
                           mass, solve_equilibrium)
from volsurf.monotone import run_monotone
from volsurf.stepper import (StepConfig, _CoupledStepper, _march, integrate,
                             linear_bulk_step, linear_surface_step,
                             semi_discrete_rhs)


def interval_params(alpha=1.0, beta=1.0, delta_u=1.0):
    return ModelParams(alpha=alpha, beta=beta, delta_u=delta_u, delta_v=0.0)


def radau_reference(z0, geom, params, t_end):
    """Independent stiff integrator on the same spatial discretization."""
    n = geom.n_omega

    def rhs(t, z):
        du, dv = semi_discrete_rhs(z[:n], z[n:], geom, params)
        return np.concatenate([du, dv])

    sol = solve_ivp(rhs, (0.0, t_end), z0, method="Radau",
                    rtol=1e-11, atol=1e-12)
    return sol.y[:, -1]


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepConfig(dt=0.1, newton_tol=0.0)
    with pytest.raises(ValueError):
        StepConfig(dt=0.1, newton_max_iter=0)
    with pytest.raises(ValueError):
        StepConfig(dt=0.1, linear_tol=-1.0)
    # NaN passes every "<= 0" test; a NaN or infinite newton_tol skipped
    # every Newton iteration and returned the initial data
    for key in ("dt", "newton_tol", "linear_tol"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                StepConfig(**{"dt": 0.1, key: value})


# ------------------------------------------------------------ linear substeps


def test_bulk_step_neumann_constant_invariant():
    g = build_interval(10, 1.0)
    p = interval_params()
    cfg = StepConfig(dt=0.1)
    u0 = np.full(g.n_omega, 2.5)
    u1, flux = linear_bulk_step(u0, 0.0, 0.0, g, p, cfg)
    assert np.allclose(u1, 2.5, atol=1e-12)
    assert np.allclose(flux, 0.0, atol=1e-12)


def test_bulk_step_neumann_conserves_volume_integral():
    g = build_interval(12, 1.5)
    p = interval_params()
    cfg = StepConfig(dt=0.05)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 2.0, g.n_omega)
    total0 = g.omega_weights @ u
    for _ in range(5):
        u, _ = linear_bulk_step(u, 0.0, 0.0, g, p, cfg)
    assert g.omega_weights @ u == pytest.approx(total0, rel=1e-10)


def test_bulk_step_relaxes_to_steady_robin_state():
    # delta_u du/dnu + u = 1 on both endpoints drives u to 1
    g = build_interval(50, 1.0)
    p = interval_params()
    cfg = StepConfig(dt=0.5)
    u = np.zeros(g.n_omega)
    for _ in range(100):
        u, _ = linear_bulk_step(u, 1.0, 1.0, g, p, cfg)
    assert np.max(np.abs(u - 1.0)) < 1e-6


def test_bulk_step_flux_pairing():
    # returned flux must close the discrete balance exactly
    g = build_interval(8, 1.0)
    p = interval_params(delta_u=0.7)
    cfg = StepConfig(dt=0.02)
    rng = np.random.default_rng(11)
    u0 = rng.uniform(0.5, 2.0, g.n_omega)
    rho = rng.uniform(0.0, 1.0, g.n_gamma)
    src = rng.uniform(-1.0, 1.0, g.n_gamma)
    u1, flux = linear_bulk_step(u0, rho, src, g, p, cfg)
    lhs = (g.omega_weights @ u1 - g.omega_weights @ u0) / cfg.dt
    rhs = g.gamma_weights @ flux
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bulk_step_validation():
    g = build_interval(5, 1.0)
    p = interval_params()
    cfg = StepConfig(dt=0.1)
    with pytest.raises(ValueError):
        linear_bulk_step(np.ones(4), 0.0, 0.0, g, p, cfg)
    with pytest.raises(ValueError):
        linear_bulk_step(np.ones(5), -1.0, 0.0, g, p, cfg)
    with pytest.raises(ValueError):
        linear_bulk_step(np.ones(5), np.ones(3), 0.0, g, p, cfg)


def test_surface_step_scalar_backward_euler():
    # no surface diffusion: each patch follows (v0 + dt*s)/(1 + dt*a)
    g = build_interval(6, 1.0)
    p = interval_params()
    cfg = StepConfig(dt=0.2)
    v0, a, s = 1.5, 2.0, 0.7
    v1 = linear_surface_step(np.full(g.n_gamma, v0), a, s, g, p, cfg)
    assert np.allclose(v1, (v0 + cfg.dt * s) / (1.0 + cfg.dt * a), atol=1e-12)


def test_surface_step_constant_invariant():
    g = build_periodic_strip(8, 3, 1.0, 1.0)
    p = ModelParams(alpha=1, beta=1, delta_u=1.0, delta_v=1.0)
    v1 = linear_surface_step(np.full(g.n_gamma, 0.8), 0.0, 0.0, g, p,
                             StepConfig(dt=0.3))
    assert np.allclose(v1, 0.8, atol=1e-12)


def test_surface_step_ring_eigenmode_decay():
    # cos modes are eigenvectors of the ring Laplacian; one implicit step
    # divides them by 1 + dt*delta_v*lambda_h
    g = build_periodic_strip(16, 2, 2.0, 1.0)
    p = ModelParams(alpha=1, beta=1, delta_u=1.0, delta_v=1.0)
    cfg = StepConfig(dt=0.05)
    m = 3
    dx = 2.0 / 16
    lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * m / 16)) / dx ** 2
    v0 = np.cos(2.0 * np.pi * m * g.gamma_unit_coord)
    v1 = linear_surface_step(v0, 0.0, 0.0, g, p, cfg)
    assert np.allclose(v1 * (1.0 + cfg.dt * p.delta_v * lam), v0, atol=1e-10)


def test_surface_step_rejects_interval_diffusion():
    g = build_interval(5, 1.0)
    p = ModelParams(alpha=1, beta=1, delta_u=1.0, delta_v=0.5)
    with pytest.raises(ValueError):
        linear_surface_step(np.ones(g.n_gamma), 0.0, 0.0, g, p, StepConfig(dt=0.1))


SURFACE_DIFFUSION_CALLS = {
    "integrate": lambda s0, g, p, cfg: integrate(s0, g, p, cfg, 0.1),
    "run_monotone": lambda s0, g, p, cfg: run_monotone(s0, g, p, cfg, 0.1),
    "linear_surface_step":
        lambda s0, g, p, cfg: linear_surface_step(s0.v, 0.5, 0.2, g, p, cfg),
}


@pytest.mark.parametrize("call", SURFACE_DIFFUSION_CALLS.values(),
                         ids=SURFACE_DIFFUSION_CALLS)
def test_surface_diffusion_refused_on_interval_only(call):
    p = ModelParams(alpha=1, beta=1, delta_u=1.0, delta_v=0.5)
    cfg = StepConfig(dt=0.05)

    def cosine_state(g):
        return State(1.0 + 0.3 * np.cos(2.0 * np.pi * g.omega_unit_coord),
                     0.5 + 0.2 * np.cos(2.0 * np.pi * g.gamma_unit_coord))

    for g in (build_periodic_strip(5, 3, 1.0, 1.0), build_polar_disk(3, 6, 1.0)):
        call(cosine_state(g), g, p, cfg)
    g = build_interval(5, 1.0)
    with pytest.raises(ValueError, match="not meaningful on an interval"):
        call(cosine_state(g), g, p, cfg)


def test_linear_steps_monotone_in_data_and_source():
    # discrete comparison principle: raising u_old or the source can only
    # raise the solution, raising the absorption can only lower it
    g = build_interval(9, 1.0)
    p = interval_params()
    cfg = StepConfig(dt=0.05)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u_lo = rng.uniform(0.0, 1.0, g.n_omega)
        u_hi = u_lo + rng.uniform(0.0, 1.0, g.n_omega)
        s_lo = rng.uniform(-1.0, 1.0, g.n_gamma)
        s_hi = s_lo + rng.uniform(0.0, 1.0, g.n_gamma)
        rho = rng.uniform(0.0, 2.0, g.n_gamma)
        a_lo, _ = linear_bulk_step(u_lo, rho, s_lo, g, p, cfg)
        a_hi, _ = linear_bulk_step(u_hi, rho, s_hi, g, p, cfg)
        assert np.all(a_hi >= a_lo - 1e-12)

        v_lo = rng.uniform(0.0, 1.0, g.n_gamma)
        v_hi = v_lo + rng.uniform(0.0, 1.0, g.n_gamma)
        absb = rng.uniform(0.0, 2.0, g.n_gamma)
        b_lo = linear_surface_step(v_lo, absb, s_lo, g, p, cfg)
        b_hi = linear_surface_step(v_hi, absb, s_hi, g, p, cfg)
        assert np.all(b_hi >= b_lo - 1e-12)


def test_linear_step_maps_any_leading_axes():
    g = build_periodic_strip(8, 4, 2.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.1)
    stepper = stepper_module._LinearStepper(g, p, StepConfig(dt=0.01),
                                            0.7, 1.3)
    rng = np.random.default_rng(11)
    z = rng.uniform(0.0, 1.0, (3, 2, g.n_omega + g.n_gamma))
    f = rng.uniform(0.0, 1.0, (3, 2, g.n_gamma))
    h = rng.uniform(0.0, 1.0, (3, 2, g.n_gamma))
    stacked = stepper.step(z, f, h)
    assert stacked.shape == z.shape
    for j in range(3):
        assert np.array_equal(stacked[j], stepper.step(z[j], f[j], h[j]))


# ---------------------------------------------------------------- coupled step


def test_coupled_step_equilibrium_fixed_point():
    g = build_interval(6, 1.0)
    p = interval_params(alpha=2.0, beta=1.0)
    eq = solve_equilibrium(p, g, 3.0)
    s0 = equilibrium_state(eq, g)
    s1 = integrate(s0, g, p, StepConfig(dt=0.1), s0.time + 0.1)
    assert np.allclose(s1.u, s0.u, atol=1e-10)
    assert np.allclose(s1.v, s0.v, atol=1e-10)
    assert s1.time == pytest.approx(0.1)


def test_coupled_step_conserves_mass():
    g = build_periodic_strip(8, 4, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=2.0, delta_u=1.0, delta_v=0.5)
    rng = np.random.default_rng(9)
    s = State(rng.uniform(0.2, 2.0, g.n_omega), rng.uniform(0.2, 2.0, g.n_gamma))
    m0 = mass(s, g, p)
    for _ in range(10):
        s = integrate(s, g, p, StepConfig(dt=0.05), s.time + 0.05)
    assert mass(s, g, p) == pytest.approx(m0, abs=1e-10 * max(1.0, m0))


def test_coupled_step_matches_stiff_ode_oracle():
    # small ripple around the balanced constants keeps the curvature low
    # enough for a single implicit step to track the exact flow closely
    g = build_interval(3, 2.0)
    p = interval_params(alpha=2.0, beta=1.0)
    u0 = 1.0 + 0.01 * np.array([1.0, -1.0, 0.5])
    v0 = 1.0 + 0.01 * np.array([-1.0, 1.0])
    s1 = integrate(State(u0, v0), g, p, StepConfig(dt=0.01), 0.01)
    ref = radau_reference(np.concatenate([u0, v0]), g, p, 0.01)
    assert np.max(np.abs(np.concatenate([s1.u, s1.v]) - ref)) < 1e-4


def test_integrate_first_order_in_dt():
    g = build_interval(3, 1.0)
    p = interval_params(alpha=2.0, beta=1.0)
    u0 = np.array([1.2, 0.4, 0.9])
    v0 = np.array([0.3, 1.1])
    ref = radau_reference(np.concatenate([u0, v0]), g, p, 0.05)
    errs = []
    for dt in (0.005, 0.0025):
        sf = integrate(State(u0.copy(), v0.copy()), g, p, StepConfig(dt=dt), 0.05)
        errs.append(np.max(np.abs(np.concatenate([sf.u, sf.v]) - ref)))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.5)


def one_row(geom, params, cfg):
    return _CoupledStepper(geom, [params], cfg)


def assembled_jacobian(stepper, z, row=0):
    """K + A B^T of row `row` of a coupled stepper as one sparse matrix,
    built from the formulas rather than through the capacitance solve:
    K = diag(M/dt) - D, A the row's reaction weights, B its rate partials
    at z."""
    g, p = stepper.geom, stepper.params[row]
    n_u, n_g = g.n_omega, g.n_gamma
    rows = np.concatenate([g.trace_cells, n_u + np.arange(n_g)])
    cols = np.tile(np.arange(n_g), 2)
    wg = g.gamma_weights
    # the partials of every row at z, so that each row takes its own orders
    zg = np.tile(z[stepper.interface], (len(stepper.params), 1))
    dpu, dpv = (x[row] for x in stepper._partials(zg))
    a = sp.csc_matrix((np.concatenate([p.alpha * wg, -p.beta * wg]),
                       (rows, cols)), shape=(n_u + n_g, n_g))
    b = sp.csc_matrix((np.concatenate([dpu, -dpv]), (rows, cols)),
                      shape=(n_u + n_g, n_g))
    k = sp.diags(stepper.mass / stepper.cfg.dt) - stepper.diffusion
    return sp.csc_matrix(k + a @ b.T)


def test_newton_jacobian_matches_finite_differences():
    # surface diffusion and unequal exponents exercise every part of
    # K + A B^T: diffusion, the reaction coupling and its overlap with the
    # mass diagonal
    g = build_periodic_strip(6, 3, 2.0, 1.0)
    p = ModelParams(alpha=2.0, beta=3.0, delta_u=0.7, delta_v=0.4,
                    k_u=1.3, k_v=0.8)
    stepper = one_row(g, p, StepConfig(dt=0.05))
    rng = np.random.default_rng(3)
    n = g.n_omega + g.n_gamma
    z = rng.uniform(0.5, 2.0, n)
    z_old = rng.uniform(0.5, 2.0, n)
    jac = assembled_jacobian(stepper, z)
    h = 1e-6
    # the action of the operator on each unit vector, against central
    # differences of the residual in that direction
    fd = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        fd[:, j] = (stepper._residual((z + e)[None], z_old[None])
                    - stepper._residual((z - e)[None], z_old[None])
                    )[0] / (2.0 * h)
    action = jac @ np.eye(n)
    assert np.max(np.abs(action - fd)) <= 1e-7 * np.max(np.abs(action))


@pytest.mark.parametrize("geom", [build_periodic_strip(4, 3, 2.0, 1.0),
                                  build_polar_disk(3, 6, 1.0)],
                         ids=["strip", "disk"])
def test_residual_is_the_oracle_rhs_times_the_masses(geom):
    # the oracle's right-hand side and Newton's residual are written apart;
    # with surface diffusion both carry every term, so M (du, dv) = -F(z)
    # at z_old = z checks the delta_v term of semi_discrete_rhs too
    p = ModelParams(alpha=2.0, beta=3.0, delta_u=0.7, delta_v=0.4,
                    k_u=1.3, k_v=0.8)
    stepper = one_row(geom, p, StepConfig(dt=0.05))
    z = np.random.default_rng(2).uniform(0.2, 2.0,
                                         geom.n_omega + geom.n_gamma)
    du, dv = semi_discrete_rhs(z[:geom.n_omega], z[geom.n_omega:], geom, p)
    res = stepper._residual(z[None], z[None])[0]
    diff = stepper.mass * np.concatenate([du, dv]) + res
    assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(res))


@pytest.mark.parametrize("geom, params", [
    (build_periodic_strip(16, 8, 2.0, 1.0),
     [ModelParams(alpha=2.0, beta=3.0, delta_u=0.7, delta_v=0.4,
                  k_u=1.3, k_v=0.8)]),
    (build_polar_disk(8, 16, 1.0),
     [ModelParams(alpha=3.0, beta=1.0, delta_u=1.0, delta_v=1.0, k_u=5.0)]),
    (build_interval(12, 1.0),
     [ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0, k_v=0.2)]),
    # rows of different orders read the one interface array, each with its
    # own scale
    (build_periodic_strip(16, 8, 2.0, 1.0),
     [ModelParams(alpha=2.0, beta=3.0, delta_u=0.7, delta_v=0.4,
                  k_u=1.3, k_v=0.8),
      ModelParams(alpha=1.5, beta=1.0, delta_u=0.7, delta_v=0.4, k_v=0.5)]),
], ids=["strip", "disk", "interval", "strip two orders"])
def test_capacitance_update_matches_sparse_solve(geom, params):
    # two Newton iterations of one pass, each against a sparse solve of the
    # row's assembled Jacobian: the first from an arbitrary z, the second
    # from the iterate base - K^{-1}A p it produced, whose residual is A g.
    # A third update with reuse solves with the factors of the second's
    # system.
    stepper = _CoupledStepper(geom, params, StepConfig(dt=0.1))
    rows = stepper.interface
    every = np.arange(len(params))
    rng = np.random.default_rng(7)
    n = geom.n_omega + geom.n_gamma
    z = rng.uniform(0.2, 2.0, (len(params), n))
    z_old = rng.uniform(0.2, 2.0, (len(params), n))

    res = stepper._residual(z, z_old)
    y = stepper.lu.solve(-res.T).T
    p = stepper._interface_update(z[:, rows],
                                  np.zeros((len(params), geom.n_gamma)),
                                  y[:, rows], every, True)
    z1 = z + y - stepper.lu.solve(stepper._spread(p).T).T
    for j in every:
        expected = spla.spsolve(assembled_jacobian(stepper, z[j], j), -res[j])
        assert (np.linalg.norm(z1[j] - z[j] - expected)
                <= 1e-12 * np.linalg.norm(expected))

    zg1 = z[:, rows] + y[:, rows] - stepper.scale * (p @ stepper.ka_interface.T)
    assert np.allclose(zg1, z1[:, rows], rtol=1e-13, atol=0.0)
    g = stepper._rates(zg1) - stepper._rates(z[:, rows]) - p
    res1 = stepper._residual(z1, z_old)
    for j in every:
        assert np.allclose(res1[j], stepper._spread(g)[j], rtol=0.0,
                           atol=1e-12 * np.linalg.norm(res1[j]))
    dp = stepper._interface_update(zg1, g, None, every, False)
    got = -stepper.lu.solve(stepper._spread(dp).T).T
    for j in every:
        expected = spla.spsolve(assembled_jacobian(stepper, z1[j], j),
                                -res1[j])
        assert (np.linalg.norm(got[j] - expected)
                <= 1e-12 * np.linalg.norm(expected))
    # the partials at z instead of zg1 would change a factored system
    reused = stepper._interface_update(z[:, rows], g, None, every, True)
    assert np.array_equal(reused, dp)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "superlu"])
def test_stalled_pass_rebases_whichever_factor(monkeypatch, fast):
    # k_u dt = 1e4: the first pass reaches the rounding floor of
    # base_g - ka p above its target, where updates of p stay a little above
    # the 1024-ulp round-off test; a pass whose residual stops falling ends
    # and the second pass converges, with either factor of K
    if not fast:
        monkeypatch.setattr(linsolve, "factor", linsolve._superlu)
    g = build_periodic_strip(16, 8, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, k_u=1e3, k_v=1e-3, delta_u=1.0,
                    delta_v=0.0)
    stepper = _CoupledStepper(g, [p], StepConfig(dt=10.0))
    assert isinstance(stepper.lu, linsolve._FastDiagonalization) == fast
    updates = []
    real_update = stepper._interface_update
    monkeypatch.setattr(stepper, "_interface_update",
                        lambda *a: updates.append(1) or real_update(*a))
    z = np.concatenate([np.full(g.n_omega, 10.0), np.zeros(g.n_gamma)])
    stepper.step(z[None], 0.0)
    assert len(updates) <= 8


@pytest.mark.parametrize("geometry, fast", [
    (lambda: build_periodic_strip(16, 8, 1.0, 1.0), True),
    (lambda: build_polar_disk(8, 16, 1.0), False)], ids=["strip", "disk"])
def test_iterating_step_does_two_sparse_solves(monkeypatch, geometry, fast):
    # two solves is the floor with O(n + n_gamma^2) storage, also for the
    # linear alpha = beta = 1 case: the first gives the interface values of
    # K^-1(-F) before p is known, the second forms z from K^-1(A p). A batch
    # takes the same two solves, each with one column per row, whichever
    # factor K has (fast diagonalization on the strip, SuperLU on the disk).
    g = geometry()
    solves, updates = [], []

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs.shape[1:])
            return self.lu.solve(rhs)

    real_factor = linsolve.factor
    monkeypatch.setattr(linsolve, "factor",
                        lambda *a: CountingLU(real_factor(*a)))
    orders = {(2.0, 3.0): 2, (1.0, 1.0): 1, (1.5, 2.0): 2}
    batches = [[order] for order in orders] + [list(orders)]
    for batch in batches:
        params = [ModelParams(alpha=alpha, beta=beta, delta_u=1.0,
                              delta_v=0.5) for alpha, beta in batch]
        rng = np.random.default_rng(4)
        z = rng.uniform(0.2, 2.0, (len(batch), g.n_omega + g.n_gamma))
        stepper = _CoupledStepper(g, params, StepConfig(dt=0.05))
        assert isinstance(stepper.lu.lu, linsolve._FastDiagonalization) == fast
        real_update = stepper._interface_update
        monkeypatch.setattr(stepper, "_interface_update",
                            lambda *a, real=real_update:
                            updates.append(1) or real(*a))
        for _ in range(5):
            solves.clear()
            updates.clear()
            z = stepper.step(z, 0.0)
            # Newton iterations, as many as the slowest row needs ...
            assert len(updates) >= max(orders[order] for order in batch)
            # ... and two sparse solves, each of every row
            assert solves == [(len(batch),)] * 2


LOCKSTEP_GEOMETRIES = {
    "strip": (lambda: build_periodic_strip(16, 8, 1.0, 2.0), 0.5),
    # the simulate-strip grid: multi-column sparse solves at a size where
    # they have rounded differently from one column at a time
    "strip_64x32": (lambda: build_periodic_strip(64, 32, 2.0, 1.0), 0.5),
    "disk": (lambda: build_polar_disk(8, 16, 1.0), 0.5),
    "interval": (lambda: build_interval(12, 1.0), 0.0),
}
# (alpha, beta, k_u, k_v) of the rows of a lockstep batch: the exponents
# mixed, with repeats, so that rows share some powers and not others, at
# evenly spaced rows (beta) and not (alpha = 1.5)
LOCKSTEP_ROWS = ((1.0, 1.0, 1.0, 1.0), (1.5, 2.0, 2.0, 0.5),
                 (2.0, 3.0, 0.7, 1.3), (3.0, 1.5, 1.0, 2.0),
                 (1.5, 1.0, 5.0, 0.2), (1.5, 1.5, 1.0, 1.0))


@pytest.mark.parametrize("kind", sorted(LOCKSTEP_GEOMETRIES))
def test_lockstep_rows_match_single_runs(kind):
    # every step of every row of a batch is bitwise its run alone, while
    # the rows need different iteration counts and leave Newton apart
    build, delta_v = LOCKSTEP_GEOMETRIES[kind]
    g = build()
    params = [ModelParams(alpha=a, beta=b, delta_u=1.0, delta_v=delta_v,
                          k_u=k_u, k_v=k_v) for a, b, k_u, k_v in LOCKSTEP_ROWS]
    rng = np.random.default_rng(11)
    states = [State(rng.uniform(0.05, 2.0, g.n_omega) * scale,
                    rng.uniform(0.05, 2.0, g.n_gamma))
              for scale in (1.0, 0.5, 2.0, 1.0, 0.2, 3.0)]
    cfg = StepConfig(dt=0.05)
    marched = list(_march(states, g, params, cfg, 0.5))
    assert len(marched) == 10
    for j, (s0, p) in enumerate(zip(states, params)):
        alone = []
        integrate(s0, g, p, cfg, 0.5, observer=alone.append)
        for (time, z), ref in zip(marched, alone):
            assert time == ref.time
            assert np.array_equal(z[j, :g.n_omega], ref.u), (j, time)
            assert np.array_equal(z[j, g.n_omega:], ref.v), (j, time)


def counting_getrf(monkeypatch):
    """Patch the stepper's LAPACK factorization to count its calls; return
    the list it appends to."""
    calls, real = [], stepper_module.dgetrf
    monkeypatch.setattr(stepper_module, "dgetrf",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_first_iteration_of_a_step_reuses_the_last_factors(monkeypatch):
    # every step after the first factors one system fewer than it iterates:
    # its first iteration solves with the last factors of the step before,
    # and that chord update costs no extra iteration
    g = build_periodic_strip(16, 8, 1.0, 2.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    z0 = np.concatenate([1.0 + 0.4 * np.cos(2.0 * np.pi * g.omega_unit_coord),
                         0.5 + 0.4 * np.cos(2.0 * np.pi * g.gamma_unit_coord)]
                        )[None]
    cfg = StepConfig(dt=0.02)
    factored = counting_getrf(monkeypatch)
    stepper = one_row(g, p, cfg)
    iterations = []
    real_update = stepper._interface_update
    monkeypatch.setattr(stepper, "_interface_update",
                        lambda *a: iterations.append(1) or real_update(*a))
    marched, z = [], z0
    for n in range(50):
        iterations.clear()
        factored.clear()
        z = stepper.step(z, n * cfg.dt)
        marched.append(z)
        assert 1 <= len(iterations) <= 3, n
        assert len(factored) == len(iterations) - (n > 0), n
    # a fresh stepper, holding no factors, marches the same states bitwise
    again, z = one_row(g, p, cfg), z0
    for n, ref in enumerate(marched):
        z = again.step(z, n * cfg.dt)
        assert np.array_equal(z, ref), n


def test_lockstep_row_without_factors_leaves_the_others_reusing(monkeypatch):
    # row 0 starts at its equilibrium, so it never iterates and never holds
    # factors; the moving rows still reuse theirs, each row is bitwise its
    # single run, and the batch factors as often as the runs alone
    g = build_periodic_strip(16, 8, 1.0, 2.0)
    params = [ModelParams(alpha=a, beta=b, delta_u=1.0, delta_v=0.5)
              for a, b in ((2.0, 1.0), (2.0, 1.0), (1.5, 3.0), (1.0, 2.0))]
    rng = np.random.default_rng(9)
    z0 = rng.uniform(0.2, 2.0, (len(params), g.n_omega + g.n_gamma))
    z0[0] = 1.0
    cfg = StepConfig(dt=0.05)
    factored = counting_getrf(monkeypatch)
    batch, z = _CoupledStepper(g, params, cfg), z0
    marched = []
    for n in range(10):
        z = batch.step(z, n * cfg.dt)
        marched.append(z)
    assert np.array_equal(marched[-1][0], z0[0])
    assert batch._cap_lu[0] is None
    assert all(batch._cap_lu[1:])
    in_batch = len(factored)
    factored.clear()
    for j, p in enumerate(params):
        alone, z = one_row(g, p, cfg), z0[j:j + 1]
        for n, ref in enumerate(marched):
            z = alone.step(z, n * cfg.dt)
            assert np.array_equal(z[0], ref[j]), (j, n)
    assert in_batch == len(factored)


def test_lockstep_row_below_its_target_keeps_its_state():
    # row 0 lies within round-off of its equilibrium: its residual is not 0
    # but below its target, so alone it never iterates and keeps its state.
    # Next to a moving row every pass also forms an iterate of row 0, which
    # differs from its state and must not be taken
    g = build_periodic_strip(16, 8, 1.0, 2.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    rng = np.random.default_rng(2)
    n = g.n_omega + g.n_gamma
    z0 = np.stack([1.0 + 1e-15 * rng.uniform(-1.0, 1.0, n),
                   rng.uniform(0.2, 2.0, n)])
    cfg = StepConfig(dt=0.05)
    batch, z = _CoupledStepper(g, [p, p], cfg), z0
    norm = np.linalg.norm(batch._residual(z0, z0)[0])
    assert 0.0 < norm <= cfg.newton_tol
    alone, z1 = one_row(g, p, cfg), z0[1:]
    for n_step in range(5):
        z = batch.step(z, n_step * cfg.dt)
        z1 = alone.step(z1, n_step * cfg.dt)
        assert np.array_equal(z[0], z0[0]), n_step
        assert np.array_equal(z[1], z1[0]), n_step


def test_lockstep_power_raises_each_row_to_its_own_exponent_only():
    # an alpha = 1 row of 1e120 next to an alpha = 3 row must not be cubed
    x = np.array([[1e120, 2.0], [2.0, 3.0]])
    with np.errstate(all="raise"):
        got = stepper_module._power(x, ((1.0, np.array([0])),
                                        (3.0, np.array([1]))))
    assert np.array_equal(got, [[1e120, 2.0], [8.0, 27.0]])


def test_lockstep_batch_rejects_rows_that_differ_in_k():
    g = build_periodic_strip(4, 2, 1.0, 1.0)
    s0 = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.5))
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    cfg = StepConfig(dt=0.05)
    for what, value in (("delta_u", 2.0), ("delta_v", 0.1)):
        params = [p, dataclasses.replace(p, **{what: value})]
        with pytest.raises(ValueError, match=what):
            next(_march([s0, s0], g, params, cfg, 0.5))
        with pytest.raises(ValueError, match=what):
            _CoupledStepper(g, params, cfg)


def test_lockstep_step_failure_names_its_row():
    # the second row cannot take a step of dt = 10 in one Newton iteration,
    # the fixed points next to it can; the batch fails with the row's own
    # message and residual history
    g = build_interval(4, 1.0)
    p = interval_params(alpha=3.0, beta=1.0)
    low = State(np.zeros(g.n_omega), np.zeros(g.n_gamma))
    high = State(np.full(g.n_omega, 5.0), np.zeros(g.n_gamma))
    cfg = StepConfig(dt=10.0, newton_max_iter=1, newton_tol=1e-14)
    with pytest.raises(StepFailure) as alone:
        integrate(high, g, p, cfg, 30.0)
    with pytest.raises(StepFailure) as batch:
        list(_march([low, high, low], g, [p] * 3, cfg, 30.0))
    assert batch.value.row == 1 and str(batch.value) == str(alone.value)
    assert batch.value.residual_history == alone.value.residual_history
    assert batch.value.time == alone.value.time == 0.0


def test_chunked_interface_rows_match_one_solve(monkeypatch):
    g = build_polar_disk(6, 12, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.3)
    whole = one_row(g, p, StepConfig(dt=0.1)).ka_interface
    monkeypatch.setattr(stepper_module, "_CHUNK_COLUMNS", 5)
    chunked = one_row(g, p, StepConfig(dt=0.1)).ka_interface
    assert chunked.shape == (2 * g.n_gamma, g.n_gamma)
    assert np.allclose(chunked, whole, rtol=1e-14, atol=0.0)


def test_stepper_holds_no_dense_n_by_n_gamma_array():
    g = build_periodic_strip(64, 32, 2.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    stepper = one_row(g, p, StepConfig(dt=0.01))
    stepper.step(np.concatenate([np.ones((1, g.n_omega)),
                                 np.full((1, g.n_gamma), 0.5)], axis=1), 0.0)
    limit = (g.n_omega + g.n_gamma) * g.n_gamma
    sizes = {name: value.size for name, value in vars(stepper).items()
             if isinstance(value, np.ndarray)}
    assert "ka_interface" in sizes
    assert max(sizes.values()) < limit, sizes


def test_interface_rows_are_stored_once_whatever_the_orders():
    # K is block-diagonal, so one interface array of K^{-1}A serves rows of
    # every (alpha, beta): eight distinct orders cost no more storage than
    # one, and the array is bitwise a one-row stepper's
    g = build_polar_disk(8, 16, 1.0)
    orders = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (1.5, 3.0), (3.0, 1.5),
              (2.0, 2.0), (1.5, 1.0), (3.0, 3.0)]
    params = [ModelParams(alpha=alpha, beta=beta, delta_u=1.0, delta_v=0.5)
              for alpha, beta in orders]
    cfg = StepConfig(dt=0.05)
    stepper = _CoupledStepper(g, params, cfg)
    rng = np.random.default_rng(5)
    stepper.step(rng.uniform(0.2, 2.0, (len(params),
                                         g.n_omega + g.n_gamma)), 0.0)
    limit = (g.n_omega + g.n_gamma) * g.n_gamma
    sizes = {name: value.size for name, value in vars(stepper).items()
             if isinstance(value, np.ndarray)}
    assert "ka_interface" in sizes
    assert max(sizes.values()) < limit, sizes
    # every row holds a capacitance LU, and each is as small
    lu_sizes = [lu.size for lu, _ in stepper._cap_lu]
    assert len(lu_sizes) == len(params)
    assert max(lu_sizes) < limit, lu_sizes
    alone = one_row(g, params[3], cfg).ka_interface
    assert np.array_equal(stepper.ka_interface, alone)


@pytest.mark.parametrize("failure", ["nonfinite", "singular",
                                     "reused nonfinite"])
def test_capacitance_failure_raises_linear_solver_error(monkeypatch, failure):
    # the failure is injected into the LAPACK factor or solve; in the reused
    # case the first step stores factors and the second step's first
    # iteration solves with them before it factors anything
    g = build_interval(4, 1.0)
    stepper = one_row(g, interval_params(alpha=2.0), StepConfig(dt=0.1))
    z = np.concatenate([np.full((1, g.n_omega), 2.0),
                        np.full((1, g.n_gamma), 0.5)], axis=1)
    if failure == "reused nonfinite":
        z = stepper.step(z, 0.0)
    real_getrf, real_getrs = stepper_module.dgetrf, stepper_module.dgetrs
    factored = []

    def broken_getrf(a, overwrite_a=0):
        factored.append(a.shape)
        lu, piv, info = real_getrf(a, overwrite_a=overwrite_a)
        return lu, piv, 1 if failure == "singular" else info

    def broken_getrs(lu, piv, b, trans=0):
        x, info = real_getrs(lu, piv, b, trans=trans)
        return np.full_like(x, np.nan), info

    monkeypatch.setattr(stepper_module, "dgetrf", broken_getrf)
    monkeypatch.setattr(stepper_module, "dgetrs", broken_getrs)
    match = "singular" if failure == "singular" else "not finite"
    with pytest.raises(LinearSolverError, match=match):
        stepper.step(z, 0.1)
    assert len(factored) == (0 if failure == "reused nonfinite" else 1)


def test_coupled_step_newton_exhaustion_raises():
    g = build_interval(4, 1.0)
    p = interval_params(alpha=3.0, beta=1.0)
    s = State(np.full(g.n_omega, 5.0), np.zeros(g.n_gamma))
    cfg = StepConfig(dt=10.0, newton_max_iter=1, newton_tol=1e-14)
    with pytest.raises(StepFailure) as exc_info:
        integrate(s, g, p, cfg, s.time + cfg.dt)
    assert len(exc_info.value.residual_history) >= 1


def test_coupled_step_divergence_raises_and_names_its_row():
    # the backward-Euler step exists for any dt (its Jacobian is an
    # M-matrix), so this divergence is Newton's, not the problem's: once
    # Newton takes every step that exists (ROADMAP, "Newton takes every
    # backward-Euler step that exists") this config runs, and the test moves
    # to a config that still diverges
    g = build_periodic_strip(16, 8, 1.0, 1.0)
    p = ModelParams(alpha=6.0, beta=1.0, delta_u=1e-3)
    s = State(np.zeros(g.n_omega), np.full(g.n_gamma, 10.0))
    with pytest.raises(StepFailure) as alone:
        integrate(s, g, p, StepConfig(dt=1.0), 1.0)
    assert str(alone.value) == "Newton diverged at t=0 (reduce dt)"
    assert len(alone.value.residual_history) >= 2
    assert integrate(s, g, p, StepConfig(dt=0.01), 0.01).time == 0.01
    linear = dataclasses.replace(p, alpha=1.0)
    with pytest.raises(StepFailure) as batch:
        list(_march([s, s], g, [linear, p], StepConfig(dt=1.0), 1.0))
    assert batch.value.row == 1 and str(batch.value) == str(alone.value)


@pytest.mark.parametrize("dt", [1e-300, 1e-20, 1e-9, 1e-6])
def test_coupled_step_accepts_float_fixed_point(dt):
    # the Newton update falls below the float resolution of the state before
    # the residual reaches its target; the step must stop there, not fail
    g = build_interval(10, 1.0)
    p = interval_params(alpha=2.0, beta=1.0)
    rng = np.random.default_rng(0)
    s0 = State(rng.uniform(0.0, 2.0, g.n_omega), rng.uniform(0.0, 2.0, g.n_gamma))
    s1 = integrate(s0, g, p, StepConfig(dt=dt), dt)
    m0 = mass(s0, g, p)
    assert abs(mass(s1, g, p) - m0) <= 1e-14 * m0
    if dt == 1e-300:
        assert np.array_equal(s1.u, s0.u) and np.array_equal(s1.v, s0.v)


def test_coupled_step_validation():
    g = build_interval(4, 1.0)
    p = interval_params()
    with pytest.raises(ValueError):
        integrate(State(np.ones(3), np.ones(2)), g, p, StepConfig(dt=0.1), 0.1)


# ------------------------------------------------------------------ integrate


def test_integrate_zero_span_returns_input():
    g = build_interval(4, 1.0)
    p = interval_params()
    s0 = State(np.ones(g.n_omega), np.ones(g.n_gamma), time=1.5)
    calls = []
    out = integrate(s0, g, p, StepConfig(dt=0.1), 1.5, observer=calls.append)
    assert out is s0
    assert calls == []


def test_integrate_rejects_backward_span():
    g = build_interval(4, 1.0)
    p = interval_params()
    s0 = State(np.ones(g.n_omega), np.ones(g.n_gamma), time=2.0)
    with pytest.raises(ValueError):
        integrate(s0, g, p, StepConfig(dt=0.1), 1.0)


def test_integrate_observer_times_are_uniform():
    g = build_interval(5, 1.0)
    p = interval_params()
    s0 = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.5))
    times = []
    integrate(s0, g, p, StepConfig(dt=0.125), 1.0,
              observer=lambda s: times.append(s.time))
    assert len(times) == 8
    assert np.allclose(times, 0.125 * np.arange(1, 9), atol=1e-14)


def test_integrate_entropy_sequence_nonincreasing():
    g = build_periodic_strip(8, 4, 1.0, 1.0)
    s0 = State(1.0 + 0.5 * np.cos(2 * np.pi * g.omega_unit_coord),
               np.full(g.n_gamma, 0.5))
    for k_u, k_v in ((1.0, 1.0), (5.0, 0.2)):
        p = ModelParams(alpha=1.0, beta=2.0, delta_u=1.0, delta_v=1.0,
                        k_u=k_u, k_v=k_v)
        values = [entropy(s0, g, p)]
        integrate(s0, g, p, StepConfig(dt=0.01), 1.0,
                  observer=lambda s: values.append(entropy(s, g, p)))
        assert np.all(np.diff(values) <= 1e-9)


def test_integrate_is_deterministic():
    g = build_periodic_strip(6, 3, 1.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    rng = np.random.default_rng(21)
    u0 = rng.uniform(0.2, 2.0, g.n_omega)
    v0 = rng.uniform(0.2, 2.0, g.n_gamma)
    a = integrate(State(u0.copy(), v0.copy()), g, p, StepConfig(dt=0.05), 0.5)
    b = integrate(State(u0.copy(), v0.copy()), g, p, StepConfig(dt=0.05), 0.5)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)
