import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

import volsurf.diagnostics as diagnostics
from volsurf.diagnostics import (TraceSeries, audit_ckp,
                                 audit_degenerate_coupling,
                                 check_entropy_dissipation_identity,
                                 dense_oracle, fit_rate, record,
                                 write_series_csv)
from volsurf.errors import OracleFailure, StepFailure
from volsurf.grid import build_interval, build_periodic_strip, build_polar_disk
from volsurf.model import (Equilibrium, ModelParams, State, dissipation,
                           entropy, entropy_decomposition, equilibrium_state,
                           mass, solve_equilibrium)
from volsurf.stepper import (StepConfig, _CoupledStepper, integrate,
                             semi_discrete_rhs)


def interval_run(t_end=1.0, dt=0.01, alpha=2.0, beta=1.0, k_u=1.0, k_v=1.0):
    g = build_interval(20, 1.0)
    p = ModelParams(alpha=alpha, beta=beta, delta_u=1.0, delta_v=0.0,
                    k_u=k_u, k_v=k_v)
    s0 = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.25))
    return record(s0, g, p, StepConfig(dt=dt), t_end), g, p


def synthetic_series(times, e_rel, dissipation, e_eq=-3.0):
    n = len(times)
    zeros = np.zeros(n)
    return TraceSeries(
        times=np.asarray(times, dtype=float),
        mass=np.full(n, 1.0),
        entropy=e_eq + np.asarray(e_rel, dtype=float),
        dissipation=np.asarray(dissipation, dtype=float),
        entropy_rel=np.asarray(e_rel, dtype=float),
        i1=zeros, i2=zeros, l1_u=zeros, l1_v=zeros,
        equilibrium=Equilibrium(1.0, 1.0, 1.0),
        entropy_eq=e_eq,
        final=None,
    )


# --------------------------------------------------------------------- record


def test_record_zero_span_single_record():
    g = build_interval(5, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    series = record(s0, g, p, StepConfig(dt=0.1), 0.0)
    assert len(series) == 1
    assert series.times[0] == 0.0


def test_record_equilibrium_run_stays_flat():
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    eq = solve_equilibrium(p, g, 3.0)
    series = record(equilibrium_state(eq, g), g, p, StepConfig(dt=0.05), 1.0)
    assert np.all(np.abs(series.entropy_rel) <= 1e-9)
    assert np.all(np.abs(series.l1_u) <= 1e-9)


def test_record_generic_run_invariants():
    series, g, p = interval_run()
    m0 = series.mass[0]
    assert series.final.time == series.times[-1]
    assert np.all(np.diff(series.times) > 0)
    assert np.max(np.abs(series.mass - m0)) <= 1e-8 * abs(m0)
    assert np.all(series.dissipation >= 0.0)
    assert np.all(np.diff(series.entropy) <= 1e-9 * (1.0 + abs(series.entropy[0])))
    assert np.all(series.entropy_rel >= -1e-9 * (1.0 + abs(series.entropy_eq)))
    assert np.all(series.i1 >= -1e-12)
    assert np.all(series.i2 >= -1e-12)


BLOCK_GEOMETRIES = {
    "strip": (lambda: build_periodic_strip(16, 8, 1.0, 2.0), 0.5),
    "disk": (lambda: build_polar_disk(8, 16, 1.0), 0.5),
    # delta_v = 0 on two boundary points: no surface faces
    "interval": (lambda: build_interval(12, 1.0), 0.0),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_GEOMETRIES))
def test_record_blocks_match_one_state_functionals(kind, monkeypatch):
    # record evaluates blocks of states at once; each row must round exactly
    # as the one-State functionals do, in every block position
    make, delta_v = BLOCK_GEOMETRIES[kind]
    g = make()
    # non-integer exponents take numpy's general power path
    p = ModelParams(alpha=1.5, beta=2.5, delta_u=1.0, delta_v=delta_v,
                    k_u=2.0, k_v=0.5)
    u0 = 1.0 + 0.4 * np.cos(np.arange(g.n_omega) * 1.7)
    v0 = 0.5 + 0.3 * np.sin(np.arange(g.n_gamma) * 2.3)
    # a zero trace cell next to a zero cell, under a zero patch: the
    # initial row reaches the floors, a zero jump and a == b
    first = g.trace_cells[0]
    face = next(f for f in g.omega_faces if first in f)
    u0[face] = 0.0
    v0[0] = 0.0
    s0 = State(u0, v0)
    cfg = StepConfig(dt=0.01)
    per_block = 3
    monkeypatch.setattr(diagnostics, "_BLOCK_ELEMENTS",
                        per_block * (g.n_omega + g.n_gamma))
    series = record(s0, g, p, cfg, 0.1)
    states = [s0]
    integrate(s0, g, p, cfg, 0.1, observer=states.append)
    assert len(series) == len(states) == 11  # blocks of 3, 3, 3 and 2

    eq = series.equilibrium
    e = np.array([entropy(s, g, p) for s in states])
    i1, i2 = np.array([entropy_decomposition(s, g, p, eq) for s in states]).T
    expected = {
        "times": [s.time for s in states],
        "mass": [mass(s, g, p) for s in states],
        "entropy": e,
        "dissipation": [dissipation(s, g, p) for s in states],
        "entropy_rel": e - series.entropy_eq,
        "i1": i1,
        "i2": i2,
        "l1_u": [float(g.omega_weights @ np.abs(s.u - eq.u_inf))
                 for s in states],
        "l1_v": [float(g.gamma_weights @ np.abs(s.v - eq.v_inf))
                 for s in states],
    }
    for name, column in expected.items():
        assert np.array_equal(getattr(series, name), column), name
    assert np.array_equal(series.final.u, states[-1].u)


def record_batch_runs(g, rng):
    """(State, ModelParams) of runs that can share one lockstep batch."""
    return [
        (State(rng.uniform(0.2, 2.0, g.n_omega), rng.uniform(0.2, 2.0, g.n_gamma)),
         ModelParams(alpha=2.0, beta=1.5, delta_u=1.0, delta_v=0.5, k_u=3.0)),
        (State(rng.uniform(0.2, 2.0, g.n_omega), rng.uniform(0.2, 2.0, g.n_gamma)),
         ModelParams(alpha=1.0, beta=3.0, delta_u=1.0, delta_v=0.5, k_v=0.3)),
        (State(rng.uniform(0.0, 0.5, g.n_omega), rng.uniform(1.0, 4.0, g.n_gamma)),
         ModelParams(alpha=1.5, beta=1.0, delta_u=1.0, delta_v=0.5)),
    ]


@pytest.mark.parametrize("block_rows, t_end, n_rows", [
    (None, 1.0, 21),  # one block
    # the runs' rows share one buffer, refilled in blocks of 3, 3, 3 and 2
    # rows, and each run's rows are read from strided views of it
    (3, 0.5, 11),
])
def test_record_batch_runs_match_record(block_rows, t_end, n_rows):
    # every column of every run of a lockstep batch, and its final state,
    # is bitwise the run recorded alone in one block
    g = build_periodic_strip(8, 4, 1.0, 2.0)
    runs = record_batch_runs(g, np.random.default_rng(5))
    cfg = StepConfig(dt=0.05)
    states, params = zip(*runs)
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(diagnostics, "_BLOCK_ELEMENTS",
                       block_rows * (g.n_omega + g.n_gamma))
        batch = diagnostics._record_batch(states, g, params, cfg, t_end)
    assert len(batch) == len(runs)
    n_columns = len(diagnostics.SERIES_COLUMNS)
    for series, (s0, p) in zip(batch, runs):
        alone = record(s0, g, p, cfg, t_end)
        assert len(series) == n_rows
        for column in dataclasses.fields(TraceSeries)[:n_columns]:
            assert np.array_equal(getattr(series, column.name),
                                  getattr(alone, column.name)), column.name
        assert np.array_equal(series.final.u, alone.final.u)
        assert np.array_equal(series.final.v, alone.final.v)
        assert series.final.time == alone.final.time
        assert series.entropy_eq == alone.entropy_eq


def test_record_batch_raises_the_failure_of_a_run():
    # a run whose rates overflow fails the batch with its own StepFailure
    g = build_periodic_strip(8, 4, 1.0, 2.0)
    runs = record_batch_runs(g, np.random.default_rng(5))
    runs.insert(1, (State(np.full(g.n_omega, 1e200), np.ones(g.n_gamma)),
                    ModelParams(alpha=3.0, beta=1.0, delta_u=1.0,
                                delta_v=0.5)))
    cfg = StepConfig(dt=0.05)
    with np.errstate(all="ignore"), pytest.raises(StepFailure) as alone:
        record(runs[1][0], g, runs[1][1], cfg, 1.0)
    states, params = zip(*runs)
    with np.errstate(all="ignore"), pytest.raises(StepFailure) as batch:
        diagnostics._record_batch(states, g, params, cfg, 1.0)
    assert batch.value.row == 1 and str(batch.value) == str(alone.value)


def test_record_row_error_comes_before_a_later_step_failure(monkeypatch):
    # rows are evaluated in blocks, after the steps that made them; a row
    # whose mass is off must still fail record before a later Newton failure
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0)
    s0 = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.5))
    real_step = _CoupledStepper.step
    made = []

    def step(self, z, time):
        if len(made) == 4:
            raise StepFailure(f"Newton diverged at t={time:g} (reduce dt)")
        z = real_step(self, z, time)
        # steps 2 and 3 leave the conserved mass, by different factors
        z = z * {2: 2.0, 3: 3.0}.get(len(made) + 1, 1.0)
        made.append(z[0])
        return z

    monkeypatch.setattr(_CoupledStepper, "step", step)
    with pytest.raises(ValueError, match="does not match equilibrium mass"
                       ) as info:
        record(s0, g, p, StepConfig(dt=0.05), 1.0)
    assert len(made) == 4  # the failure came at step 5, after every row
    # the message names the first row whose mass is off
    m2 = mass(State(made[1][:g.n_omega], made[1][g.n_omega:]), g, p)
    assert str(info.value).startswith(f"state mass {m2!r} ")


@pytest.mark.parametrize("n_runs", [1, 4])
def test_record_memory_does_not_grow_with_the_states(n_runs):
    # record keeps the nine columns, never the trajectory: 150 more steps
    # on 2,176 unknowns (17 kB a state) cost a few hundred bytes a run each,
    # also when the runs of a lockstep batch share one block buffer
    g = build_periodic_strip(64, 32, 2.0, 1.0)
    x = np.arange(g.n_omega) % 64 * (2.0 * np.pi / 64)
    states = [State(1.0 + 0.39 * c * np.cos(x), np.full(g.n_gamma, 0.5))
              for c in (1.0, 0.5, 0.25, 0.75)[:n_runs]]
    params = [ModelParams(alpha=alpha, beta=1.0, delta_u=1.0, delta_v=0.5)
              for alpha in (2.0, 1.0, 3.0, 1.5)[:n_runs]]
    cfg = StepConfig(dt=0.01)
    # first-call allocations
    diagnostics._record_batch(states, g, params, cfg, cfg.dt)
    peaks = []
    for steps in (50, 200):
        tracemalloc.start()
        try:
            diagnostics._record_batch(states, g, params, cfg,
                                      steps * cfg.dt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 150 / n_runs <= 400


# ------------------------------------------------- entropy-dissipation identity


def test_identity_validation():
    with pytest.raises(ValueError):
        check_entropy_dissipation_identity(
            synthetic_series([0.0, 1.0], [1.0, 0.5], [1.0, 0.5]))
    crooked = synthetic_series([0.0, 0.1, 0.3], [1.0, 0.9, 0.7], [1.0] * 3)
    with pytest.raises(ValueError):
        check_entropy_dissipation_identity(crooked)
    uniform = synthetic_series([0.0, 0.1, 0.2], [1.0, 0.9, 0.8], [1.0] * 3)
    with pytest.raises(ValueError):
        check_entropy_dissipation_identity(uniform, t_start=5.0)


def test_identity_equilibrium_residual_tiny():
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    eq = solve_equilibrium(p, g, 3.0)
    series = record(equilibrium_state(eq, g), g, p, StepConfig(dt=0.05), 1.0)
    assert check_entropy_dissipation_identity(series) <= 1e-8


def test_identity_exact_on_synthetic_exponential():
    # E = e^{-t} sampled densely, D = e^{-t}: centered difference error only
    t = np.linspace(0.0, 1.0, 2001)
    e_rel = np.exp(-t)
    series = synthetic_series(t, e_rel, e_rel)
    assert check_entropy_dissipation_identity(series) <= 1e-6


def test_identity_residual_halves_with_dt():
    # the residual is pure time-discretization error away from the initial
    # transient, so halving dt should nearly halve it
    t_start = 0.15
    series_a, _, _ = interval_run(t_end=2.0, dt=1e-2)
    series_b, _, _ = interval_run(t_end=2.0, dt=5e-3)
    r_a = check_entropy_dissipation_identity(series_a, t_start=t_start)
    r_b = check_entropy_dissipation_identity(series_b, t_start=t_start)
    assert r_a / r_b >= 1.8


def test_identity_residual_halves_with_dt_for_rate_constants():
    # with k_u != k_v the residual is still pure time-discretization error
    # only if E carries the chemical potentials and D the rated reaction term
    t_start = 0.15
    series_a, _, _ = interval_run(t_end=2.0, dt=1e-2, k_u=5.0, k_v=0.2)
    series_b, _, _ = interval_run(t_end=2.0, dt=5e-3, k_u=5.0, k_v=0.2)
    assert np.all(np.diff(series_a.entropy) <= 1e-9)
    r_a = check_entropy_dissipation_identity(series_a, t_start=t_start)
    r_b = check_entropy_dissipation_identity(series_b, t_start=t_start)
    assert r_a / r_b >= 1.8


# ------------------------------------------------------------------- fit_rate


def test_fit_rate_recovers_synthetic_exponential():
    t = np.linspace(0.0, 3.0, 301)
    e_rel = np.exp(-3.0 * t)
    series = synthetic_series(t, e_rel, 3.0 * e_rel)
    fit = fit_rate(series)
    assert fit.c0_emp == pytest.approx(3.0, abs=1e-6)
    assert fit.r_squared >= 1.0 - 1e-10
    assert fit.eed_min == pytest.approx(3.0, rel=1e-12)
    assert fit.window[0] >= t[0]
    assert fit.window[1] <= t[-1]


def test_fit_rate_stops_at_the_first_unresolved_record():
    # exp(-20 t) crosses 1000 eps |E_eq| (6.7e-13) between t = 1.4 and 1.5;
    # the records after t = 1.5 are round-off noise above 10 eps |E_eq|,
    # some of it above 1000 eps |E_eq| too, which must not enter the fit
    t = np.linspace(0.0, 3.0, 31)
    e_rel = np.exp(-20.0 * t)
    e_rel[t > 1.55] = np.resize([2e-12, 5e-14, 1e-12], np.sum(t > 1.55))
    fit = fit_rate(synthetic_series(t, e_rel, 20.0 * e_rel))
    assert fit.window == (pytest.approx(0.9), pytest.approx(1.4))
    assert fit.c0_emp == pytest.approx(20.0, rel=1e-9)
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.eed_min == pytest.approx(20.0, rel=1e-12)


def test_fit_rate_linear_case_run():
    series, _, _ = interval_run(t_end=4.0, dt=0.02, alpha=1.0, beta=1.0)
    fit = fit_rate(series)
    assert fit.c0_emp > 0.0
    assert fit.r_squared >= 0.99
    assert fit.eed_min > 0.0


def test_fit_rate_validation():
    t = np.linspace(0.0, 1.0, 11)
    series = synthetic_series(t, np.exp(-t), np.exp(-t))
    with pytest.raises(ValueError):
        fit_rate(series, skip_fraction=1.0)
    with pytest.raises(ValueError):
        fit_rate(series, skip_fraction=-0.1)
    flat = synthetic_series(t, np.zeros(11), np.zeros(11))
    with pytest.raises(ValueError):
        fit_rate(flat)


# ------------------------------------------------------------------ audit_ckp


def test_audit_ckp_equilibrium_margin_near_zero():
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    eq = solve_equilibrium(p, g, 3.0)
    series = record(equilibrium_state(eq, g), g, p, StepConfig(dt=0.05), 0.5)
    margin = audit_ckp(series, p)
    assert abs(margin) <= 1e-9 * (1.0 + abs(series.entropy_eq))


def test_audit_ckp_generic_run_and_negative_control():
    series, _, p = interval_run()
    margin = audit_ckp(series, p)
    assert margin >= -1e-9 * (1.0 + abs(series.entropy_eq))
    series.l1_u = series.l1_u * 10.0
    assert audit_ckp(series, p) < 0.0


# ------------------------------------------------- degenerate coupling audit


def test_degenerate_audit_requires_degenerate_params():
    g = build_periodic_strip(4, 2, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    s = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    with pytest.raises(ValueError):
        audit_degenerate_coupling(s, g, p)


def test_degenerate_audit_constant_v_gives_inf():
    g = build_periodic_strip(4, 2, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    rng = np.random.default_rng(1)
    s = State(rng.uniform(0.5, 2.0, g.n_omega), np.full(g.n_gamma, 0.7))
    assert audit_degenerate_coupling(s, g, p) == np.inf


def test_degenerate_audit_hand_computed_ratio():
    # u = 1 kills the gradient and mean terms; v alternating 4/1 gives
    # num = |Gamma|/2 * (1-2)^2 = 1 and den = |Gamma| * 0.5^2 = 0.5
    g = build_periodic_strip(4, 2, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s = State(np.ones(g.n_omega), np.tile([4.0, 1.0], 4))
    assert audit_degenerate_coupling(s, g, p) == pytest.approx(2.0, rel=1e-14)
    # the audit reads k_u u^a: with k_u = 9 the trace is sqrt(9 u) = 3 and
    # num = |Gamma|/2 * ((3-2)^2 + (3-1)^2) = 5
    p9 = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0, k_u=9.0)
    assert audit_degenerate_coupling(s, g, p9) == pytest.approx(10.0, rel=1e-14)


def test_degenerate_audit_positive_on_generic_run():
    g = build_periodic_strip(8, 4, 1.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega),
               0.5 + 0.3 * np.cos(2.0 * np.pi * g.gamma_unit_coord))
    states = [s0]
    integrate(s0, g, p, StepConfig(dt=0.01), 0.5, observer=states.append)
    assert len(states) == 51
    ratio = min(audit_degenerate_coupling(s, g, p) for s in states)
    assert np.isfinite(ratio)
    assert ratio > 0.0


# --------------------------------------------------------------- dense oracle


def test_oracle_rejects_large_instances():
    g = build_periodic_strip(16, 8, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    with pytest.raises(ValueError):
        dense_oracle(s, g, p, 0.1)


def test_oracle_zero_span_and_checkpoint_validation():
    g = build_interval(3, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    out = dense_oracle(s, g, p, 0.0)
    assert len(out) == 1
    with pytest.raises(ValueError):
        dense_oracle(s, g, p, 0.1, n_checkpoints=1)


def test_oracle_equilibrium_trajectory_constant():
    g = build_interval(4, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    eq = solve_equilibrium(p, g, 3.0)
    out = dense_oracle(equilibrium_state(eq, g), g, p, 0.01, n_checkpoints=5)
    for s in out:
        assert np.allclose(s.u, eq.u_inf, atol=1e-12)
        assert np.allclose(s.v, eq.v_inf, atol=1e-12)


def test_oracle_conserves_mass():
    g = build_interval(4, 1.0)
    p = ModelParams(alpha=1.0, beta=2.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.array([1.2, 0.4, 0.9, 0.6]), np.array([0.3, 1.1]))
    out = dense_oracle(s0, g, p, 0.02, n_checkpoints=5)
    m0 = mass(out[0], g, p)
    for s in out:
        assert mass(s, g, p) == pytest.approx(m0, abs=1e-9 * max(1.0, m0))


def test_oracle_instability_raises(monkeypatch):
    # a right-hand side that blows up in finite time, and one that carries
    # u out of the nonnegative cone, must each trip a failure check
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.linspace(0.5, 2.0, g.n_omega), np.array([0.3, 1.4]))

    def blow_up(u, v, geom, params):
        # u' = u^2 reaches infinity at t = 1/u0 = 0.5 in the largest cell
        return u ** 2, v ** 2

    def drain(u, v, geom, params):
        # u' = -1 takes the smallest cell to u = -0.5 by t = 1
        return np.full_like(u, -1.0), np.zeros_like(v)

    for rhs in (blow_up, drain):
        monkeypatch.setattr(diagnostics, "semi_discrete_rhs", rhs)
        with pytest.raises(OracleFailure):
            dense_oracle(s0, g, p, 1.0, n_checkpoints=2)


def _rk4_reference(state0, geom, params, t_end, h, n_checkpoints):
    # independent fixed-step classical RK4 on the same semi-discrete system
    n_u = geom.n_omega

    def rhs(z):
        du, dv = semi_discrete_rhs(z[:n_u], z[n_u:], geom, params)
        return np.concatenate([du, dv])

    seg = (t_end - state0.time) / (n_checkpoints - 1)
    m = int(round(seg / h))
    z = np.concatenate([state0.u, state0.v])
    out = [z.copy()]
    for _ in range(n_checkpoints - 1):
        for _ in range(m):
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(z.copy())
    return [State(zc[:n_u], zc[n_u:]) for zc in out]


def test_oracle_matches_python_rk4():
    # the adaptive oracle against a plain-python RK4 at h=1e-5: two
    # unrelated integrators must land on the same semi-discrete trajectory
    g = build_interval(3, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.array([1.2, 0.4, 0.9]), np.array([0.3, 1.1]))
    fast = dense_oracle(s0, g, p, 0.01, n_checkpoints=3)
    slow = _rk4_reference(s0, g, p, 0.01, 1e-5, n_checkpoints=3)
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert np.max(np.abs(a.u - b.u)) <= 1e-9
        assert np.max(np.abs(a.v - b.v)) <= 1e-9


# ------------------------------------------------------------------ CSV export


def test_series_csv_roundtrip_exact(tmp_path):
    series, _, _ = interval_run(t_end=0.1)
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    with open(path, encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    back = dict(zip(header, np.array(rows, dtype=float).T))
    assert list(back) == list(diagnostics.SERIES_COLUMNS)
    fields = ("times", "mass", "entropy", "dissipation", "entropy_rel", "i1",
              "i2", "l1_u", "l1_v")
    for column, name in zip(diagnostics.SERIES_COLUMNS, fields):
        assert np.array_equal(back[column], getattr(series, name)), column
    assert np.array_equal(series.entropy_rel,
                          series.entropy - series.entropy_eq)
