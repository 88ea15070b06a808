import csv

import numpy as np
import pytest

import volsurf.diagnostics as diagnostics
from volsurf.diagnostics import (TraceSeries, audit_ckp,
                                 audit_degenerate_coupling,
                                 check_entropy_dissipation_identity,
                                 dense_oracle, fit_rate, record,
                                 write_series_csv)
from volsurf.errors import OracleFailure
from volsurf.grid import build_interval, build_periodic_strip
from volsurf.model import (Equilibrium, ModelParams, State, equilibrium_state,
                           mass, solve_equilibrium)
from volsurf.stepper import StepConfig, integrate, semi_discrete_rhs


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


def test_oracle_python_fallback_matches_kernel():
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
    assert np.array_equal(back["t"], series.times)
    assert np.array_equal(back["E"], series.entropy)
    assert np.array_equal(back["D"], series.dissipation)
    assert np.array_equal(back["L1_v"], series.l1_v)
