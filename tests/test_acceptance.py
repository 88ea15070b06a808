"""End-to-end acceptance gate.

Each test below is one release criterion and prints a single
``criterion N (...): PASS`` or ``FAIL`` line (visible under ``pytest -s``)
before asserting. The shared run matrix covers both geometries, four
exponent pairs, surface diffusion on and off where admissible, and two
non-constant initial profiles; session fixtures compute every trajectory
exactly once.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from volsurf.cli import build_initial_state
from volsurf.diagnostics import (SERIES_COLUMNS, TraceSeries, _record_batch,
                                 audit_ckp, audit_degenerate_coupling,
                                 check_entropy_dissipation_identity,
                                 dense_oracle, fit_rate)
from volsurf.grid import build_interval, build_periodic_strip
from volsurf.model import ModelParams, State, equilibrium_from_measures
from volsurf.monotone import check_sandwich, comparison_pairs, run_monotone
from volsurf.stepper import StepConfig, integrate

EXPONENT_PAIRS = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 3.0))

# (geometry key, alpha, beta, delta_v, profile); surface diffusion only
# where the geometry carries a surface Laplacian
CASES = tuple(
    (gk, a, b, dv, prof)
    for gk in ("interval", "strip")
    for (a, b) in EXPONENT_PAIRS
    for dv in ((0.0,) if gk == "interval" else (0.0, 1.0))
    for prof in ("step", "cosine")
)

IDENTITY_T_START = 0.15  # skips the stiff initial transient (~h^2/delta_u)

# records of a run to t = 2 at dt = 1e-2: the initial one and 200 steps
SHORT_RECORDS = 201
# the TraceSeries fields that hold one value per record
RECORD_FIELDS = tuple(f.name for f in
                      dataclasses.fields(TraceSeries)[:len(SERIES_COLUMNS)])


def case_params(case) -> ModelParams:
    _, alpha, beta, delta_v, _ = case
    return ModelParams(alpha=alpha, beta=beta, delta_u=1.0, delta_v=delta_v)


def case_initial(case, geom) -> State:
    return build_initial_state(
        {"kind": case[4], "u0": 1.0, "v0": 0.5, "amplitude": 0.4}, geom)


def label(case) -> str:
    gk, a, b, dv, prof = case
    return f"{gk} a={a:g} b={b:g} dv={dv:g} {prof}"


def fit_resolvable(series):
    """Tail fit, widening the window leftward when fast decay has pushed
    the whole default tail below the cancellation floor."""
    last = None
    for skip in (0.3, 0.2, 0.1, 0.05, 0.02, 0.0):
        try:
            return fit_rate(series, skip_fraction=skip)
        except ValueError as exc:
            last = exc
    raise last


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}  [{detail}]"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session")
def geometries():
    return {"interval": build_interval(50, 1.0),
            "strip": build_periodic_strip(16, 8, 1.0, 1.0),
            "strip_fine": build_periodic_strip(32, 16, 1.0, 1.0)}


def record_groups(cases, geometries, dt, t_end, grid=None):
    """{case: (series, wall seconds of its batch)} for cases, recording
    each (geometry, delta_v) group in one lockstep _record_batch, whose
    series are bitwise those of record. A case runs on geometries[grid] if
    grid is given, else on its own geometry."""
    groups = {}
    for case in cases:
        groups.setdefault((case[0], case[3]), []).append(case)
    out = {}
    for group in groups.values():
        g = geometries[grid or group[0][0]]
        t0 = time.perf_counter()
        batch = _record_batch([case_initial(case, g) for case in group], g,
                              [case_params(case) for case in group],
                              StepConfig(dt=dt), t_end)
        elapsed = time.perf_counter() - t0
        out.update((case, (series, elapsed))
                   for case, series in zip(group, batch))
    return out


def series_prefix(series, n):
    """The first n records of series. Its final state is not kept, so the
    prefix's final is None."""
    return dataclasses.replace(
        series, final=None,
        **{name: getattr(series, name)[:n] for name in RECORD_FIELDS})


@pytest.fixture(scope="session")
def long_batches(geometries):
    """t_end = 10 at dt = 1e-2: (series, wall seconds of its batch) per case."""
    return record_groups(CASES, geometries, 1e-2, 10.0)


@pytest.fixture(scope="session")
def short_runs(long_batches):
    """t_end = 2 at dt = 1e-2: (series, wall seconds of its batch) per case,
    taken from long_batches. Both step grids have h = 1e-2, so the first
    SHORT_RECORDS records are bitwise those of a run to t = 2; the seconds
    are those of the 1,000-step batch."""
    return {case: (series_prefix(series, SHORT_RECORDS), elapsed)
            for case, (series, elapsed) in long_batches.items()}


@pytest.fixture(scope="session")
def half_dt_runs(geometries):
    """Same matrix at dt = 5e-3, for the dissipation-identity halving."""
    return {case: series for case, (series, _)
            in record_groups(CASES, geometries, 5e-3, 2.0).items()}


@pytest.fixture(scope="session")
def long_runs(long_batches):
    """t_end = 10 at dt = 1e-2, used by the equilibration criteria."""
    return {case: series for case, (series, _) in long_batches.items()}


@pytest.fixture(scope="session")
def refined_runs(geometries):
    """Strip cases of the long matrix on the 2x refined grid."""
    strips = [case for case in CASES if case[0] == "strip"]
    return {case: series for case, (series, _)
            in record_groups(strips, geometries, 1e-2, 10.0,
                             "strip_fine").items()}


def test_short_runs_are_a_run_to_t_2(geometries, short_runs):
    # one lockstep group recorded to t = 2 is bitwise the prefix short_runs
    # takes of its run to t = 10
    group = [case for case in CASES if case[0] == "interval"]
    for case, (series, _) in record_groups(group, geometries, 1e-2,
                                           2.0).items():
        prefix, _ = short_runs[case]
        assert len(prefix) == len(series) == SHORT_RECORDS
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(prefix, name),
                                  getattr(series, name)), name
        assert prefix.equilibrium == series.equilibrium
        assert prefix.entropy_eq == series.entropy_eq


def test_01_conservation(short_runs):
    worst_drift = 0.0
    slowest = 0.0
    bad = []
    for case, (series, elapsed) in short_runs.items():
        m0 = series.mass[0]
        drift = float(np.max(np.abs(series.mass - m0)) / abs(m0))
        worst_drift = max(worst_drift, drift)
        slowest = max(slowest, elapsed)
        if drift > 1e-8 or elapsed >= 10.0:
            bad.append(label(case))
    report(1, "mass conservation", not bad,
           f"worst relative drift {worst_drift:.2e}, slowest batch {slowest:.2f}s")


def test_long_run_mass_drift_is_round_off(long_runs):
    # 1000 steps per case: a stepper whose solves return the state itself
    # instead of its change drifts by round-off of the state, about 1e-13
    bad = []
    worst = 0.0
    for case, series in long_runs.items():
        m0 = series.mass[0]
        drift = abs(series.mass[-1] - m0)
        worst = max(worst, drift)
        if drift > 1e-14 * max(1.0, m0):
            bad.append(f"{label(case)} drift {drift:.2e}")
    assert not bad, f"worst drift {worst:.2e}: {bad}"


def test_02_entropy_decay_and_identity(short_runs, half_dt_runs):
    bad = []
    worst_ratio = np.inf
    for case, (series, _) in short_runs.items():
        if np.any(np.diff(series.entropy) > 1e-9):
            bad.append(label(case) + " entropy increased")
            continue
        r_coarse = check_entropy_dissipation_identity(
            series, t_start=IDENTITY_T_START)
        r_fine = check_entropy_dissipation_identity(
            half_dt_runs[case], t_start=IDENTITY_T_START)
        ratio = r_coarse / r_fine
        worst_ratio = min(worst_ratio, ratio)
        if ratio < 1.8:
            bad.append(label(case) + f" ratio {ratio:.3f}")
    report(2, "entropy decay and dissipation identity", not bad,
           f"worst halving ratio {worst_ratio:.3f} (need >= 1.8)")


def test_03_exponential_convergence(long_runs):
    bad = []
    worst_r2 = 1.0
    extrapolated = 0
    for case, series in long_runs.items():
        fit = fit_resolvable(series)
        worst_r2 = min(worst_r2, fit.r_squared)
        threshold = 1e-6 * series.entropy_rel[0]
        ok = fit.c0_emp > 0.0 and fit.r_squared >= 0.99
        if ok and series.entropy_rel[-1] > threshold:
            # slow case: require the fitted decay to cross the threshold
            # within five horizons
            t_cross = (math.log(threshold) - fit.intercept) / -fit.c0_emp
            ok = t_cross <= 5.0 * series.times[-1]
            extrapolated += 1
        if not ok:
            bad.append(label(case))
    report(3, "exponential equilibration", not bad,
           f"worst r^2 {worst_r2:.5f}, {extrapolated} case(s) via fitted crossing")


def test_04_ckp_bound(short_runs):
    worst = np.inf
    bad = []
    for case, (series, _) in short_runs.items():
        margin = audit_ckp(series, case_params(case))
        slack = 1e-9 * (1.0 + abs(series.entropy_eq))
        worst = min(worst, margin)
        if margin < -slack:
            bad.append(label(case))
    report(4, "CKP lower bound", not bad, f"worst margin {worst:.3e}")


def test_05_eed_witness(long_runs, refined_runs):
    bad = []
    worst_change = 0.0
    for case, series in long_runs.items():
        eed = fit_resolvable(series).eed_min
        if not eed > 0.0:
            bad.append(label(case) + " nonpositive")
            continue
        if case[0] == "strip":
            eed_fine = fit_resolvable(refined_runs[case]).eed_min
            change = abs(eed_fine - eed) / eed
            worst_change = max(worst_change, change)
            if change >= 0.5:
                bad.append(label(case) + f" drifts {change:.0%} under refinement")
    report(5, "entropy-dissipation constant", not bad,
           f"worst refinement drift {worst_change:.1%} (need < 50%)")


def test_06_monotone_certificate(geometries):
    g = build_interval(20, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    cfg = StepConfig(dt=1e-2)
    t0 = time.perf_counter()
    solution, rep = run_monotone(s0, g, p, cfg, 0.5, outer_tol=1e-8)
    elapsed = time.perf_counter() - t0
    verdict = check_sandwich(rep)

    newton = [s0.copy()]
    integrate(s0.copy(), g, p, cfg, 0.5,
              observer=lambda s: newton.append(s.copy()))
    agreement = max(
        max(float(np.max(np.abs(a.u - b.u))), float(np.max(np.abs(a.v - b.v))))
        for a, b in zip(solution, newton))

    ok = (rep.k_final <= 60 and verdict.passed
          and bool(np.all(np.diff(rep.gaps) <= 0.0))
          and agreement <= 1e-6 and elapsed < 60.0)
    report(6, "monotone iteration certificate", ok,
           f"{rep.k_final} sweeps in {elapsed:.1f}s, sandwich {verdict.passed}, "
           f"Newton agreement {agreement:.2e}")


def test_07_comparison_principle(geometries):
    setups = [("interval", ModelParams(alpha=2.0, beta=1.0, delta_u=1.0,
                                       delta_v=0.0)),
              ("strip", ModelParams(alpha=1.0, beta=2.0, delta_u=1.0,
                                    delta_v=1.0))]
    rng = np.random.default_rng(20240817)
    cfg = StepConfig(dt=1e-2)
    worst_margin = np.inf
    worst_min = np.inf
    ok = True
    for gk, params in setups:
        g = geometries[gk]
        pairs = []
        for _ in range(20):
            lo = State(rng.uniform(0.1, 1.0, g.n_omega),
                       rng.uniform(0.1, 1.0, g.n_gamma))
            hi = State(lo.u + rng.uniform(0.0, 1.0, g.n_omega),
                       lo.v + rng.uniform(0.0, 1.0, g.n_gamma))
            pairs.append((lo, hi))
        # the 20 pairs march together on one stepper
        for verdict in comparison_pairs(pairs, g, params, cfg, 1.0):
            worst_margin = min(worst_margin, verdict.worst_violation)
            ok = ok and verdict.passed
        for _ in range(10):
            s = State(rng.uniform(0.0, 2.0, g.n_omega),
                      rng.uniform(0.0, 2.0, g.n_gamma))
            mins = []
            integrate(s, g, params, cfg, 1.0,
                      observer=lambda st: mins.append(
                          min(float(np.min(st.u)), float(np.min(st.v)))))
            worst_min = min(worst_min, min(mins))
            ok = ok and min(mins) >= 0.0
    report(7, "comparison principle and positivity", ok,
           f"worst ordering margin {worst_margin:.2e}, "
           f"smallest value reached {worst_min:.2e}")


def test_08_oracle_agreement():
    g = build_interval(3, 1.0)
    t0 = time.perf_counter()
    worst_err = 0.0
    ratios = []
    ok = True
    for alpha, beta in EXPONENT_PAIRS:
        p = ModelParams(alpha=alpha, beta=beta, delta_u=1.0, delta_v=0.0)
        s0 = build_initial_state(
            {"kind": "step", "u0": 1.0, "v0": 0.5, "amplitude": 0.4}, g)
        reference = dense_oracle(s0, g, p, 0.1, n_checkpoints=101)
        errs = {}
        for dt in (1e-3, 5e-4):
            states = [s0.copy()]
            integrate(s0.copy(), g, p, StepConfig(dt=dt), 0.1,
                      observer=lambda s: states.append(s.copy()))
            stride = int(round(1e-3 / dt))
            errs[dt] = max(
                max(float(np.max(np.abs(states[i * stride].u - rs.u))),
                    float(np.max(np.abs(states[i * stride].v - rs.v))))
                for i, rs in enumerate(reference))
        ratio = errs[1e-3] / errs[5e-4]
        ratios.append(ratio)
        worst_err = max(worst_err, errs[1e-3])
        ok = ok and errs[1e-3] <= 1e-2 and 1.7 <= ratio <= 2.3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(8, "dense-oracle agreement", ok,
           f"worst sup error {worst_err:.2e}, halving ratios "
           f"{min(ratios):.2f}..{max(ratios):.2f}, {elapsed:.1f}s")


def test_09_equilibrium_solver():
    rng = np.random.default_rng(20240817)
    worst_resid = 0.0
    worst_oracle = 0.0
    ok = True
    for _ in range(50):
        alpha = rng.uniform(1.0, 3.0)
        beta = rng.uniform(1.0, 3.0)
        omega = rng.uniform(0.2, 5.0)
        gamma = rng.uniform(0.2, 5.0)
        mass = rng.uniform(0.1, 10.0)
        p = ModelParams(alpha=alpha, beta=beta, delta_u=1.0, delta_v=0.0)
        eq = equilibrium_from_measures(p, omega, gamma, mass)

        scale = max(1.0, eq.u_inf ** alpha)
        r_balance = abs(eq.u_inf ** alpha - eq.v_inf ** beta) / scale
        r_mass = abs(beta * omega * eq.u_inf + alpha * gamma * eq.v_inf
                     - mass) / mass
        worst_resid = max(worst_resid, r_balance, r_mass)

        # independent bisection on the v-side residual, bracket to 1e-14
        lo, hi = 0.0, mass / (alpha * gamma)
        for _ in range(200):
            if hi - lo <= 1e-14:
                break
            mid = 0.5 * (lo + hi)
            u_mid = (mass - alpha * gamma * mid) / (beta * omega)
            if mid ** beta - u_mid ** alpha > 0.0:
                hi = mid
            else:
                lo = mid
        diff = abs(eq.v_inf - 0.5 * (lo + hi))
        worst_oracle = max(worst_oracle, diff)
        ok = ok and r_balance <= 1e-12 and r_mass <= 1e-12 and diff <= 1e-11
    report(9, "constant equilibrium solver", ok,
           f"worst residual {worst_resid:.2e}, "
           f"worst oracle gap {worst_oracle:.2e}")


def test_10_degenerate_coupling(geometries):
    # the long-run matrix, audited state by state as the run advances
    g = geometries["strip"]
    worst = np.inf
    ok = False
    for case in CASES:
        if case[0] != "strip" or case[3] != 0.0:
            continue
        p = case_params(case)
        s0 = case_initial(case, g)
        ratios = [audit_degenerate_coupling(s0, g, p)]

        def observe(state):
            ratios.append(audit_degenerate_coupling(state, g, p))

        integrate(s0, g, p, StepConfig(dt=1e-2), 10.0, observer=observe)
        worst = min(worst, *ratios)
        ok = True
    ok = ok and worst > 0.0
    report(10, "degenerate boundary coupling witness", ok,
           f"smallest ratio {worst:.3e} over the surface-diffusion-free strip runs")
