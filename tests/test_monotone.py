import numpy as np
import pytest

import volsurf.stepper as stepper_module
from volsurf import linsolve, monotone
from volsurf.errors import MonotoneConvergenceError, StepFailure
from volsurf.grid import (build_interval, build_periodic_strip,
                          build_polar_disk, trace)
from volsurf.model import (ModelParams, State, equilibrium_state,
                           lipschitz_bounds, shifted_f, shifted_g,
                           solve_equilibrium)
from volsurf.monotone import check_sandwich, comparison_pairs, run_monotone
from volsurf.stepper import (StepConfig, _CoupledStepper, _march, integrate,
                             linear_bulk_step, linear_surface_step)


def test_zero_start_converges_immediately():
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.zeros(g.n_omega), np.zeros(g.n_gamma))
    solution, report = run_monotone(s0, g, p, StepConfig(dt=0.05), 0.5)
    assert report.k_final == 1
    assert report.bounds == (0.0, 0.0)
    for s in solution:
        assert np.all(s.u == 0.0)
        assert np.all(s.v == 0.0)
    assert check_sandwich(report).passed


def test_equilibrium_start_is_sandwiched_fixed_point():
    g = build_interval(10, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    eq = solve_equilibrium(p, g, 3.0)
    s0 = equilibrium_state(eq, g)
    tol = 1e-8
    solution, report = run_monotone(s0, g, p, StepConfig(dt=0.05), 0.5,
                                    outer_tol=tol)
    gaps = np.asarray(report.gaps)
    assert np.all(np.diff(gaps) < 0.0)
    for s in solution:
        assert np.max(np.abs(s.u - eq.u_inf)) <= 10 * tol
        assert np.max(np.abs(s.v - eq.v_inf)) <= 10 * tol
    assert check_sandwich(report).passed


def test_monotone_limit_matches_newton_trajectory():
    g = build_interval(20, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    cfg = StepConfig(dt=0.01)
    tol = 1e-8
    solution, report = run_monotone(s0, g, p, cfg, 0.5, outer_tol=tol)
    assert report.k_final == 20  # the criterion-6 instance
    assert check_sandwich(report).passed

    newton = [s0.copy()]
    integrate(s0.copy(), g, p, cfg, 0.5, observer=lambda s: newton.append(s.copy()))
    assert len(newton) == len(solution)
    worst = 0.0
    for a, b in zip(solution, newton):
        worst = max(worst, float(np.max(np.abs(a.u - b.u))),
                    float(np.max(np.abs(a.v - b.v))))
    assert worst <= max(10 * tol, 1e-6)


def _spy_sweeps(monkeypatch, swap=False):
    """Record each yielded sweep with the one before it as pair stacks split
    at n_Omega into (prev_u, prev_v, new_u, new_v), each [time, sequence,
    cell] with the lower sequence first; with swap, hand each yielded stack
    on with its two sequences exchanged."""
    sweeps = []
    real = monotone._sweeps

    def spy(z0, prev, stepper, *args):
        n_u = stepper.geom.n_omega
        for new in real(z0, prev, stepper, *args):
            if swap:
                new = new[:, ::-1]
            sweeps.append((prev[..., :n_u], prev[..., n_u:],
                           new[..., :n_u], new[..., n_u:]))
            prev = new
            yield new

    monkeypatch.setattr(monotone, "_sweeps", spy)
    return sweeps


def test_iterates_stay_inside_bounding_box(monkeypatch):
    sweeps = _spy_sweeps(monkeypatch)
    g = build_periodic_strip(8, 4, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=2.0, delta_u=1.0, delta_v=1.0)
    rng = np.random.default_rng(2)
    s0 = State(rng.uniform(0.0, 1.5, g.n_omega), rng.uniform(0.0, 1.5, g.n_gamma))
    _, report = run_monotone(s0, g, p, StepConfig(dt=0.05), 0.5)
    assert len(sweeps) == report.k_final
    a_bound, b_bound = report.bounds
    eps = 1e-9 * max(1.0, a_bound, b_bound)
    for pair_u, pair_v in [sweeps[0][:2]] + [s[2:] for s in sweeps]:
        assert np.min(pair_u[:, 0]) >= -eps
        assert np.min(pair_v[:, 0]) >= -eps
        assert np.max(pair_u[:, 1]) <= a_bound + eps
        assert np.max(pair_v[:, 1]) <= b_bound + eps


def test_gap_sequence_monotone_under_slack():
    g = build_periodic_strip(6, 3, 1.0, 1.0)
    p = ModelParams(alpha=2.0, beta=3.0, delta_u=1.0, delta_v=0.5)
    rng = np.random.default_rng(4)
    s0 = State(rng.uniform(0.2, 2.0, g.n_omega), rng.uniform(0.2, 2.0, g.n_gamma))
    _, report = run_monotone(s0, g, p, StepConfig(dt=0.05), 0.4)
    gaps = np.asarray(report.gaps)
    scale = max(1.0, *report.bounds)
    assert np.all(np.diff(gaps) <= 1e-9 * scale)


def test_nonconvergence_raises_with_gap_history():
    g = build_interval(10, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    with pytest.raises(MonotoneConvergenceError) as exc_info:
        run_monotone(s0, g, p, StepConfig(dt=0.05), 0.5,
                     outer_tol=1e-14, k_max=3)
    gaps = exc_info.value.gaps
    assert len(gaps) == 4  # starting gap plus one per sweep
    assert all(gap >= 0.0 for gap in gaps)


def test_monotone_times_match_integrate_on_uneven_horizon():
    # 0.5 is not a multiple of 0.03: both round to 17 steps of 0.5/17
    g = build_interval(6, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.5))
    cfg = StepConfig(dt=0.03)
    _, report = run_monotone(s0, g, p, cfg, 0.5)
    seen = []
    integrate(s0, g, p, cfg, 0.5, observer=lambda s: seen.append(s.time))
    assert len(seen) == 17
    assert report.times[1:].tolist() == seen


def test_huge_tolerance_accepts_single_sweep():
    g = build_interval(6, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.5))
    _, report = run_monotone(s0, g, p, StepConfig(dt=0.1), 0.2,
                             outer_tol=100.0, k_max=1)
    assert report.k_final == 1
    assert check_sandwich(report).passed


def test_sandwich_margins_hold_every_sweep(monkeypatch):
    sweeps = _spy_sweeps(monkeypatch)
    g = build_interval(10, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    _, report = run_monotone(s0, g, p, StepConfig(dt=0.05), 0.3)
    verdict = check_sandwich(report)
    assert len(report.margins) == report.k_final
    assert min(min(triple) for triple in report.margins) == \
        verdict.worst_violation

    def worst(below, above):  # (u, v) stacks of one sequence each
        return min(np.min(above[0] - below[0]), np.min(above[1] - below[1]))

    for (prev_u, prev_v, new_u, new_v), triple in zip(sweeps, report.margins):
        prev_lo = (prev_u[:, 0], prev_v[:, 0])
        prev_hi = (prev_u[:, 1], prev_v[:, 1])
        lo, hi = (new_u[:, 0], new_v[:, 0]), (new_u[:, 1], new_v[:, 1])
        assert triple == (worst(prev_lo, lo), worst(lo, hi),
                          worst(hi, prev_hi))


def test_sandwich_flags_swapped_stacks(monkeypatch):
    _spy_sweeps(monkeypatch, swap=True)
    g = build_interval(10, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    _, report = run_monotone(s0, g, p, StepConfig(dt=0.05), 0.3)
    verdict = check_sandwich(report)
    assert not verdict.passed
    assert verdict.worst_violation < 0.0
    assert verdict.ordering in ("lower_nondecreasing", "lower_below_upper",
                                "upper_nonincreasing")


def test_sandwich_requires_two_iterates():
    from volsurf.monotone import IterationReport
    with pytest.raises(ValueError):
        check_sandwich(IterationReport(times=np.array([0.0, 0.1])))


def test_run_monotone_validation():
    g = build_interval(5, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    good = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    cfg = StepConfig(dt=0.1)
    with pytest.raises(ValueError):
        run_monotone(State(np.ones(3), np.ones(2)), g, p, cfg, 0.5)
    with pytest.raises(ValueError):
        run_monotone(good, g, p, cfg, 0.0)
    with pytest.raises(ValueError):
        run_monotone(good, g, p, cfg, 0.5, outer_tol=0.0)
    with pytest.raises(ValueError):
        run_monotone(good, g, p, cfg, 0.5, outer_tol=float("nan"))
    with pytest.raises(ValueError):
        run_monotone(good, g, p, cfg, 0.5, k_max=0)


def _sequential_sweep(s0, prev_u, prev_v, g, p, cfg, l_u, l_v):
    """One sweep of a single sequence through the one-shot linear steps."""
    u = [s0.u]
    v = [s0.v]
    for n in range(len(prev_u) - 1):
        ut = trace(prev_u[n + 1], g)
        vt = prev_v[n + 1]
        u_new, _ = linear_bulk_step(u[-1], p.alpha * l_u,
                                    shifted_f(p, l_u, ut, vt), g, p, cfg)
        u.append(u_new)
        v.append(linear_surface_step(v[-1], p.beta * l_v,
                                     shifted_g(p, l_v, ut, vt), g, p, cfg))
    return np.array(u), np.array(v)


def _cosine_state(g, u0, v0, amp):
    return State(u0 + amp * np.cos(2.0 * np.pi * g.omega_unit_coord),
                 v0 + amp * np.cos(2.0 * np.pi * g.gamma_unit_coord))


@pytest.mark.parametrize("case", ["interval", "strip"])
def test_lockstep_sweep_matches_sequential_one_shot_sweeps(monkeypatch, case):
    sweeps = _spy_sweeps(monkeypatch)
    # delta_v = 0 on the interval (diagonal surface block), delta_v > 0 on
    # the strip (coupled surface block)
    if case == "interval":
        g = build_interval(20, 1.0)
        p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
        s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    else:
        g = build_periodic_strip(8, 4, 2.0, 1.0)
        p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.1)
        s0 = _cosine_state(g, 1.0, 0.5, 0.39)
    _, report = run_monotone(s0, g, p, StepConfig(dt=0.01), 0.1,
                             outer_tol=1e-6)
    assert report.k_final >= 3
    assert len(sweeps) == report.k_final
    cfg = StepConfig(dt=report.times[1] - report.times[0])
    l_u, l_v = lipschitz_bounds(p, *report.bounds)
    worst = 0.0
    for prev_u, prev_v, new_u, new_v in sweeps:
        for j in (0, 1):  # lower, upper
            ref_u, ref_v = _sequential_sweep(s0, prev_u[:, j], prev_v[:, j],
                                             g, p, cfg, l_u, l_v)
            scale = max(np.max(np.abs(ref_u)), np.max(np.abs(ref_v)))
            worst = max(worst,
                        np.max(np.abs(new_u[:, j] - ref_u)) / scale,
                        np.max(np.abs(new_v[:, j] - ref_v)) / scale)
    assert worst <= 1e-12


def _rows_per_step(monkeypatch):
    """Record the number of z-rows of every linear step call."""
    rows = []
    real = stepper_module._LinearStepper.step

    def spy(self, z_old, *sources):
        rows.append(z_old[..., 0].size)
        return real(self, z_old, *sources)

    monkeypatch.setattr(stepper_module._LinearStepper, "step", spy)
    return rows


def _strip_case(nx, ny, amplitude):
    g = build_periodic_strip(nx, ny, 2.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.1)
    return g, p, _cosine_state(g, 1.0, 0.5, amplitude)


@pytest.mark.parametrize("case, t_horizon, k_final", [
    ("interval", 0.5, 20),  # the criterion-6 instance
    ("strip", 0.2, 15),
    ("benchmark strip", 0.25, 19),  # the monotone-strip workload, seed 1
])
def test_pipelined_sweeps_match_one_at_a_time(monkeypatch, case, t_horizon,
                                              k_final):
    if case == "interval":
        g = build_interval(20, 1.0)
        p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
        s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    elif case == "strip":
        g, p, s0 = _strip_case(8, 4, 0.39)
    else:
        g, p, s0 = _strip_case(32, 16, -0.3918194605894562)
    rows = _rows_per_step(monkeypatch)

    def run():
        rows.clear()
        solution, report = run_monotone(s0, g, p, StepConfig(dt=0.01),
                                        t_horizon, outer_tol=1e-8)
        return solution, report, list(rows)

    width = monotone._SWEEPS_IN_FLIGHT
    assert width > 1
    pipelined, report, rows_pipelined = run()
    monkeypatch.setattr(monotone, "_SWEEPS_IN_FLIGHT", 1)
    one_at_a_time, reference, rows_sequential = run()

    assert max(rows_sequential) == 2
    assert max(rows_pipelined) == 2 * width
    assert len(rows_pipelined) < len(rows_sequential)
    assert reference.k_final == k_final
    assert report.k_final == reference.k_final
    assert report.gaps == reference.gaps
    assert report.margins == reference.margins

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    for name in ("lower_u", "lower_v", "upper_u", "upper_v"):
        assert close(getattr(report, name), getattr(reference, name))
    for s, ref in zip(pipelined, one_at_a_time):
        assert close(np.concatenate([s.u, s.v]),
                     np.concatenate([ref.u, ref.v]))


def test_sweep_cap_bounds_the_sweeps_in_flight(monkeypatch):
    rows = _rows_per_step(monkeypatch)
    g = build_interval(10, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(g.n_omega), np.zeros(g.n_gamma))
    with pytest.raises(MonotoneConvergenceError) as exc_info:
        run_monotone(s0, g, p, StepConfig(dt=0.05), 0.5, outer_tol=1e-300,
                     k_max=2)
    assert len(exc_info.value.gaps) == 3
    assert max(rows) == 2 * 2  # two sweeps of two sequences, never more


# one factor holds the bulk and the surface matrix, with or without surface
# diffusion: the fast-diagonalization factor on the strip, SuperLU on the disk
@pytest.mark.parametrize("delta_v", [0.1, 0.0])
@pytest.mark.parametrize("geometry, fast", [
    (lambda: build_periodic_strip(8, 4, 2.0, 1.0), True),
    (lambda: build_polar_disk(4, 8, 1.0), False)], ids=["strip", "disk"])
def test_run_factors_once_whatever_the_sweep_count(monkeypatch, geometry,
                                                   fast, delta_v):
    factors = []
    real_factor = linsolve.factor

    def counting_factor(*args, **kwargs):
        factors.append(real_factor(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(linsolve, "factor", counting_factor)
    g = geometry()
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=delta_v)
    _, report = run_monotone(_cosine_state(g, 1.0, 0.5, 0.39), g, p,
                             StepConfig(dt=0.02), 0.2)
    assert report.k_final > 5
    assert len(factors) == 1
    assert isinstance(factors[0], linsolve._FastDiagonalization) == fast


# ------------------------------------------------------- comparison principle


def test_comparison_identical_states():
    g = build_interval(8, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.5))
    verdict, = comparison_pairs([(s.copy(), s.copy())], g, p,
                                StepConfig(dt=0.05), 0.5)
    assert verdict.passed
    assert abs(verdict.worst_violation) <= 1e-10


def test_comparison_ordered_pair_stays_ordered():
    g = build_periodic_strip(8, 4, 1.0, 1.0)
    p = ModelParams(alpha=1.0, beta=2.0, delta_u=1.0, delta_v=1.0)
    rng = np.random.default_rng(13)
    low = State(rng.uniform(0.1, 1.0, g.n_omega), rng.uniform(0.1, 1.0, g.n_gamma))
    high = State(low.u + 0.5, low.v + 0.5)
    verdict, = comparison_pairs([(low, high)], g, p, StepConfig(dt=0.02), 0.5)
    assert verdict.passed
    assert verdict.worst_violation >= -1e-8


def test_comparison_zero_floor_keeps_solutions_nonnegative():
    g = build_interval(10, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    zero = State(np.zeros(g.n_omega), np.zeros(g.n_gamma))
    rng = np.random.default_rng(17)
    high = State(rng.uniform(0.0, 2.0, g.n_omega), rng.uniform(0.0, 2.0, g.n_gamma))
    verdict, = comparison_pairs([(zero, high)], g, p, StepConfig(dt=0.02), 0.5)
    assert verdict.passed


def test_comparison_validation():
    g = build_interval(5, 1.0)
    p = ModelParams(alpha=1.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    low = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    high = State(np.zeros(g.n_omega), np.zeros(g.n_gamma))
    with pytest.raises(ValueError):
        comparison_pairs([(low, high)], g, p, StepConfig(dt=0.1), 0.5)
    shifted = State(np.ones(g.n_omega) * 2.0, np.ones(g.n_gamma), time=1.0)
    with pytest.raises(ValueError):
        comparison_pairs([(low, shifted)], g, p, StepConfig(dt=0.1), 0.5)


def test_comparison_factors_once_per_pair(monkeypatch):
    built = []
    real_init = _CoupledStepper.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(_CoupledStepper, "__init__", counting_init)
    g = build_periodic_strip(8, 4, 1.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    low = State(np.full(g.n_omega, 0.5), np.full(g.n_gamma, 0.5))
    high = State(np.full(g.n_omega, 1.5), np.full(g.n_gamma, 1.0))
    verdict, = comparison_pairs([(low, high)], g, p, StepConfig(dt=0.05), 0.5)
    assert verdict.passed
    assert len(built) == 1


def test_comparison_pairs_match_one_pair_experiments():
    g = build_periodic_strip(8, 4, 1.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    rng = np.random.default_rng(29)
    pairs = []
    for shift in (0.0, 0.5, 2.0):
        low = State(rng.uniform(0.0, 1.0, g.n_omega),
                    rng.uniform(0.0, 1.0, g.n_gamma))
        pairs.append((low, State(low.u + shift, low.v + shift)))
    cfg = StepConfig(dt=0.05)
    together = comparison_pairs(pairs, g, p, cfg, 0.5)
    assert together == [comparison_pairs([pair], g, p, cfg, 0.5)[0]
                        for pair in pairs]
    assert len({v.worst_violation for v in together}) == 3


def test_marched_pair_matches_separate_integrations():
    g = build_periodic_strip(16, 8, 1.0, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.5)
    rng = np.random.default_rng(23)
    low = State(rng.uniform(0.0, 1.0, g.n_omega), rng.uniform(0.0, 1.0, g.n_gamma))
    high = State(low.u + rng.uniform(0.0, 1.0, g.n_omega),
                 low.v + rng.uniform(0.0, 1.0, g.n_gamma))
    cfg = StepConfig(dt=0.02)
    marched = list(_march((low, high), g, (p, p), cfg, 0.3))
    assert len(marched) == 15
    for j, s0 in enumerate((low, high)):
        alone = []
        integrate(s0, g, p, cfg, 0.3, observer=alone.append)
        assert len(alone) == len(marched)
        for (time, z), ref in zip(marched, alone):
            assert time == ref.time
            assert np.array_equal(z[j, :g.n_omega], ref.u)
            assert np.array_equal(z[j, g.n_omega:], ref.v)


def test_comparison_propagates_step_failure():
    # the low state is a fixed point; one Newton iteration cannot carry the
    # high state through a long step, so the first step fails
    g = build_interval(4, 1.0)
    p = ModelParams(alpha=3.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    low = State(np.zeros(g.n_omega), np.zeros(g.n_gamma))
    high = State(np.full(g.n_omega, 5.0), np.zeros(g.n_gamma))
    cfg = StepConfig(dt=10.0, newton_max_iter=1, newton_tol=1e-14)
    integrate(low, g, p, cfg, 30.0)
    with pytest.raises(StepFailure) as exc_info:
        comparison_pairs([(low, high)], g, p, cfg, 30.0)
    assert exc_info.value.time == 0.0
