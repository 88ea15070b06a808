import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volsurf.errors import DegenerateInputError
from volsurf.grid import build_interval, build_periodic_strip
from volsurf.model import (Equilibrium, ModelParams, State, ckp_constant,
                           constant_upper_solution, dissipation, entropy,
                           entropy_decomposition, equilibrium_entropy,
                           equilibrium_from_measures, equilibrium_state,
                           lipschitz_bounds, mass, reaction_F, reaction_G,
                           shifted_f, shifted_g, solve_equilibrium)


def params_for(alpha=1.0, beta=1.0, k_u=1.0, k_v=1.0, delta_u=1.0, delta_v=0.0):
    return ModelParams(alpha=alpha, beta=beta, delta_u=delta_u,
                       delta_v=delta_v, k_u=k_u, k_v=k_v)


# ---------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError):
        params_for(alpha=0.5)
    with pytest.raises(ValueError):
        params_for(beta=0.0)
    with pytest.raises(ValueError):
        params_for(delta_u=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1, beta=1, delta_u=1.0, delta_v=-1.0)
    with pytest.raises(ValueError):
        params_for(k_u=0.0)
    for key in ("alpha", "beta", "delta_u", "delta_v", "k_u", "k_v"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                params_for(**{key: value})


def test_state_validation():
    s = State(np.array([1.0, 2.0]), np.array([0.0]))
    assert s.time == 0.0
    with pytest.raises(ValueError):
        State(np.array([-1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        State(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        State(np.zeros(2), np.zeros(2), time=-0.5)
    for time in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            State(np.zeros(2), np.zeros(2), time=time)
    with pytest.raises(ValueError, match="finite"):
        State(np.array([np.nan, 1.0]), np.array([np.inf]))
    with pytest.raises(ValueError, match="finite"):
        State(np.ones(2), np.array([-np.inf]))
    c = s.copy()
    c.u[0] = 9.0
    assert s.u[0] == 1.0


# ----------------------------------------------------------------- reactions


def test_reaction_examples():
    p = params_for()
    assert reaction_F(p, 2.0, 1.0) == pytest.approx(-1.0)
    assert reaction_G(p, 2.0, 1.0) == pytest.approx(1.0)
    assert reaction_F(p, 3.0, 3.0) == 0.0
    assert reaction_G(p, 0.7, 0.7) == 0.0

    p21 = params_for(alpha=2.0, beta=1.0)
    assert reaction_F(p21, 2.0, 3.0) == pytest.approx(-2.0)

    p13 = params_for(alpha=1.0, beta=3.0, k_u=2.0)
    assert reaction_G(p13, 1.0, 1.0) == pytest.approx(3.0)


def test_reaction_rejects_negative_input():
    p = params_for()
    with pytest.raises(ValueError):
        reaction_F(p, -1.0, 1.0)
    with pytest.raises(ValueError):
        reaction_G(p, 1.0, -0.1)


def test_reaction_vectorizes():
    p = params_for(alpha=2.0, beta=1.0)
    u = np.array([0.0, 1.0, 2.0])
    v = np.array([1.0, 1.0, 3.0])
    f = reaction_F(p, u, v)
    assert f.shape == (3,)
    assert f[2] == pytest.approx(-2.0)



def test_upper_box_overflow_in_log_form():
    # 10**400 overflows although the balanced pair (10, 10) fits a float
    p = params_for(alpha=400.0, beta=400.0)
    a, b = constant_upper_solution(p, 10.0, 1.0)
    assert (a, b) == pytest.approx((10.0, 10.0), rel=1e-12)
    # ... and the mirror image, anchored at the surface supremum
    a, b = constant_upper_solution(p, 1.0, 10.0)
    assert (a, b) == pytest.approx((10.0, 10.0), rel=1e-12)
    with pytest.raises(DegenerateInputError):
        constant_upper_solution(params_for(alpha=400.0), 10.0, 1.0)
    with pytest.raises(DegenerateInputError):
        lipschitz_bounds(p, 10.0, 10.0)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(1.0, 4.0), beta=st.floats(1.0, 4.0),
       k_u=st.floats(0.1, 5.0), k_v=st.floats(0.1, 5.0),
       u=st.floats(0.0, 10.0), v=st.floats(0.0, 10.0))
def test_reaction_antisymmetry(alpha, beta, k_u, k_v, u, v):
    p = params_for(alpha=alpha, beta=beta, k_u=k_u, k_v=k_v)
    f = reaction_F(p, u, v)
    g = reaction_G(p, u, v)
    scale = max(abs(beta * f), abs(alpha * g), 1e-300)
    assert abs(beta * f + alpha * g) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.0, 3.0), beta=st.floats(1.0, 3.0),
       u1=st.floats(0.0, 5.0), u2=st.floats(0.0, 5.0),
       v1=st.floats(0.0, 5.0), v2=st.floats(0.0, 5.0))
def test_quasi_monotonicity(alpha, beta, u1, u2, v1, v2):
    # F falls in u and rises in v; G the other way around
    p = params_for(alpha=alpha, beta=beta)
    ulo, uhi = min(u1, u2), max(u1, u2)
    vlo, vhi = min(v1, v2), max(v1, v2)
    tol = 1e-12
    assert reaction_F(p, uhi, v1) <= reaction_F(p, ulo, v1) + tol
    assert reaction_F(p, u1, vhi) >= reaction_F(p, u1, vlo) - tol
    assert reaction_G(p, uhi, v1) >= reaction_G(p, ulo, v1) - tol
    assert reaction_G(p, u1, vhi) <= reaction_G(p, u1, vlo) + tol


# ---------------------------------------------------------- shifted reactions


def test_lipschitz_examples():
    assert lipschitz_bounds(params_for(alpha=2.0), 3.0, 1.0)[0] == pytest.approx(6.0)
    # exponent zero: the bound is flat in the box size, 0^0 = 1 included
    p = params_for(alpha=1.0, k_u=5.0)
    assert lipschitz_bounds(p, 7.3, 1.0)[0] == pytest.approx(5.0)
    assert lipschitz_bounds(p, 0.0, 1.0)[0] == pytest.approx(5.0)
    p3 = params_for(beta=3.0, k_v=2.0)
    assert lipschitz_bounds(p3, 1.0, 2.0)[1] == pytest.approx(24.0)
    with pytest.raises(ValueError):
        lipschitz_bounds(p, -1.0, 1.0)


def test_shifted_reaction_examples():
    p = params_for()
    assert shifted_f(p, 0.0, 2.0, 1.0) == reaction_F(p, 2.0, 1.0)
    assert shifted_f(p, 1.0, 2.0, 1.0) == pytest.approx(1.0)
    # spot check from a (3,3) box: alpha=2 gives L_u=6, f(., 1) rises
    p21 = params_for(alpha=2.0, beta=1.0)
    lu, _ = lipschitz_bounds(p21, 3.0, 3.0)
    assert lu == pytest.approx(6.0)
    vals = [shifted_f(p21, lu, u, 1.0) for u in (1.0, 2.0, 3.0)]
    assert vals[0] <= vals[1] <= vals[2]


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(1.0, 3.0), beta=st.floats(1.0, 3.0),
       ubar=st.floats(0.1, 5.0), vbar=st.floats(0.1, 5.0),
       t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0),
       s=st.floats(0.0, 1.0))
def test_shifted_reactions_monotone_on_box(alpha, beta, ubar, vbar, t1, t2, s):
    p = params_for(alpha=alpha, beta=beta)
    lu, lv = lipschitz_bounds(p, ubar, vbar)
    u_lo, u_hi = sorted((t1 * ubar, t2 * ubar))
    v = s * vbar
    slack = 1e-10 * (1.0 + lu * ubar + lv * vbar)
    assert shifted_f(p, lu, u_hi, v) >= shifted_f(p, lu, u_lo, v) - slack
    v_lo, v_hi = sorted((t1 * vbar, t2 * vbar))
    u = s * ubar
    assert shifted_g(p, lv, u, v_hi) >= shifted_g(p, lv, u, v_lo) - slack


def test_constant_upper_solution_examples():
    a, b = constant_upper_solution(params_for(), 2.0, 1.0)
    assert (a, b) == pytest.approx((2.0, 2.0))
    a, b = constant_upper_solution(params_for(alpha=2.0, beta=1.0), 1.0, 4.0)
    assert (a, b) == pytest.approx((2.0, 4.0))
    a, b = constant_upper_solution(params_for(k_u=4.0), 1.0, 1.0)
    assert (a, b) == pytest.approx((1.0, 4.0))
    with pytest.raises(DegenerateInputError):
        constant_upper_solution(params_for(), 0.0, 0.0)
    with pytest.raises(ValueError):
        constant_upper_solution(params_for(), -1.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(1.0, 4.0), beta=st.floats(1.0, 4.0),
       k_u=st.floats(0.1, 5.0), k_v=st.floats(0.1, 5.0),
       su=st.floats(0.0, 10.0), sv=st.floats(0.0, 10.0))
# subnormal sv once underflowed the rate comparison and lost domination of v
@example(alpha=1.0, beta=2.0, k_u=1.0, k_v=1.0,
         su=0.0, sv=4.222086420910613e-237)
# a subnormal pair cannot balance its rates to 1e-12; the box is lifted
@example(alpha=1.0, beta=1.0, k_u=3.0, k_v=0.25,
         su=0.0, sv=2.2250738585e-313)
def test_constant_upper_solution_invariants(alpha, beta, k_u, k_v, su, sv):
    if su == 0.0 and sv == 0.0:
        su = 1.0
    p = params_for(alpha=alpha, beta=beta, k_u=k_u, k_v=k_v)
    a, b = constant_upper_solution(p, su, sv)
    assert a >= su * (1.0 - 1e-14)
    assert b >= sv * (1.0 - 1e-14)
    ra = p.k_u * a ** alpha
    rb = p.k_v * b ** beta
    assert abs(ra - rb) <= 1e-12 * max(ra, rb)


# ------------------------------------------------------- mass and equilibrium


def test_mass_examples():
    g = build_interval(4, 1.0)
    ones = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    assert mass(ones, g, params_for()) == pytest.approx(3.0)

    zero = State(np.zeros(g.n_omega), np.zeros(g.n_gamma))
    assert mass(zero, g, params_for()) == 0.0

    s = State(np.ones(g.n_omega), np.full(g.n_gamma, 0.5))
    assert mass(s, g, params_for(alpha=2.0, beta=1.0)) == pytest.approx(3.0)


def test_equilibrium_symmetric_linear_case():
    g = build_interval(6, 1.0)
    eq = solve_equilibrium(params_for(), g, 3.0)
    assert eq.u_inf == pytest.approx(1.0, rel=1e-12)
    assert eq.v_inf == pytest.approx(1.0, rel=1e-12)
    assert eq.mass == 3.0


def test_equilibrium_quadratic_case():
    # alpha=2, beta=1, unit measures, M=3: u + 2u^2 = 3 has positive root 1
    eq = equilibrium_from_measures(params_for(alpha=2.0, beta=1.0), 1.0, 1.0, 3.0)
    assert eq.u_inf == pytest.approx(1.0, rel=1e-12)
    assert eq.v_inf == pytest.approx(1.0, rel=1e-12)


def test_equilibrium_frozen_root():
    # alpha=1, beta=2, |Omega|=2, |Gamma|=1, M=1: balance u = v^2 with mass
    # 4u + v = 1 gives 16u^2 - 9u + 1 = 0, root in (0, 1/4) by the quadratic
    # formula
    u_exact = (9.0 - math.sqrt(17.0)) / 32.0
    v_exact = (math.sqrt(17.0) - 1.0) / 8.0
    assert u_exact == pytest.approx(0.15240294919944812, abs=1e-16)
    eq = equilibrium_from_measures(params_for(alpha=1.0, beta=2.0), 2.0, 1.0, 1.0)
    assert eq.u_inf == pytest.approx(u_exact, rel=1e-12)
    assert eq.v_inf == pytest.approx(v_exact, rel=1e-12)


def test_equilibrium_validation():
    with pytest.raises(ValueError):
        equilibrium_from_measures(params_for(), 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        equilibrium_from_measures(params_for(), 1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        equilibrium_from_measures(params_for(), 0.0, 1.0, 1.0)


def bisect_v_side(params, omega, gamma, total_mass):
    """Independent root finder working in the v variable: zero of
    k_v v^beta - k_u u(v)^alpha with u(v) from the mass constraint."""
    bo = params.beta * omega
    ag = params.alpha * gamma

    def g(v):
        u = (total_mass - ag * v) / bo
        return params.k_v * v ** params.beta - params.k_u * u ** params.alpha

    lo, hi = 0.0, total_mass / ag
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_equilibrium_residuals_seeded():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        p = params_for(alpha=rng.uniform(1.0, 4.0), beta=rng.uniform(1.0, 4.0),
                       k_u=rng.uniform(0.2, 5.0), k_v=rng.uniform(0.2, 5.0))
        omega = rng.uniform(0.3, 4.0)
        gamma = rng.uniform(0.3, 4.0)
        m = rng.uniform(0.1, 10.0)
        eq = equilibrium_from_measures(p, omega, gamma, m)
        ru = p.k_u * eq.u_inf ** p.alpha
        rv = p.k_v * eq.v_inf ** p.beta
        assert abs(ru - rv) <= 1e-12 * max(ru, rv)
        m_back = p.beta * omega * eq.u_inf + p.alpha * gamma * eq.v_inf
        assert abs(m_back - m) <= 1e-12 * m
        v_oracle = bisect_v_side(p, omega, gamma, m)
        assert abs(eq.v_inf - v_oracle) <= 1e-11 * max(v_oracle, 1e-300)


# -------------------------------------------------------------------- entropy


def test_entropy_examples():
    g = build_interval(4, 1.0)
    p = params_for()
    ones = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    assert entropy(ones, g, p) == pytest.approx(-3.0)

    e = math.e
    es = State(np.full(g.n_omega, e), np.full(g.n_gamma, e))
    assert entropy(es, g, p) == pytest.approx(0.0, abs=1e-12)

    zero = State(np.zeros(g.n_omega), np.zeros(g.n_gamma))
    assert entropy(zero, g, p) == 0.0


def test_entropy_chemical_potentials_example():
    # mu_u = log(e^2)/2 = 1 and mu_v = log(e^-1)/1 = -1: with u = v = 1 the
    # bulk (|Omega| = 1) contributes 1*(0 - 1 + 1) = 0 and the two boundary
    # points (|Gamma| = 2) contribute 2*(0 - 1 - 1) = -4
    g = build_interval(4, 1.0)
    p = params_for(alpha=2.0, beta=1.0, k_u=math.exp(2.0), k_v=math.exp(-1.0))
    ones = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    assert entropy(ones, g, p) == pytest.approx(-4.0, rel=1e-12)


def test_entropy_rejects_mutated_negative_state():
    g = build_interval(4, 1.0)
    s = State(np.ones(g.n_omega), np.ones(g.n_gamma))
    s.u[1] = -0.5
    with pytest.raises(ValueError):
        entropy(s, g, params_for())


def test_equilibrium_entropy_matches_constant_state():
    g = build_interval(5, 1.0)
    for k_u, k_v in ((1.0, 1.0), (5.0, 0.2)):
        p = params_for(alpha=2.0, k_u=k_u, k_v=k_v)
        eq = solve_equilibrium(p, g, 3.0)
        assert equilibrium_entropy(eq, g, p) == pytest.approx(
            entropy(equilibrium_state(eq, g), g, p))


# ---------------------------------------------------------------- dissipation


def test_dissipation_vanishes_at_balance():
    # constant fields with u^alpha = v^beta kill every term
    g = build_interval(5, 2.0)
    p = params_for(alpha=1.0, beta=2.0)
    s = State(np.full(g.n_omega, 4.0), np.full(g.n_gamma, 2.0))
    assert dissipation(s, g, p) == 0.0


def test_dissipation_reaction_term_example():
    # constant u=4, v=1 on the interval: gradient terms vanish and the
    # boundary term is 2*(1-4)*log(1/4) = 6 log 4
    g = build_interval(5, 1.0)
    p = params_for()
    s = State(np.full(g.n_omega, 4.0), np.ones(g.n_gamma))
    assert dissipation(s, g, p) == pytest.approx(6.0 * math.log(4.0), rel=1e-12)


def test_dissipation_reaction_term_with_rate_constants():
    # u=4, v=1: k_u=2, k_v=0.5 give rates 8 and 0.5, so the boundary term is
    # 2*(8 - 0.5)*log(16); k_u=0.5, k_v=2 balance the same state at 2 = 2
    g = build_interval(5, 1.0)
    s = State(np.full(g.n_omega, 4.0), np.ones(g.n_gamma))
    assert dissipation(s, g, params_for(k_u=2.0, k_v=0.5)) == pytest.approx(
        15.0 * math.log(16.0), rel=1e-12)
    assert dissipation(s, g, params_for(k_u=0.5, k_v=2.0)) == 0.0


def test_dissipation_surface_term_follows_delta_v():
    g = build_periodic_strip(8, 3, 1.0, 1.0)
    u = np.ones(g.n_omega)
    v = 1.0 + 0.5 * np.sin(2.0 * np.pi * g.gamma_unit_coord)
    s = State(u, v)
    d0 = dissipation(s, g, params_for(delta_v=0.0))
    d1 = dissipation(s, g, params_for(delta_v=1.0))
    assert d1 > d0


def test_dissipation_finite_where_zero_meets_positive():
    # the exact functional is infinite here; the floored one stays finite
    g = build_interval(2, 1.0)
    s = State(np.array([1.0, 0.0]), np.ones(g.n_gamma))
    assert 0.0 < dissipation(s, g, params_for()) < np.inf


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dissipation_nonnegative(seed):
    rng = np.random.default_rng(seed)
    g = build_periodic_strip(6, 3, 1.0, 1.0)
    s = State(rng.uniform(0.0, 3.0, g.n_omega), rng.uniform(0.0, 3.0, g.n_gamma))
    p = params_for(alpha=rng.uniform(1.0, 3.0), beta=rng.uniform(1.0, 3.0),
                   k_u=rng.uniform(0.1, 10.0), k_v=rng.uniform(0.1, 10.0),
                   delta_v=rng.choice([0.0, 1.0]))
    assert dissipation(s, g, p) >= 0.0


# -------------------------------------------------------- entropy split / CKP


def test_decomposition_zero_at_equilibrium():
    g = build_interval(6, 1.0)
    p = params_for()
    eq = solve_equilibrium(p, g, 3.0)
    i1, i2 = entropy_decomposition(equilibrium_state(eq, g), g, p, eq)
    assert i1 == pytest.approx(0.0, abs=1e-12)
    assert i2 == pytest.approx(0.0, abs=1e-12)


def test_decomposition_constant_state_is_pure_i2():
    g = build_interval(6, 1.0)
    p = params_for()
    eq = solve_equilibrium(p, g, 3.0)
    # same mass as eq but the wrong split between bulk and surface
    s = State(np.full(g.n_omega, 2.0), np.full(g.n_gamma, 0.5))
    assert mass(s, g, p) == pytest.approx(3.0)
    i1, i2 = entropy_decomposition(s, g, p, eq)
    assert i1 == pytest.approx(0.0, abs=1e-12)
    assert i2 > 0.0


def test_decomposition_mixing_term_example():
    # two half cells with u = (2, 0), v = 1: means match the equilibrium so
    # I2 = 0 and I1 = 0.5*2*log 2 = log 2
    g = build_interval(2, 1.0)
    p = params_for()
    eq = solve_equilibrium(p, g, 3.0)
    s = State(np.array([2.0, 0.0]), np.ones(g.n_gamma))
    i1, i2 = entropy_decomposition(s, g, p, eq)
    assert i1 == pytest.approx(math.log(2.0), rel=1e-12)
    assert i2 == pytest.approx(0.0, abs=1e-12)


def test_decomposition_rejects_mass_mismatch():
    g = build_interval(4, 1.0)
    p = params_for()
    eq = solve_equilibrium(p, g, 3.0)
    s = State(np.ones(g.n_omega) * 5.0, np.ones(g.n_gamma))
    with pytest.raises(ValueError):
        entropy_decomposition(s, g, p, eq)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_decomposition_sums_to_relative_entropy(seed):
    rng = np.random.default_rng(seed)
    g = build_periodic_strip(6, 3, 1.0, 1.0)
    # the rate constants enter E only through terms linear in the fields,
    # which cancel at equal mass, so I1 + I2 matches for any k_u, k_v
    p = params_for(alpha=rng.uniform(1.0, 3.0), beta=rng.uniform(1.0, 3.0),
                   k_u=rng.uniform(0.1, 10.0), k_v=rng.uniform(0.1, 10.0))
    s = State(rng.uniform(0.1, 3.0, g.n_omega), rng.uniform(0.1, 3.0, g.n_gamma))
    m = mass(s, g, p)
    eq = solve_equilibrium(p, g, m)
    i1, i2 = entropy_decomposition(s, g, p, eq)
    assert i1 >= -1e-12
    assert i2 >= -1e-12
    e_rel = entropy(s, g, p) - equilibrium_entropy(eq, g, p)
    scale = max(abs(e_rel), 1.0)
    assert abs((i1 + i2) - e_rel) <= 1e-10 * scale


def test_ckp_constant_examples():
    assert ckp_constant(params_for(alpha=1.0, beta=2.0), 4.0) == pytest.approx(1.0 / 32.0)
    assert ckp_constant(params_for(), 1.0) == pytest.approx(1.0 / 8.0)
    assert ckp_constant(params_for(alpha=3.0, beta=2.0), 0.25) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ckp_constant(params_for(), 0.0)


def test_ckp_bound_holds_for_random_states():
    # the inequality itself, checked on explicit states rather than on
    # trajectories: E - E_eq >= c*(||u - u_inf||_1^2 + ||v - v_inf||_1^2),
    # with and without rate constants
    rng = np.random.default_rng(7)
    g = build_interval(8, 1.0)
    for p in [params_for()] * 25 + [params_for(alpha=2.0, k_u=5.0,
                                                k_v=0.2)] * 25:
        s = State(rng.uniform(0.05, 4.0, g.n_omega),
                  rng.uniform(0.05, 4.0, g.n_gamma))
        m = mass(s, g, p)
        eq = solve_equilibrium(p, g, m)
        e_rel = entropy(s, g, p) - equilibrium_entropy(eq, g, p)
        l1u = float(g.omega_weights @ np.abs(s.u - eq.u_inf))
        l1v = float(g.gamma_weights @ np.abs(s.v - eq.v_inf))
        c = ckp_constant(p, m)
        assert e_rel >= c * (l1u ** 2 + l1v ** 2) - 1e-9 * (1.0 + abs(e_rel))
