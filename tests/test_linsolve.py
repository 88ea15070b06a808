import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from volsurf import linsolve
from volsurf.errors import LinearSolverError
from volsurf.grid import build_interval, build_periodic_strip, build_polar_disk
from volsurf.linsolve import (SolveMethod, assemble_shifted, check_residual,
                              factor, solve)
from volsurf.model import ModelParams
from volsurf.stepper import StepConfig, _LinearStepper, _weighted_diffusion


def test_assemble_zero_op_gives_diag():
    op = sp.csr_matrix((3, 3))
    a = assemble_shifted(op, np.ones(3), 1.0)
    assert np.allclose(a.toarray(), np.eye(3))
    a2 = assemble_shifted(op, np.full(3, 2.0), 0.0)
    assert np.allclose(a2.toarray(), 2.0 * np.eye(3))


def test_assemble_scale_zero_ignores_op():
    op = sp.csr_matrix(np.array([[0.0, 5.0], [5.0, 0.0]]))
    a = assemble_shifted(op, np.full(2, 2.0), 0.0)
    assert np.allclose(a.toarray(), 2.0 * np.eye(2))


def test_assemble_interval_operator_is_spd():
    g = build_interval(4, 1.0)
    a = assemble_shifted(g.bulk_laplacian, np.ones(4), 0.1)
    eigs = np.linalg.eigvalsh(a.toarray())
    assert np.all(eigs > 0)


def test_assemble_validation():
    op = sp.csr_matrix((3, 3))
    with pytest.raises(ValueError):
        assemble_shifted(op, np.ones(2), 1.0)
    with pytest.raises(ValueError):
        assemble_shifted(op, np.array([1.0, 0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        assemble_shifted(op, np.ones(3), -0.5)
    with pytest.raises(ValueError):
        assemble_shifted(sp.csr_matrix((2, 3)), np.ones(2), 1.0)


def test_solve_identity():
    a = sp.identity(4, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    x, stats = solve(a, rhs)
    assert np.allclose(x, rhs)
    assert stats.residual_norm <= 1e-10 * np.linalg.norm(rhs)


def test_solve_scaled_identity():
    a = 2.0 * sp.identity(2, format="csr")
    x, _ = solve(a, np.array([4.0, 6.0]))
    assert np.allclose(x, [2.0, 3.0])


def test_solve_tridiagonal_matches_dense():
    rng = np.random.default_rng(3)
    off = -rng.uniform(0.1, 1.0, 7)
    diag = 2.5 + rng.uniform(0.0, 1.0, 8)  # strictly dominant, SPD
    a = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    rhs = rng.uniform(-1.0, 1.0, 8)
    x, stats = solve(a, rhs)
    expected = np.linalg.solve(a.toarray(), rhs)
    assert stats.method is SolveMethod.DIRECT
    assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_two_ring_surface_operator_matches_dense():
    # the strip boundary is two disjoint periodic rings in one matrix
    g = build_periodic_strip(8, 2, 1.0, 1.0)
    a = assemble_shifted(g.surface_laplacian, np.ones(g.n_gamma), 0.05)
    rhs = np.sin(np.arange(g.n_gamma))
    x, stats = solve(a, rhs)
    assert stats.method is SolveMethod.DIRECT
    assert np.allclose(a @ x, rhs, atol=1e-10)
    assert np.max(np.abs(x - np.linalg.solve(a.toarray(), rhs))) <= 1e-12


def test_2d_bulk_operator_solves_to_tolerance():
    # a 2D bulk operator: the requested residual and the dense solution
    g = build_periodic_strip(12, 6, 1.0, 1.0)
    a = assemble_shifted(g.bulk_laplacian, np.full(g.n_omega, 1.0), 0.02)
    rhs = np.cos(np.arange(g.n_omega))
    x, stats = solve(a, rhs, tol=1e-11)
    assert stats.method is SolveMethod.DIRECT
    assert np.linalg.norm(a @ x - rhs) <= 1e-11 * np.linalg.norm(rhs)
    expected = np.linalg.solve(a.toarray(), rhs)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_factor_reused_across_right_hand_sides():
    # the disk's matrices are no Kronecker sums: factor reuses SuperLU
    g = build_polar_disk(8, 16, 1.0)
    a = assemble_shifted(g.bulk_laplacian, np.full(g.n_omega, 2.0), 0.1)
    lu = factor(a)
    assert isinstance(lu, spla.SuperLU)
    b = np.stack([np.arange(g.n_omega, dtype=float),
                  np.sin(np.arange(g.n_omega))], axis=1)
    x = lu.solve(b)
    for col in range(2):
        assert np.array_equal(x[:, col], solve(a, b[:, col])[0])
    stats = check_residual(a, x, b, 1e-10)
    assert stats.residual_norm == pytest.approx(
        np.max(np.linalg.norm(a @ x - b, axis=0)), rel=1e-12, abs=1e-14)


def test_check_residual_rejects_nonfinite_and_inaccurate_columns():
    a = sp.identity(3, format="csr")
    b = np.ones((3, 2))
    with pytest.raises(LinearSolverError):
        check_residual(a, np.array([[1.0, 1.0], [1.0, np.nan], [1.0, 1.0]]),
                       b, 1e-10)
    with pytest.raises(LinearSolverError) as exc_info:
        check_residual(a, np.array([[1.0, 1.0], [1.0, 1.1], [1.0, 1.0]]),
                       b, 1e-10)
    assert exc_info.value.stats.residual_norm == pytest.approx(0.1)


def test_exactly_singular_factorization_raises():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(LinearSolverError) as exc_info:
        factor(a)
    assert exc_info.value.stats.method is SolveMethod.DIRECT
    with pytest.raises(LinearSolverError):
        solve(a, np.ones(2))


def test_reported_residual_matches_recomputation():
    g = build_periodic_strip(10, 5, 1.0, 1.0)
    a = assemble_shifted(g.bulk_laplacian, np.full(g.n_omega, 2.0), 0.1)
    rhs = np.arange(g.n_omega, dtype=float)
    x, stats = solve(a, rhs)
    assert stats.residual_norm == pytest.approx(
        np.linalg.norm(a @ x - rhs), rel=1e-9, abs=1e-14)


def test_zero_rhs_short_circuits():
    g = build_periodic_strip(12, 6, 1.0, 1.0)
    a = assemble_shifted(g.bulk_laplacian, np.ones(g.n_omega), 0.1)
    x, stats = solve(a, np.zeros(g.n_omega))
    assert not x.any()
    assert stats.residual_norm == 0.0


def test_solver_failure_carries_stats():
    # symmetric PSD with the constants in its null space, and rhs = 1 is not
    # in its range: LU either finds it exactly singular or returns a huge
    # solution whose residual misses the target; both must raise
    g = build_periodic_strip(12, 6, 1.0, 1.0)
    k = sp.csr_matrix(sp.diags(g.omega_weights) @ (-g.bulk_laplacian))
    rhs = np.ones(g.n_omega)
    with pytest.raises(LinearSolverError) as exc_info:
        solve(k, rhs, tol=1e-10)
    stats = exc_info.value.stats
    assert stats.method is SolveMethod.DIRECT
    assert stats.residual_norm > 1e-10 * np.linalg.norm(rhs)


def test_solve_rejects_bad_inputs():
    a = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        solve(a, np.ones(4))
    with pytest.raises(ValueError):
        solve(a, np.ones(3), tol=0.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 25), seed=st.integers(0, 10_000))
def test_random_spd_band_matches_dense(n, seed):
    rng = np.random.default_rng(seed)
    off = -rng.uniform(0.0, 1.0, n - 1)
    diag = 2.2 + rng.uniform(0.0, 2.0, n)
    a = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    rhs = rng.uniform(-3.0, 3.0, n)
    x, _ = solve(a, rhs)
    expected = np.linalg.solve(a.toarray(), rhs)
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(x - expected)) <= 1e-9 * scale


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_direct_residual_contract_random(seed):
    rng = np.random.default_rng(seed)
    g = build_periodic_strip(9, 4, 1.0, 1.0)
    shift = rng.uniform(0.5, 3.0, g.n_omega)
    a = assemble_shifted(g.bulk_laplacian, shift, rng.uniform(0.0, 0.5))
    rhs = rng.uniform(-1.0, 1.0, g.n_omega)
    x, stats = solve(a, rhs, tol=1e-10)
    assert np.linalg.norm(a @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert stats.residual_norm == pytest.approx(
        np.linalg.norm(a @ x - rhs), rel=1e-12, abs=1e-15)


# ------------------------------------------------- fast diagonalization


def implicit_matrix(g, kind, delta_v, dt):
    """Newton's K = diag(M/dt) - D, or the certified stepper's matrix with
    its Robin and absorption shifts."""
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=delta_v)
    if kind == "certified":
        return _LinearStepper(g, p, StepConfig(dt=dt), 2.0, 1.5).a
    mass = np.concatenate([g.omega_weights, g.gamma_weights])
    return sp.csr_matrix(sp.diags(mass / dt) - _weighted_diffusion(g, p))


@pytest.mark.parametrize("dt", [0.01, 1.0])
@pytest.mark.parametrize("kind", ["newton", "certified"])
@pytest.mark.parametrize("delta_v", [0.0, 0.4])
@pytest.mark.parametrize("nx, ny", [(3, 2), (5, 3), (16, 8), (64, 32)])
def test_fast_factor_solves_strip_matrices(nx, ny, delta_v, kind, dt):
    g = build_periodic_strip(nx, ny, 2.0, 1.0)
    a = implicit_matrix(g, kind, delta_v, dt)
    lu = factor(a)
    assert isinstance(lu, linsolve._FastDiagonalization)
    rhs = np.random.default_rng(nx).standard_normal((a.shape[0], 3))
    x = lu.solve(rhs)
    assert x.shape == rhs.shape
    assert np.all(np.linalg.norm(a @ x - rhs, axis=0)
                  <= 1e-13 * np.linalg.norm(rhs, axis=0))
    reference = spla.splu(sp.csc_matrix(a)).solve(rhs)
    assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_fast_factor_columns_round_as_one_column_solves():
    g = build_periodic_strip(16, 8, 2.0, 1.0)
    lu = factor(implicit_matrix(g, "newton", 0.5, 0.02))
    rhs = np.random.default_rng(5).standard_normal((g.n_omega + g.n_gamma, 6))
    x = lu.solve(rhs)
    for j in range(rhs.shape[1]):
        column = lu.solve(rhs[:, j].copy())
        assert column.shape == (rhs.shape[0],)
        assert np.array_equal(x[:, j], column)
    # the transposed stack a stepper passes gives the same bits
    assert np.array_equal(lu.solve(np.ascontiguousarray(rhs.T).T), x)


# entries of Newton's K on the 8x4 strip nudged one ulp up, each where the
# detector reads or rebuilds the Kronecker sum: ring 1 holds the unknowns
# 8..15, and its first cell 8 is where its diagonal, ring coupling and
# next-ring coupling are read
NUDGED = {
    "perturbed-strip": [(5, 5)],  # a diagonal not constant along its ring
    "asymmetric-ring-pair": [(5, 6)],
    "wrap-around": [(8, 15), (15, 8)],
    "next-ring": [(13, 21), (21, 13)],
    "previous-ring": [(13, 5)],
    "first-cell-diagonal": [(8, 8)],
    "first-cell-ring": [(8, 9), (9, 8)],
    "first-cell-next-ring": [(8, 16), (16, 8)],
}


def nudged_strip_matrix(entries):
    a = implicit_matrix(build_periodic_strip(8, 4, 2.0, 1.0), "newton", 0.5,
                        0.02)
    assert isinstance(factor(a), linsolve._FastDiagonalization)
    a = a.tolil()
    for ij in entries:
        a[ij] = np.nextafter(a[ij], np.inf)
    return a.tocsr()


@pytest.mark.parametrize("case", ["disk", "interval", "thin-strip", "empty",
                                  "scalar", *NUDGED])
def test_fast_factor_taken_only_for_kronecker_sums(case):
    geometries = {"disk": lambda: build_polar_disk(4, 8, 1.0),
                  "interval": lambda: build_interval(10, 1.0),
                  "thin-strip": lambda: build_periodic_strip(64, 2, 8.0, 0.25)}
    if case in NUDGED:
        a = nudged_strip_matrix(NUDGED[case])
    elif case in geometries:
        a = implicit_matrix(geometries[case](), "newton", 0.0, 0.02)
    else:
        a = {"empty": sp.csr_matrix((0, 0)),
             "scalar": sp.csr_matrix([[2.0]])}[case]
    lu = factor(a)
    assert isinstance(lu, spla.SuperLU)
    rhs = np.random.default_rng(2).standard_normal(a.shape[0])
    assert np.linalg.norm(a @ lu.solve(rhs)) == pytest.approx(
        np.linalg.norm(rhs), rel=1e-12)
