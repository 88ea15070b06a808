import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsurf.grid import (build_interval, build_periodic_strip,
                          build_polar_disk, trace)


def geometries():
    return [
        build_interval(7, 1.3),
        build_interval(2, 2.0),
        build_periodic_strip(5, 4, 1.5, 0.8),
        build_periodic_strip(16, 8, 1.0, 1.0),
        build_polar_disk(3, 7, 1.1),
    ]


@pytest.fixture(params=range(5), ids=["int7", "int2", "strip5x4", "strip16x8",
                                      "disk3x7"])
def geom(request):
    return geometries()[request.param]


def test_interval_basic():
    g = build_interval(4, 1.0)
    # the surface is two points with no faces between them
    assert len(g.gamma_faces) == 0
    assert g.omega_measure == pytest.approx(1.0, abs=0)
    assert g.gamma_measure == 2.0
    assert np.allclose(g.omega_weights, 0.25)
    assert np.array_equal(g.gamma_weights, [1.0, 1.0])
    assert np.array_equal(g.trace_cells, [0, 3])
    assert np.allclose(g.trace_factors, 4.0)  # 1/h
    assert g.surface_laplacian.nnz == 0 or not g.surface_laplacian.toarray().any()


def test_interval_validation():
    with pytest.raises(ValueError):
        build_interval(1, 1.0)
    with pytest.raises(ValueError):
        build_interval(10, 0.0)
    with pytest.raises(ValueError):
        build_interval(10, -2.0)


def test_strip_basic():
    g = build_periodic_strip(4, 2, 1.0, 1.0)
    assert len(g.gamma_faces) == 8  # two periodic rings of nx faces
    assert g.omega_measure == pytest.approx(1.0)
    assert g.gamma_measure == pytest.approx(2.0)
    assert g.n_gamma == 8
    assert np.allclose(g.gamma_weights, 0.25)


def test_strip_validation():
    with pytest.raises(ValueError):
        build_periodic_strip(2, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_periodic_strip(4, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_periodic_strip(4, 4, -1.0, 1.0)


def test_disk_exact_measures():
    g = build_polar_disk(4, 8, 2.0)
    assert len(g.gamma_faces) == 8  # one periodic ring of ntheta faces
    # midpoint-radius sector volumes telescope to the exact disk area
    assert g.omega_measure == pytest.approx(np.pi * 4.0, rel=1e-14)
    assert g.gamma_measure == pytest.approx(4.0 * np.pi, rel=1e-14)


def test_disk_validation():
    with pytest.raises(ValueError):
        build_polar_disk(1, 8, 1.0)
    with pytest.raises(ValueError):
        build_polar_disk(4, 2, 1.0)


def test_weights_positive(geom):
    assert np.all(geom.omega_weights > 0)
    assert np.all(geom.gamma_weights > 0)
    assert geom.omega_measure > 0
    assert geom.gamma_measure > 0
    assert geom.omega_measure == pytest.approx(geom.omega_weights.sum(), rel=1e-14)
    assert geom.gamma_measure == pytest.approx(geom.gamma_weights.sum(), rel=1e-14)


def test_weighted_row_sums_vanish(geom):
    rng = np.random.default_rng(7)
    for lap, w in ((geom.bulk_laplacian, geom.omega_weights),
                   (geom.surface_laplacian, geom.gamma_weights)):
        n = lap.shape[0]
        x = rng.uniform(-1.0, 1.0, n)
        total = w @ (lap @ x)
        assert abs(total) <= 1e-12 * np.max(np.abs(x)) * w.sum()


def test_constant_in_null_space(geom):
    for lap in (geom.bulk_laplacian, geom.surface_laplacian):
        n = lap.shape[0]
        scale = np.max(np.abs(lap.toarray())) if lap.nnz else 1.0
        assert np.max(np.abs(lap @ np.ones(n))) <= 1e-13 * max(scale, 1.0)


def test_measure_weighted_symmetry(geom):
    rng = np.random.default_rng(11)
    for lap, w in ((geom.bulk_laplacian, geom.omega_weights),
                   (geom.surface_laplacian, geom.gamma_weights)):
        n = lap.shape[0]
        x = rng.uniform(-1.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, n)
        lhs = w @ ((lap @ x) * y)
        rhs = w @ (x * (lap @ y))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_offdiagonal_sign(geom):
    # divergence form: nonnegative couplings, nonpositive diagonal
    for lap in (geom.bulk_laplacian, geom.surface_laplacian):
        dense = lap.toarray()
        off = dense - np.diag(np.diag(dense))
        assert np.all(off >= 0)
        assert np.all(np.diag(dense) <= 0)


def test_interval_zero_eigenvalue_constant_mode():
    g = build_interval(10, 1.0)
    eigs = np.sort(np.linalg.eigvals(-g.bulk_laplacian.toarray()).real)
    assert abs(eigs[0]) < 1e-10
    assert eigs[1] > 1.0


def test_interval_quadratic_second_derivative():
    g = build_interval(20, 1.0)
    x = g.omega_unit_coord  # the cell centres themselves at length 1
    second = g.bulk_laplacian @ (x * x)
    # exact for a quadratic away from the zero-flux closures at the ends
    assert np.allclose(second[1:-1], 2.0, atol=1e-10)


@pytest.mark.parametrize("n1, n2", [(2, 3), (7, 4), (16, 9)])
def test_unit_coords_follow_closed_forms(n1, n2):
    # each formula in the builder's order of operations, so equal bitwise
    length, width, radius = 1.3, 1.7, 0.9
    g = build_interval(n1, length)
    h = length / n1
    assert np.array_equal(g.omega_unit_coord,
                          ((np.arange(n1) + 0.5) * h) / length)
    assert np.array_equal(g.gamma_unit_coord, [0.0, 1.0])

    nx, ny = n1 + 1, n2
    g = build_periodic_strip(nx, ny, width, 0.6)
    x = (np.arange(nx) + 0.5) * (width / nx)
    assert np.array_equal(g.omega_unit_coord, np.tile(x, ny) / width)
    assert np.array_equal(g.gamma_unit_coord, np.tile(x, 2) / width)

    nr, ntheta = n1, n2
    g = build_polar_disk(nr, ntheta, radius)
    theta = (np.arange(ntheta) + 0.5) * (2.0 * np.pi / ntheta)
    assert np.array_equal(g.omega_unit_coord,
                          np.tile(theta, nr) / (2.0 * np.pi))
    assert np.array_equal(g.gamma_unit_coord, theta / (2.0 * np.pi))


def test_strip_surface_cos_mode_and_refinement():
    errs = {}
    for nx in (16, 32):
        g = build_periodic_strip(nx, 4, 1.0, 1.0)
        theta = 2.0 * np.pi * g.gamma_unit_coord
        f = np.cos(theta)
        applied = -(g.surface_laplacian @ f)
        exact = (2.0 * np.pi) ** 2 * f
        errs[nx] = np.max(np.abs(applied - exact)) / np.max(np.abs(exact))
    assert errs[16] < 0.05
    assert errs[16] / errs[32] >= 3.5


def test_strip_rings_are_decoupled():
    g = build_periodic_strip(5, 3, 1.0, 1.0)
    dense = g.surface_laplacian.toarray()
    assert not dense[:5, 5:].any()
    assert not dense[5:, :5].any()


def test_trace_constant(geom):
    u = np.full(geom.n_omega, 3.7)
    assert np.allclose(trace(u, geom), 3.7)


def test_trace_interval_adjacency():
    g = build_interval(4, 1.0)
    u = np.arange(4.0)
    assert np.array_equal(trace(u, g), [0.0, 3.0])


def test_trace_strip_rows():
    g = build_periodic_strip(4, 2, 1.0, 1.0)
    u = np.repeat([0.0, 1.0], 4)  # row-major: bottom row then top row
    t = trace(u, g)
    assert np.array_equal(t[:4], np.zeros(4))
    assert np.array_equal(t[4:], np.ones(4))


def test_trace_shape_validation(geom):
    with pytest.raises(ValueError):
        trace(np.zeros(geom.n_omega + 1), geom)


def test_trace_factors_pair_with_weights(geom):
    # w_bulk[adjacent] * factor == w_gamma, the identity behind exact
    # conservation of the boundary exchange
    w_adj = geom.omega_weights[geom.trace_cells]
    assert np.allclose(w_adj * geom.trace_factors, geom.gamma_weights,
                       rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), length=st.floats(0.1, 50.0))
def test_interval_invariants_random(n, length):
    g = build_interval(n, length)
    assert g.omega_measure == pytest.approx(length, rel=1e-12)
    x = np.sin(np.arange(n))
    # conservation is structural; the residual is pure roundoff, which
    # scales with the flux coefficients (1/h), not with the domain size
    flux_scale = np.abs(g.omega_face_coeffs).sum()
    assert abs(g.omega_weights @ (g.bulk_laplacian @ x)) \
        <= 100 * np.finfo(float).eps * np.max(np.abs(x)) * flux_scale


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(3, 12), ny=st.integers(2, 8),
       width=st.floats(0.2, 5.0), height=st.floats(0.2, 5.0))
def test_strip_invariants_random(nx, ny, width, height):
    g = build_periodic_strip(nx, ny, width, height)
    assert g.omega_measure == pytest.approx(width * height, rel=1e-12)
    assert g.gamma_measure == pytest.approx(2.0 * width, rel=1e-12)
    x = np.cos(np.arange(g.n_omega))
    y = np.sin(np.arange(g.n_omega))
    w = g.omega_weights
    lhs = w @ ((g.bulk_laplacian @ x) * y)
    rhs = w @ (x * (g.bulk_laplacian @ y))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
