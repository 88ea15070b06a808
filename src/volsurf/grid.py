"""Finite-volume geometries with a bulk domain and a reactive boundary.

A GridGeometry holds the bulk cell volumes and the boundary patch measures,
the faces of both meshes with their transmissibilities, the trace map from
each patch to its adjacent bulk cell with the trace factors, divergence-form
Laplacians for both meshes, both total measures, and the unit coordinates
that place each cell and patch in [0, 1]. The Laplacians are assembled from
the face lists (two-point flux), so measure-weighted symmetry and zero row
sums hold by construction; the same face lists feed the entropy dissipation
quadratures. Each builder describes only its primary mesh; one constructor
derives the trace factors, Laplacians and measures from it and rejects sizes
that leave the float range.

Conventions:
    - Bulk Laplacian rows discretize the Laplacian with zero-flux outer
      boundaries. Reactive (Robin) boundary terms are injected by the steppers
      through the trace map, never baked into the operator.
    - trace_factors[j] converts a boundary flux density on patch j into a rate
      of change of the adjacent cell average: gamma_weights[j] / omega
      cell volume.
    - The interval is the geometry whose surface has no faces: its boundary
      is two points with counting measure and its surface Laplacian is zero.
      The steppers read the empty gamma_faces to refuse delta_v > 0 there.
    - The builders number the cells ring by ring (ny rows of nx on the
      strip, nr rings of ntheta on the disk) and the patches continue them as
      rings of the same length. That order is what lets linsolve.factor find
      the rings in an implicit matrix and diagonalize it where it is a
      Kronecker sum over them (the strip's); any other order still solves
      correctly, through SuperLU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GridGeometry",
    "build_interval",
    "build_periodic_strip",
    "build_polar_disk",
    "trace",
]


@dataclass(frozen=True)
class GridGeometry:
    """Immutable description of one discretized geometry.

    Fields ending in ``_faces`` list index pairs of adjacent cells;
    ``_face_coeffs`` hold the matching transmissibilities (face measure over
    center distance). ``unit_coord`` arrays map cell centers to [0, 1] along
    the natural tangential coordinate; the initial profiles and the state
    CSV read them.
    """

    omega_weights: np.ndarray        # (n_omega,) cell volumes
    gamma_weights: np.ndarray        # (n_gamma,) patch measures
    trace_cells: np.ndarray          # (n_gamma,) adjacent bulk cell index
    trace_factors: np.ndarray        # (n_gamma,) gamma weight / cell volume
    bulk_laplacian: sp.csr_matrix
    surface_laplacian: sp.csr_matrix
    omega_faces: np.ndarray          # (m, 2) int
    omega_face_coeffs: np.ndarray    # (m,)
    gamma_faces: np.ndarray          # (k, 2) int
    gamma_face_coeffs: np.ndarray    # (k,)
    omega_measure: float
    gamma_measure: float
    omega_unit_coord: np.ndarray = field(repr=False)
    gamma_unit_coord: np.ndarray = field(repr=False)

    @property
    def n_omega(self) -> int:
        return self.omega_weights.shape[0]

    @property
    def n_gamma(self) -> int:
        return self.gamma_weights.shape[0]


def _laplacian_from_faces(n: int, weights: np.ndarray, faces: np.ndarray,
                          coeffs: np.ndarray) -> sp.csr_matrix:
    """Divergence-form Laplacian: L = diag(1/w) K with K the symmetric flux
    matrix built from two-point faces. Empty face list gives the zero matrix."""
    i = faces[:, 0]
    j = faces[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([coeffs, coeffs, -coeffs, -coeffs])
    flux = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    lap = sp.diags(1.0 / weights) @ flux.tocsr()
    return sp.csr_matrix(lap)


def _ring_faces(n_rings: int, ring_len: int) -> np.ndarray:
    """Faces (k, k+1 mod ring_len) of n_rings consecutive periodic rings of
    ring_len cells each, ring by ring."""
    k = np.arange(ring_len)
    base = ring_len * np.arange(n_rings)[:, None]
    return np.column_stack([(base + k).ravel(),
                            (base + (k + 1) % ring_len).ravel()])


def _chain_faces(n: int, stride: int) -> np.ndarray:
    """Faces (i, i + stride) of n cells: neighbours one row (or cell) apart."""
    i = np.arange(n - stride)
    return np.column_stack([i, i + stride])


def _cell_count(*counts: int) -> int:
    n = math.prod(counts)
    if n > np.iinfo(np.intp).max:
        raise ValueError("the grid has more cells than an array can index")
    return n


def _geometry(omega_weights, omega_faces, omega_face_coeffs, gamma_weights,
              trace_cells, gamma_faces, gamma_face_coeffs, omega_unit_coord,
              gamma_unit_coord) -> GridGeometry:
    """The GridGeometry of one primary mesh. Derives the trace factors, both
    Laplacians and both measures, and rejects a mesh whose sizes left the
    float range: every volume, measure, transmissibility and trace factor
    must be finite and positive."""
    trace_factors = gamma_weights / omega_weights[trace_cells]
    omega_measure = float(omega_weights.sum())
    gamma_measure = float(gamma_weights.sum())
    for name, values in (("cell volumes", omega_weights),
                         ("patch measures", gamma_weights),
                         ("bulk transmissibilities", omega_face_coeffs),
                         ("surface transmissibilities", gamma_face_coeffs),
                         ("trace factors", trace_factors),
                         ("measures", np.array([omega_measure, gamma_measure]))):
        if not np.all((values > 0) & (values < np.inf)):
            raise ValueError(f"{name} must be finite and positive; the "
                             f"geometry's sizes are outside the float range")
    # positional in field order: every argument is named after its field
    return GridGeometry(
        omega_weights, gamma_weights, trace_cells, trace_factors,
        _laplacian_from_faces(len(omega_weights), omega_weights, omega_faces,
                              omega_face_coeffs),
        _laplacian_from_faces(len(gamma_weights), gamma_weights, gamma_faces,
                              gamma_face_coeffs),
        omega_faces, omega_face_coeffs, gamma_faces, gamma_face_coeffs,
        omega_measure, gamma_measure, omega_unit_coord, gamma_unit_coord)


# the builders divide in numpy: sizes that leave the float range give inf,
# nan or 0 there instead of an exception, and _geometry rejects those
@np.errstate(all="ignore")
def build_interval(n_cells: int, length: float) -> GridGeometry:
    """Uniform 1D interval [0, length] with two boundary points.

    Boundary patches carry counting measure (weight 1 each); the surface
    Laplacian is identically zero. Requires n_cells >= 2 so the two boundary
    patches touch distinct cells.
    """
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    _cell_count(n_cells)
    h = length / n_cells
    return _geometry(
        np.full(n_cells, h), _chain_faces(n_cells, 1),
        np.full(n_cells - 1, 1.0) / h, np.array([1.0, 1.0]),
        np.array([0, n_cells - 1]), np.zeros((0, 2), dtype=int), np.zeros(0),
        (np.arange(n_cells) + 0.5) * h / length, np.array([0.0, 1.0]))


@np.errstate(all="ignore")
def build_periodic_strip(nx: int, ny: int, width: float,
                         height: float) -> GridGeometry:
    """x-periodic rectangle with reactive bottom and top edges.

    The boundary consists of two periodic rings of nx patches each, ordered
    bottom ring first (j = 0..nx-1) then top ring (j = nx..2nx-1), matching
    the row-major bulk ordering i = iy*nx + ix.
    """
    if nx < 3:
        raise ValueError(f"nx must be >= 3, got {nx}")
    if ny < 2:
        raise ValueError(f"ny must be >= 2, got {ny}")
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    n = _cell_count(nx, ny)
    dx = width / nx
    dy = height / ny

    x = (np.tile(np.arange(nx), ny) + 0.5) * dx
    # x faces: one periodic ring per row; y faces: zero flux at the outer edges
    faces = np.vstack([_ring_faces(ny, nx), _chain_faces(n, nx)])
    coeffs = np.concatenate([np.full(n, dy) / dx, np.full(n - nx, dx) / dy])

    gamma_weights = np.full(2 * nx, dx)
    trace_cells = np.concatenate([np.arange(nx), (ny - 1) * nx + np.arange(nx)])
    # both rings lie at the x of the first two rows' cells
    return _geometry(
        np.full(n, dx * dy), faces, coeffs, gamma_weights, trace_cells,
        _ring_faces(2, nx), 1.0 / gamma_weights, x / width, x[:2 * nx] / width)


@np.errstate(all="ignore")
def build_polar_disk(nr: int, ntheta: int, radius: float) -> GridGeometry:
    """Uniform polar disk with the outer circle as reactive boundary.

    Cells are annular sectors indexed i = ir*ntheta + itheta; the coordinate
    singularity at r = 0 needs no special casing because the innermost radial
    faces have zero measure.
    """
    if nr < 2:
        raise ValueError(f"nr must be >= 2, got {nr}")
    if ntheta < 3:
        raise ValueError(f"ntheta must be >= 3, got {ntheta}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    n = _cell_count(nr, ntheta)
    dr = radius / nr
    dth = 2.0 * np.pi / ntheta

    ir = np.repeat(np.arange(nr), ntheta)
    rc = (ir + 0.5) * dr
    thc = (np.tile(np.arange(ntheta), nr) + 0.5) * dth
    # exact sector volume: 0.5*(r_out^2 - r_in^2)*dth = rc*dr*dth
    weights = rc * dr * dth
    # radial faces at r_face = (ir + 1)*dr, then one azimuthal ring per radius
    faces = np.vstack([_chain_faces(n, ntheta), _ring_faces(nr, ntheta)])
    r_face = (ir[:n - ntheta] + 1) * dr
    coeffs = np.concatenate([r_face * dth / dr, dr / (rc * dth)])

    gamma_weights = np.full(ntheta, radius * dth)
    # the outer ring's patches sit at the angles of every ring's cells
    return _geometry(
        weights, faces, coeffs, gamma_weights,
        (nr - 1) * ntheta + np.arange(ntheta),
        _ring_faces(1, ntheta), 1.0 / gamma_weights,
        thc / (2.0 * np.pi), thc[:ntheta] / (2.0 * np.pi))


def trace(field_u: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Piecewise-constant trace: boundary patch j reads its adjacent cell."""
    field_u = np.asarray(field_u)
    if field_u.shape != (geom.n_omega,):
        raise ValueError(
            f"field has shape {field_u.shape}, expected ({geom.n_omega},)")
    return field_u[geom.trace_cells]
