"""Direct solves for the implicit time steps.

Two factors, one contract: `factor` returns an object whose .solve(rhs)
takes rhs of shape (n,) or (n, m), for reuse across right-hand sides, so a
caller whose matrix is fixed factors once and solves many times.

- Fast diagonalization (Lynch, Rice and Thomas, Numer. Math. 1964), when
  the matrix is exactly a Kronecker sum over consecutive periodic rings of
  L unknowns, L the column of row 0's farthest entry (its coupling to the
  next ring): the banded sum rebuilt from each ring's diagonal, ring
  coupling and next-ring coupling at its first cell equals the matrix, and
  every ring of a chain of coupled rings has the same ring coupling. Then
  A = (V x Q) diag(lam) (V x Q)^T with Q the real Fourier modes of the ring
  and V the eigenbasis of the chain operator across the rings, both dense,
  and a solve is four small matrix products per column. The strip's
  implicit matrices meet this bit for bit; the disk's, whose ring couplings
  scale with 1/r, do not. The fast factor is taken only while its bases
  hold at most _BASIS_PER_UNKNOWN numbers per unknown, so a long thin strip
  keeps SuperLU.
- Otherwise a sparse LU factorization (SuperLU, minimum-degree ordering on
  A^T + A) of the assembled matrix.

`solve` is the one-shot form and always takes SuperLU. `solve` verifies the
true residual, and the linear steppers that reuse a factorization do so
through `check_residual` (Newton checks its own nonlinear residual instead),
so a singular or near-singular system raises instead of returning garbage.
Identical inputs give bit-identical outputs, and each column of a
multi-column solve rounds as it would alone.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolverError

__all__ = ["SolveMethod", "SolveStats", "assemble_shifted", "check_residual",
           "factor", "solve"]


class SolveMethod(Enum):
    # a single member; kept because perfbench/tracing.py reads stats.method.value
    DIRECT = "direct"


@dataclass(frozen=True)
class SolveStats:
    residual_norm: float
    method: SolveMethod = SolveMethod.DIRECT


def assemble_shifted(op: sp.spmatrix, diag_shift: np.ndarray,
                     scale: float) -> sp.csr_matrix:
    """Return diag(diag_shift) - scale*op as CSR.

    The caller guarantees op is symmetric negative semidefinite; with
    diag_shift > 0 and scale >= 0 the result is symmetric positive definite.
    """
    diag_shift = np.asarray(diag_shift, dtype=float)
    n = op.shape[0]
    if op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    if diag_shift.shape != (n,):
        raise ValueError(
            f"diag_shift has shape {diag_shift.shape}, expected ({n},)")
    if np.any(diag_shift <= 0):
        raise ValueError("diag_shift must be strictly positive")
    if scale < 0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    return sp.csr_matrix(sp.diags(diag_shift) - scale * op)


# the most numbers the fast factor's two dense bases may hold per unknown:
# a strip of nx x ny cells needs (ny + 2)^2 + nx^2, under 3 per unknown
# while nx and ny are within a factor 2 of each other
_BASIS_PER_UNKNOWN = 8


class _FastDiagonalization:
    """Solves with A = (V x Q) diag(lam) (V x Q)^T, unknown i = r*len + k
    the cell k of ring r: V (rings x rings) and Q (len x len) orthogonal,
    lam[r, k] an eigenvalue of A."""

    def __init__(self, v, q, lam):
        self.vt, self.v = np.ascontiguousarray(v.T), v
        self.q, self.qt = q, np.ascontiguousarray(q.T)
        self.lam = lam

    def solve(self, rhs):
        # one (rings, len) matrix per column, each its own matrix product,
        # so a column rounds as it would alone
        x = np.asarray(rhs, dtype=float).T.reshape(-1, *self.lam.shape)
        y = self.vt @ x @ self.q
        y /= self.lam
        return (self.v @ y @ self.qt).reshape(np.shape(rhs)[::-1]).T


def _ring_modes(ring_len: int):
    """The real Fourier modes of a periodic ring as the orthonormal columns
    of q, the eigenvectors of its Laplacian 2I - C, and their eigenvalues
    4 sin^2(pi k / ring_len): cosines for k = 0 .. ring_len // 2, then
    sines for k = 1 .. (ring_len - 1) // 2."""
    n_cos = ring_len // 2 + 1
    k = np.concatenate([np.arange(n_cos), np.arange(1, ring_len - n_cos + 1)])
    angle = 2.0 * np.pi / ring_len * np.outer(np.arange(ring_len), k)
    q = np.concatenate([np.cos(angle[:, :n_cos]), np.sin(angle[:, n_cos:])],
                       axis=1)
    theta = 4.0 * np.sin(np.pi / ring_len * k) ** 2
    return q / np.linalg.norm(q, axis=0), theta


def _fast_diagonalization(a: sp.spmatrix):
    """The _FastDiagonalization of a, or None unless a is exactly a
    Kronecker sum over consecutive periodic rings (see the module docstring)
    with finite, nonzero eigenvalues and small enough bases."""
    a = sp.csr_matrix(a)
    n = a.shape[0]
    # row 0's farthest entry couples it to the same cell of the next ring
    ring_len = int(a.indices[:a.indptr[1]].max(initial=0)) if n else 0
    if a.shape != (n, n) or ring_len < 3 or n % ring_len:
        return None
    rings = n // ring_len
    if (rings ** 2 + ring_len ** 2 > _BASIS_PER_UNKNOWN * n
            or not np.isfinite(a.data).all()):
        return None
    # each ring's diagonal, ring coupling and coupling to the next ring, read
    # at its first cell
    d, e, f = (a.diagonal(k)[::ring_len] for k in (0, 1, ring_len))
    ring = np.repeat(e, ring_len)
    ring[ring_len - 1::ring_len] = 0.0
    wrap = np.zeros(n - ring_len + 1)
    wrap[::ring_len] = e
    chain = np.repeat(f, ring_len)
    kron_sum = sp.diags(
        [np.repeat(d, ring_len), ring[:-1], ring[:-1], wrap, wrap, chain, chain],
        [0, 1, -1, ring_len - 1, 1 - ring_len, ring_len, -ring_len],
        shape=(n, n), format="csr")
    if (kron_sum != a).nnz:
        return None
    # chains of rings coupled to their neighbours; each has one ring coupling
    # and its own block of V
    starts = np.flatnonzero(np.concatenate([[True], f == 0]))
    bounds = np.append(starts, rings)
    if not (e == np.repeat(e[starts], np.diff(bounds))).all():
        return None
    # a = t x I + I x (-e)(2I - C), C the ring adjacency: t is the chain
    # operator with the ring's diagonal 2e moved into it, so the constant
    # mode's eigenvalue -e * 0 is exact instead of a cancellation
    t = np.diag(d + 2.0 * e) + np.diag(f, 1) + np.diag(f, -1)
    v = np.zeros((rings, rings))
    mu = np.empty(rings)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mu[lo:hi], v[lo:hi, lo:hi] = np.linalg.eigh(t[lo:hi, lo:hi])
    q, theta = _ring_modes(ring_len)
    lam = mu[:, None] - e[:, None] * theta
    # a zero eigenvalue is SuperLU's to report
    if not lam.all():
        return None
    return _FastDiagonalization(v, q, lam)


def _superlu(a: sp.spmatrix):
    """The sparse LU of a: a CSC matrix is factored without a copy;
    minimum-degree ordering on A^T + A suits the symmetric implicit matrices
    (29% fewer factor nonzeros than the default COLAMD on Newton's K on an
    8x16 disk). Raises LinearSolverError if SuperLU finds a exactly
    singular."""
    try:
        return spla.splu(sp.csc_matrix(a), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise LinearSolverError(f"sparse LU failed: {exc}",
                                stats=SolveStats(float("inf"))) from exc


def factor(a: sp.spmatrix):
    """A factor of the square matrix a whose .solve(rhs) takes rhs of shape
    (n,) or (n, m): the fast diagonalization when a is a Kronecker sum over
    consecutive periodic rings, found in a itself (see the module
    docstring), otherwise SuperLU's sparse LU."""
    fast = _fast_diagonalization(a)
    return _superlu(a) if fast is None else fast


def check_residual(a: sp.spmatrix, x: np.ndarray, rhs: np.ndarray,
                   tol: float) -> SolveStats:
    """Verify a solution of A x = rhs column by column.

    Returns SolveStats with the largest true residual ||Ax - rhs||_2 over the
    columns. Raises LinearSolverError (stats attached) unless every column
    meets ||Ax - rhs|| <= tol*||rhs|| with finite values.
    """
    # one dot per column, over the columns as rows of the transposes; cheaper
    # than np.linalg.norm(..., axis=0), which squares into a copy and sums
    # across the strides
    r = (a @ x - rhs).T
    res = np.sqrt(np.vecdot(r, r))
    target = tol * np.sqrt(np.vecdot(rhs.T, rhs.T))
    stats = SolveStats(float(np.max(res)))
    if not np.all(res <= target):
        raise LinearSolverError(
            f"direct solve missed its tolerance (residual "
            f"{stats.residual_norm:.3e}, target {float(np.max(target)):.3e})",
            stats=stats)
    return stats


def solve(a: sp.spmatrix, rhs: np.ndarray, tol: float = 1e-10):
    """Solve the system A x = rhs with a fresh sparse LU.

    Returns (x, SolveStats). residual_norm in the stats is the recomputed
    true residual ||Ax - rhs||_2. Raises LinearSolverError (with the stats
    attached) if A is singular or the residual misses tol*||rhs||.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    a = sp.csr_matrix(a)
    x = _superlu(a).solve(rhs)
    return x, check_residual(a, x, rhs, tol)
