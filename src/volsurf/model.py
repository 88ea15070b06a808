"""Reaction structure, equilibria and entropy functionals.

The system couples a bulk concentration u and a surface concentration v
through the reversible boundary reaction alpha*u <-> beta*v with power-law
rates:

    F(u, v) = -alpha * (k_u u^alpha - k_v v^beta)   (bulk source on the boundary)
    G(u, v) =  beta  * (k_u u^alpha - k_v v^beta)   (surface source)

so beta*F + alpha*G = 0 pointwise and the weighted total

    M = beta * integral(u over bulk) + alpha * integral(v over surface)

is conserved. The entropy carries the chemical potentials
mu_u = log(k_u)/alpha and mu_v = log(k_v)/beta, so that for any rate
constants -dE/dt is the dissipation D, whose reaction term is
(k_u u^alpha - k_v v^beta) log(k_u u^alpha / (k_v v^beta)) >= 0. With
c = k_u u_inf^alpha = k_v v_inf^beta the linear part of E - E_inf is
(log c / (alpha beta)) (beta <u - u_inf> + alpha <v - v_inf>), which mass
conservation makes 0; the relative entropy and its I1/I2 split therefore
do not depend on the rates.

Every x log y term of the entropy and its split goes through _xlogy, which
follows the convention 0*log 0 = 0: the term is exactly 0 wherever x = 0,
whatever y, and evaluating it raises no floating-point warning.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .grid import GridGeometry

__all__ = [
    "ModelParams",
    "State",
    "Equilibrium",
    "reaction_F",
    "reaction_G",
    "lipschitz_bounds",
    "shifted_f",
    "shifted_g",
    "constant_upper_solution",
    "mass",
    "solve_equilibrium",
    "equilibrium_from_measures",
    "equilibrium_state",
    "equilibrium_entropy",
    "entropy",
    "dissipation",
    "entropy_decomposition",
    "ckp_constant",
]

# floor under arguments of power-law derivatives (flat at 0 for exponent < 1)
DERIVATIVE_FLOOR = 1e-12
# floor under the log arguments and face values of the dissipation
DISSIPATION_FLOOR = 1e-30
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# least common rate k_u A^alpha = k_v B^beta of a constant upper pair, a
# normal float with margin; a subnormal rate cannot be balanced to
# working precision
_RATE_FLOOR = 2.0 ** -1000


@dataclass(frozen=True)
class ModelParams:
    """Stoichiometric exponents, diffusivities and rate constants."""

    alpha: float
    beta: float
    delta_u: float
    delta_v: float = 0.0
    k_u: float = 1.0
    k_v: float = 1.0

    def __post_init__(self):
        # written as range tests, which NaN fails too
        if not (1 <= self.alpha < math.inf and 1 <= self.beta < math.inf):
            raise ValueError(f"exponents must be finite and >= 1, got "
                             f"alpha={self.alpha}, beta={self.beta}")
        if not 0 < self.delta_u < math.inf:
            raise ValueError(
                f"delta_u must be positive and finite, got {self.delta_u}")
        if not 0 <= self.delta_v < math.inf:
            raise ValueError(
                f"delta_v must be nonnegative and finite, got {self.delta_v}")
        if not (0 < self.k_u < math.inf and 0 < self.k_v < math.inf):
            raise ValueError(f"rate constants must be positive and finite, "
                             f"got k_u={self.k_u}, k_v={self.k_v}")


@dataclass
class State:
    """Bulk and surface fields at one instant. Entries must be finite and
    nonnegative."""

    u: np.ndarray
    v: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.ndim != 1 or self.v.ndim != 1:
            raise ValueError("state fields must be one-dimensional arrays")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise ValueError("state fields must be finite")
        if np.any(self.u < 0) or np.any(self.v < 0):
            raise ValueError("state fields must be nonnegative")
        if not 0 <= self.time < math.inf:
            raise ValueError(
                f"time must be finite and nonnegative, got {self.time}")

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.time)


@dataclass(frozen=True)
class Equilibrium:
    """Spatially constant detailed-balance state for a given conserved mass."""

    u_inf: float
    v_inf: float
    mass: float


def _rate(params: ModelParams, u, v):
    """The single-state reaction rate k_u u^a - k_v v^b."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _require_nonnegative("reaction", u, v)
    return params.k_u * u ** params.alpha - params.k_v * v ** params.beta


def reaction_F(params: ModelParams, u, v):
    """Boundary flux density feeding the bulk: -alpha*(k_u u^a - k_v v^b)."""
    return -params.alpha * _rate(params, u, v)


def reaction_G(params: ModelParams, u, v):
    """Surface source: beta*(k_u u^a - k_v v^b) = -(beta/alpha)*F."""
    return params.beta * _rate(params, u, v)


def _power(x: float, exponent: float) -> float:
    """x ** exponent in floats, inf where the result overflows."""
    try:
        return float(x) ** exponent
    except OverflowError:
        return math.inf


def lipschitz_bounds(params: ModelParams, upper_u: float, upper_v: float):
    """One-sided Lipschitz constants of the reaction on [0,upper_u]x[0,upper_v].

    L_u = alpha k_u upper_u^(alpha-1), L_v = beta k_v upper_v^(beta-1), with
    the convention 0^0 = 1 when an exponent vanishes. Raises
    DegenerateInputError when a constant exceeds the float range.
    """
    if upper_u < 0 or upper_v < 0:
        raise ValueError("box bounds must be nonnegative")
    lu = params.alpha * params.k_u * _power(upper_u, params.alpha - 1.0)
    lv = params.beta * params.k_v * _power(upper_v, params.beta - 1.0)
    if not (math.isfinite(lu) and math.isfinite(lv)):
        raise DegenerateInputError(
            f"Lipschitz constants of the reaction on the box "
            f"[0, {upper_u:g}] x [0, {upper_v:g}] overflow")
    return lu, lv


def shifted_f(params: ModelParams, l_u: float, u, v):
    """F plus the stabilizing shift alpha*L_u*u; nondecreasing in both
    arguments on the box that produced L_u."""
    return reaction_F(params, u, v) + params.alpha * l_u * np.asarray(u, dtype=float)


def shifted_g(params: ModelParams, l_v: float, u, v):
    """G plus the stabilizing shift beta*L_v*v; nondecreasing in both
    arguments on the box that produced L_v."""
    return reaction_G(params, u, v) + params.beta * l_v * np.asarray(v, dtype=float)


def _balanced(k_x: float, x: float, e_x: float, k_y: float, e_y: float) -> float:
    """The y >= 0 with k_y y^e_y = k_x x^e_x. Where the direct powers
    overflow or underflow for x > 0, y comes from log form instead, as inf
    if y itself exceeds the float range."""
    y = (k_x * _power(x, e_x) / k_y) ** (1.0 / e_y)
    if x > 0 and not 0.0 < y < math.inf:
        log_y = (math.log(k_x) + e_x * math.log(x) - math.log(k_y)) / e_y
        y = math.exp(log_y) if log_y < _LOG_FLOAT_MAX else math.inf
    return y


def constant_upper_solution(params: ModelParams, sup_u0: float, sup_v0: float):
    """Smallest constant pair (A, B) dominating the initial data with
    balanced rates k_u A^alpha = k_v B^beta, lifted where needed so that A,
    B and the rate stay normal floats (any larger balanced pair is still an
    upper solution). Raises DegenerateInputError for zero data and when the
    pair exceeds the float range."""
    if sup_u0 < 0 or sup_v0 < 0:
        raise ValueError("initial suprema must be nonnegative")
    if sup_u0 == 0 and sup_v0 == 0:
        raise DegenerateInputError(
            "initial data identically zero; no positive constant upper solution")
    # anchor at whichever supremum forces the larger pair; deciding via the
    # implied partner (not the raw rates) keeps subnormal data from
    # underflowing the comparison, and the max guards the mirror image
    p = params
    a = float(sup_u0)
    b = _balanced(p.k_u, a, p.alpha, p.k_v, p.beta)
    if b < sup_v0:
        b = float(sup_v0)
        a = max(a, _balanced(p.k_v, b, p.beta, p.k_u, p.alpha))
    # tiny data would give subnormal (or zero) entries whose rates round
    # apart; lift to the pair of rate floor * max(k_u, k_v, 1), whose entries
    # and their powers are normal. The max only moves a pair already at that
    # rate by its rounding.
    floor = _RATE_FLOOR * max(p.k_u, p.k_v, 1.0)
    a = max(a, (floor / p.k_u) ** (1.0 / p.alpha))
    b = max(b, (floor / p.k_v) ** (1.0 / p.beta))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DegenerateInputError(
            f"no constant upper solution within the float range for initial "
            f"suprema ({sup_u0:g}, {sup_v0:g})")
    return a, b


# Each functional of the fields (mass, entropy, dissipation, the I1/I2 split)
# has one row-wise form on u [row, n_omega], v [row, n_gamma], a block of
# states, and the State-taking public function is its one-row case. A row's
# value must not depend on the block around it. So every inner product is
# np.vecdot, one BLAS dot per row, which rounds as the 1-D `weights @ row`
# does (a matrix-vector product may sum in another order), and cell values
# are gathered with np.take, whose result is C-contiguous (fancy indexing on
# axis 1 need not be, and a row sum over it can round differently).


def _rows(state: State):
    return state.u[None], state.v[None]


def _require_nonnegative(name: str, u: np.ndarray, v: np.ndarray):
    if np.any(u < 0) or np.any(v < 0):
        raise ValueError(f"{name} requires nonnegative fields")


def _mass_rows(u, v, geom: GridGeometry, params: ModelParams) -> np.ndarray:
    return (np.vecdot(params.beta * geom.omega_weights, u)
            + np.vecdot(params.alpha * geom.gamma_weights, v))


def mass(state: State, geom: GridGeometry, params: ModelParams) -> float:
    """Conserved weighted total beta*<u> + alpha*<v>."""
    return float(_mass_rows(*_rows(state), geom, params)[0])


def equilibrium_from_measures(params: ModelParams, omega_measure: float,
                              gamma_measure: float, total_mass: float) -> Equilibrium:
    """Unique constant equilibrium for the given measures and mass.

    Solves k_u u^alpha = k_v v^beta together with
    beta*|Omega|*u + alpha*|Gamma|*v = M by bisection on u in
    (0, M/(beta*|Omega|)), on the sign of the logarithm of that balance,
    which rises monotonically in u and cannot overflow for large exponents
    or data. The bracket is shrunk until both the u and the
    implied v intervals are resolved to 1e-13 relative width (or to float
    resolution), so both residuals come out near machine precision.
    """
    if total_mass <= 0:
        raise ValueError(f"total mass must be positive, got {total_mass}")
    if omega_measure <= 0 or gamma_measure <= 0:
        raise ValueError("measures must be positive")
    bo = params.beta * omega_measure
    ag = params.alpha * gamma_measure

    def v_of(u):
        return (total_mass - bo * u) / ag

    log_k = math.log(params.k_u) - math.log(params.k_v)

    def phi(u):
        v = v_of(u)
        if v <= 0.0:  # rounding next to hi, where the balance is positive
            return 1.0
        return params.alpha * math.log(u) - params.beta * math.log(v) + log_k

    lo, hi = 0.0, total_mass / bo
    # phi < 0 near lo and > 0 near hi: root strictly inside
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution exhausted
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        width = hi - lo
        u_ok = width <= 1e-13 * max(abs(mid), 1e-300)
        v_mid = v_of(mid)
        v_ok = (bo / ag) * width <= 1e-13 * max(abs(v_mid), 1e-300)
        if u_ok and v_ok:
            break
    u_inf = 0.5 * (lo + hi)
    v_inf = v_of(u_inf)
    return Equilibrium(u_inf=float(u_inf), v_inf=float(v_inf),
                       mass=float(total_mass))


def solve_equilibrium(params: ModelParams, geom: GridGeometry,
                      total_mass: float) -> Equilibrium:
    return equilibrium_from_measures(params, geom.omega_measure,
                                     geom.gamma_measure, total_mass)


def equilibrium_state(eq: Equilibrium, geom: GridGeometry, time: float = 0.0) -> State:
    return State(np.full(geom.n_omega, eq.u_inf),
                 np.full(geom.n_gamma, eq.v_inf), time)


def _xlogy(x, y):
    """x * log(y), exactly 0 where x == 0 (0*log 0 = 0). log is taken of y
    as given, before broadcasting, so a y of one value per row costs one log
    per row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def _entropy_rows(u, v, geom: GridGeometry, params: ModelParams,
                  xu, xv) -> np.ndarray:
    """E per row; xu, xv are _xlogy(u, u), _xlogy(v, v)."""
    _require_nonnegative("entropy", u, v)
    mu_u = math.log(params.k_u) / params.alpha
    mu_v = math.log(params.k_v) / params.beta
    return (np.vecdot(geom.omega_weights, xu - u + mu_u * u)
            + np.vecdot(geom.gamma_weights, xv - v + mu_v * v))


def entropy(state: State, geom: GridGeometry, params: ModelParams) -> float:
    """Free energy E = <u(log u - 1 + mu_u)> + <v(log v - 1 + mu_v)>, with
    mu_u = log(k_u)/alpha, mu_v = log(k_v)/beta and 0*log 0 = 0."""
    u, v = _rows(state)
    return float(_entropy_rows(u, v, geom, params, _xlogy(u, u),
                               _xlogy(v, v))[0])


def equilibrium_entropy(eq: Equilibrium, geom: GridGeometry,
                        params: ModelParams) -> float:
    return entropy(equilibrium_state(eq, geom), geom, params)


def _face_quadrature(values: np.ndarray, faces: np.ndarray,
                     coeffs: np.ndarray) -> np.ndarray:
    """Sum of coeff * (jump)^2 / logmean(a, b) per row of values [row, cell],
    the discrete |grad w|^2 / w.

    The logarithmic face mean makes the sum equal to sum coeff * jump *
    (log b - log a), which is exactly the rate at which the two-point-flux
    diffusion operator produces entropy, so dE/dt = -D holds at the
    semi-discrete level and the identity check sees pure time-stepping
    error. Flooring the arguments keeps the sum finite when a cell hits
    zero; each floored term still underestimates the exact integrand."""
    if len(faces) == 0:
        return np.zeros(len(values))
    a = np.maximum(np.take(values, faces[:, 0], axis=1), DISSIPATION_FLOOR)
    b = np.maximum(np.take(values, faces[:, 1], axis=1), DISSIPATION_FLOOR)
    jump = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        logmean = np.where(jump == 0.0, a, jump / np.log(b / a))
    return np.sum(coeffs * jump * jump / logmean, axis=1)


def _dissipation_rows(u, v, geom: GridGeometry,
                      params: ModelParams) -> np.ndarray:
    _require_nonnegative("dissipation", u, v)
    if u.shape[1:] != (geom.n_omega,):
        raise ValueError(f"field has shape {u.shape[1:]}, "
                         f"expected ({geom.n_omega},)")
    d = params.delta_u * _face_quadrature(
        u, geom.omega_faces, geom.omega_face_coeffs)
    if params.delta_v > 0:
        d += params.delta_v * _face_quadrature(
            v, geom.gamma_faces, geom.gamma_face_coeffs)

    a = params.k_v * v ** params.beta
    b = params.k_u * np.take(u, geom.trace_cells, axis=1) ** params.alpha
    log_ratio = np.log(np.maximum(a, DISSIPATION_FLOOR)
                       / np.maximum(b, DISSIPATION_FLOOR))
    integrand = np.where(a == b, 0.0, (a - b) * log_ratio)
    return d + np.vecdot(geom.gamma_weights, integrand)


def dissipation(state: State, geom: GridGeometry, params: ModelParams) -> float:
    """Entropy dissipation: Fisher-type gradient terms plus the boundary
    reaction term (k_v v^beta - k_u u^alpha) log(k_v v^beta / (k_u u^alpha))
    >= 0.

    Log arguments and face values are floored at DISSIPATION_FLOOR = 1e-30,
    so the result is a finite lower bound of the exact functional, which is
    infinite as soon as a zero value meets a positive one.
    """
    return float(_dissipation_rows(*_rows(state), geom, params)[0])


def _bregman(x, x_inf):
    return _xlogy(x, x) - _xlogy(x, x_inf) - (x - x_inf)


def _decomposition_rows(u, v, geom: GridGeometry, params: ModelParams,
                        eq: Equilibrium, m, xu, xv):
    """(I1, I2) per row; m is the mass per row and xu, xv are
    _xlogy(u, u), _xlogy(v, v)."""
    off = np.abs(m - eq.mass) > 1e-8 * max(abs(eq.mass), 1.0)
    if off.any():
        raise ValueError(f"state mass {float(m[np.argmax(off)])!r} does not "
                         f"match equilibrium mass {eq.mass!r}")
    u_bar = np.vecdot(geom.omega_weights, u) / geom.omega_measure
    v_bar = np.vecdot(geom.gamma_weights, v) / geom.gamma_measure
    i1 = (np.vecdot(geom.omega_weights, xu - _xlogy(u, u_bar[:, None]))
          + np.vecdot(geom.gamma_weights, xv - _xlogy(v, v_bar[:, None])))
    i2 = (geom.omega_measure * _bregman(u_bar, eq.u_inf)
          + geom.gamma_measure * _bregman(v_bar, eq.v_inf))
    return i1, i2


def entropy_decomposition(state: State, geom: GridGeometry,
                          params: ModelParams, eq: Equilibrium):
    """Split E - E_eq into spatial mixing (I1) and mean-vs-equilibrium (I2).

    I1 compares each field with its spatial mean, I2 compares the means with
    the equilibrium constants. Both are nonnegative and they sum to the
    relative entropy when the state's mass matches eq.mass, which is required
    to 1e-8 relative.
    """
    u, v = _rows(state)
    i1, i2 = _decomposition_rows(u, v, geom, params, eq,
                                 _mass_rows(u, v, geom, params), _xlogy(u, u),
                                 _xlogy(v, v))
    return float(i1[0]), float(i2[0])


def ckp_constant(params: ModelParams, total_mass: float) -> float:
    """Csiszar-Kullback-Pinsker constant min(alpha,beta)/(8M) tying relative
    entropy to squared L1 distances from equilibrium."""
    if total_mass <= 0:
        raise ValueError(f"total mass must be positive, got {total_mass}")
    return min(params.alpha, params.beta) / (8.0 * total_mass)
