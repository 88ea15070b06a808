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
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import DegenerateInputError
from .grid import GridGeometry, GridKind, trace

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
        if self.alpha < 1 or self.beta < 1:
            raise ValueError(
                f"exponents must be >= 1, got alpha={self.alpha}, beta={self.beta}")
        if self.delta_u <= 0:
            raise ValueError(f"delta_u must be positive, got {self.delta_u}")
        if self.delta_v < 0:
            raise ValueError(f"delta_v must be nonnegative, got {self.delta_v}")
        if self.k_u <= 0 or self.k_v <= 0:
            raise ValueError(
                f"rate constants must be positive, got k_u={self.k_u}, k_v={self.k_v}")


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
        if self.time < 0:
            raise ValueError(f"time must be nonnegative, got {self.time}")

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.time)


@dataclass(frozen=True)
class Equilibrium:
    """Spatially constant detailed-balance state for a given conserved mass."""

    u_inf: float
    v_inf: float
    mass: float


def _check_nonnegative(name, value):
    if np.any(np.asarray(value) < 0):
        raise ValueError(f"{name} must be nonnegative")


def reaction_F(params: ModelParams, u, v):
    """Boundary flux density feeding the bulk: -alpha*(k_u u^a - k_v v^b)."""
    _check_nonnegative("u", u)
    _check_nonnegative("v", v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -params.alpha * (params.k_u * u ** params.alpha
                            - params.k_v * v ** params.beta)


def reaction_G(params: ModelParams, u, v):
    """Surface source: beta*(k_u u^a - k_v v^b) = -(beta/alpha)*F."""
    _check_nonnegative("u", u)
    _check_nonnegative("v", v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return params.beta * (params.k_u * u ** params.alpha
                          - params.k_v * v ** params.beta)


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
    balanced rates k_u A^alpha = k_v B^beta. Raises DegenerateInputError for
    zero data and when the pair exceeds the float range."""
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
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DegenerateInputError(
            f"no constant upper solution within the float range for initial "
            f"suprema ({sup_u0:g}, {sup_v0:g})")
    return a, b


def mass(state: State, geom: GridGeometry, params: ModelParams) -> float:
    """Conserved weighted total beta*<u> + alpha*<v>."""
    return float(params.beta * geom.omega_weights @ state.u
                 + params.alpha * geom.gamma_weights @ state.v)


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


def entropy(state: State, geom: GridGeometry, params: ModelParams) -> float:
    """Free energy E = <u(log u - 1 + mu_u)> + <v(log v - 1 + mu_v)>, with
    mu_u = log(k_u)/alpha, mu_v = log(k_v)/beta and 0*log 0 = 0."""
    if np.any(state.u < 0) or np.any(state.v < 0):
        raise ValueError("entropy requires nonnegative fields")
    mu_u = math.log(params.k_u) / params.alpha
    mu_v = math.log(params.k_v) / params.beta
    eu = geom.omega_weights @ (xlogy(state.u, state.u) - state.u + mu_u * state.u)
    ev = geom.gamma_weights @ (xlogy(state.v, state.v) - state.v + mu_v * state.v)
    return float(eu + ev)


def equilibrium_entropy(eq: Equilibrium, geom: GridGeometry,
                        params: ModelParams) -> float:
    return entropy(equilibrium_state(eq, geom), geom, params)


def _face_quadrature(values: np.ndarray, faces: np.ndarray,
                     coeffs: np.ndarray) -> float:
    """Sum of coeff * (jump)^2 / logmean(a, b), the discrete |grad w|^2 / w.

    The logarithmic face mean makes the sum equal to sum coeff * jump *
    (log b - log a), which is exactly the rate at which the two-point-flux
    diffusion operator produces entropy, so dE/dt = -D holds at the
    semi-discrete level and the identity check sees pure time-stepping
    error. Flooring the arguments keeps the sum finite when a cell hits
    zero; each floored term still underestimates the exact integrand."""
    if len(faces) == 0:
        return 0.0
    a = np.maximum(values[faces[:, 0]], DISSIPATION_FLOOR)
    b = np.maximum(values[faces[:, 1]], DISSIPATION_FLOOR)
    jump = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        logmean = np.where(jump == 0.0, a, jump / np.log(b / a))
    return float(np.sum(coeffs * jump * jump / logmean))


def dissipation(state: State, geom: GridGeometry, params: ModelParams) -> float:
    """Entropy dissipation: Fisher-type gradient terms plus the boundary
    reaction term (k_v v^beta - k_u u^alpha) log(k_v v^beta / (k_u u^alpha))
    >= 0.

    Log arguments and face values are floored at DISSIPATION_FLOOR = 1e-30,
    so the result is a finite lower bound of the exact functional, which is
    infinite as soon as a zero value meets a positive one.
    """
    if np.any(state.u < 0) or np.any(state.v < 0):
        raise ValueError("dissipation requires nonnegative fields")
    d = params.delta_u * _face_quadrature(
        state.u, geom.omega_faces, geom.omega_face_coeffs)
    if params.delta_v > 0:
        d += params.delta_v * _face_quadrature(
            state.v, geom.gamma_faces, geom.gamma_face_coeffs)

    ut = trace(state.u, geom)
    a = params.k_v * state.v ** params.beta
    b = params.k_u * ut ** params.alpha
    log_ratio = np.log(np.maximum(a, DISSIPATION_FLOOR)
                       / np.maximum(b, DISSIPATION_FLOOR))
    integrand = np.where(a == b, 0.0, (a - b) * log_ratio)
    d += float(geom.gamma_weights @ integrand)
    return d


def entropy_decomposition(state: State, geom: GridGeometry,
                          params: ModelParams, eq: Equilibrium):
    """Split E - E_eq into spatial mixing (I1) and mean-vs-equilibrium (I2).

    I1 compares each field with its spatial mean, I2 compares the means with
    the equilibrium constants. Both are nonnegative and they sum to the
    relative entropy when the state's mass matches eq.mass, which is required
    to 1e-8 relative.
    """
    m = mass(state, geom, params)
    if abs(m - eq.mass) > 1e-8 * max(abs(eq.mass), 1.0):
        raise ValueError(
            f"state mass {m!r} does not match equilibrium mass {eq.mass!r}")
    u_bar = float(geom.omega_weights @ state.u) / geom.omega_measure
    v_bar = float(geom.gamma_weights @ state.v) / geom.gamma_measure

    i1 = float(geom.omega_weights @ (xlogy(state.u, state.u)
                                     - xlogy(state.u, u_bar))
               + geom.gamma_weights @ (xlogy(state.v, state.v)
                                       - xlogy(state.v, v_bar)))

    def bregman(x, x_inf):
        return xlogy(x, x) - xlogy(x, x_inf) - (x - x_inf)

    i2 = float(geom.omega_measure * bregman(u_bar, eq.u_inf)
               + geom.gamma_measure * bregman(v_bar, eq.v_inf))
    return i1, i2


def ckp_constant(params: ModelParams, total_mass: float) -> float:
    """Csiszar-Kullback-Pinsker constant min(alpha,beta)/(8M) tying relative
    entropy to squared L1 distances from equilibrium."""
    if total_mass <= 0:
        raise ValueError(f"total mass must be positive, got {total_mass}")
    return min(params.alpha, params.beta) / (8.0 * total_mass)
