"""Conservative finite-volume solver and verification harness for nonlinear
volume-surface reaction-diffusion systems.

A bulk species diffuses in a domain and converts, on the boundary, into a
surface species (and back) through power-law kinetics that conserve a
weighted total mass. The package provides the spatial discretization, an
implicit coupled stepper, a certified two-sided (upper/lower solution)
iteration with a computable enclosure width, and entropy-method diagnostics:
dissipation, Csiszar-Kullback-Pinsker lower bounds, relative-entropy
splitting and empirical decay rates.
"""

from .errors import (DegenerateInputError, LinearSolverError,
                     MonotoneConvergenceError, OracleFailure, StepFailure)
from .grid import (GridGeometry, GridKind, build_interval,
                   build_periodic_strip, build_polar_disk, trace)
from .linsolve import (SolveMethod, SolveStats, assemble_shifted,
                       check_residual, factor, solve)
from .model import (Equilibrium, ModelParams, State, ckp_constant,
                    constant_upper_solution, dissipation, entropy,
                    entropy_decomposition, equilibrium_entropy,
                    equilibrium_from_measures, equilibrium_state,
                    lipschitz_bounds, mass, reaction_F, reaction_G,
                    shifted_f, shifted_g, solve_equilibrium)
from .monotone import (ComparisonVerdict, IterationReport, SandwichVerdict,
                       check_sandwich, comparison_pairs, run_monotone)
from .stepper import (StepConfig, integrate, linear_bulk_step,
                      linear_surface_step, semi_discrete_rhs)
from .diagnostics import (RateFit, TraceSeries, audit_ckp,
                          audit_degenerate_coupling,
                          check_entropy_dissipation_identity, dense_oracle,
                          fit_rate, record, write_series_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DegenerateInputError", "LinearSolverError", "MonotoneConvergenceError",
    "OracleFailure", "StepFailure",
    "GridGeometry", "GridKind", "build_interval", "build_periodic_strip",
    "build_polar_disk", "trace",
    "SolveMethod", "SolveStats", "assemble_shifted", "check_residual", "factor",
    "solve",
    "Equilibrium", "ModelParams", "State", "ckp_constant",
    "constant_upper_solution", "dissipation", "entropy",
    "entropy_decomposition", "equilibrium_entropy",
    "equilibrium_from_measures", "equilibrium_state", "lipschitz_bounds",
    "mass", "reaction_F", "reaction_G", "shifted_f", "shifted_g",
    "solve_equilibrium",
    "ComparisonVerdict", "IterationReport", "SandwichVerdict",
    "check_sandwich", "comparison_pairs", "run_monotone",
    "StepConfig", "integrate", "linear_bulk_step",
    "linear_surface_step", "semi_discrete_rhs",
    "RateFit", "TraceSeries", "audit_ckp", "audit_degenerate_coupling",
    "check_entropy_dissipation_identity", "dense_oracle", "fit_rate",
    "record", "write_series_csv",
]
