"""Exception types shared across the package.

Invalid arguments raise plain ValueError (or DegenerateInputError where the
inputs are structurally unusable rather than merely malformed). The remaining
types signal numerical failure and carry enough state to diagnose it.
"""

__all__ = ["DegenerateInputError", "LinearSolverError",
           "MonotoneConvergenceError", "OracleFailure", "StepFailure"]


class DegenerateInputError(ValueError):
    """Inputs are structurally degenerate (e.g. identically zero data where a
    positive bound is required, or a bound beyond the float range)."""


class LinearSolverError(RuntimeError):
    """Sparse direct solve failed: the matrix is singular, or the solution
    misses its residual tolerance or is not finite.

    Attributes:
        stats: SolveStats for the failed solve.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class StepFailure(RuntimeError):
    """An implicit time step was rejected (Newton divergence or negativity
    beyond tolerance).

    Attributes:
        residual_history: Newton residual norms up to the failure.
        time: simulation time at which the step was attempted.
        row: the trajectory of the z-stack whose step failed, or None.
    """

    def __init__(self, message, residual_history=None, time=None, row=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.time = time
        self.row = row


class MonotoneConvergenceError(RuntimeError):
    """Outer upper/lower iteration hit its iteration cap before the gap
    dropped below tolerance.

    Attributes:
        gaps: sup-norm gap per outer iteration.
    """

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = list(gaps or [])


class OracleFailure(RuntimeError):
    """Reference integrator gave up, produced NaN/overflow, or left the
    nonnegative cone; the instance is outside what the oracle can resolve."""
