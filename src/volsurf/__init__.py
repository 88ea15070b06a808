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

from . import diagnostics, errors, grid, linsolve, model, monotone, stepper
from .errors import *
from .grid import *
from .linsolve import *
from .model import *
from .monotone import *
from .stepper import *
from .diagnostics import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *grid.__all__, *linsolve.__all__,
           *model.__all__, *monotone.__all__, *stepper.__all__,
           *diagnostics.__all__]
