"""Mean-field bridge solver: steer an interacting diffusion between densities.

The package solves the entropic optimal steering problem for McKean-Vlasov
dynamics on a 1-D interval: given initial and final densities, a noise level,
and a pairwise interaction kernel, it finds the feedback control whose
controlled interacting diffusion starts at the first density and ends at the
second while minimizing the expected control energy. The solution is computed
by a fixed-point iteration over a pair of scaling potentials (a
mean-field generalization of the Sinkhorn algorithm) and can be verified
independently by closed-loop density propagation and particle simulation.
The root exports what a caller of a run builds, passes or catches; the
steps of the iteration stay importable from their modules.
"""

__version__ = "1.0.0"

from .errors import (
    ConfigError,
    DomainError,
    MfsbError,
    NoConvergence,
    PositivityError,
    ShapeError,
    SolveError,
    ZeroMassError,
)
from .grid import SpatialGrid, TimeGrid
from .potentials import PotentialSpec, PotentialTable
from .kolmogorov import propagate_density
from .sinkhorn import PairPath
from .marginals import MarginalSpec
from .solver import Solution, SolverConfig, contraction_constants, solve
from .particles import simulate, terminal_residual
from .config import load_config

__all__ = [
    "ConfigError", "DomainError", "MfsbError", "NoConvergence",
    "PositivityError", "ShapeError", "SolveError", "ZeroMassError",
    "SpatialGrid", "TimeGrid",
    "PotentialSpec", "PotentialTable", "MarginalSpec", "PairPath",
    "SolverConfig", "Solution", "solve", "load_config",
    "propagate_density", "simulate", "terminal_residual",
    "contraction_constants", "__version__",
]
