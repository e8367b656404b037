"""Mean-field bridge solver: steer an interacting diffusion between densities.

The package solves the entropic optimal steering problem for McKean-Vlasov
dynamics on a 1-D interval: given initial and final densities, a noise level,
and a pairwise interaction kernel, it finds the feedback control whose
controlled interacting diffusion starts at the first density and ends at the
second while minimizing the expected control energy. The solution is computed
by a fixed-point iteration over a pair of scaling potentials (a
mean-field generalization of the Sinkhorn algorithm) and can be verified
independently by closed-loop density propagation and particle simulation.
"""

__version__ = "1.0.0"

from .errors import (
    CFLWarning,
    ConfigError,
    DomainError,
    InsufficientData,
    MfsbError,
    NoConvergence,
    PositivityError,
    ShapeError,
    SolveError,
    ZeroMassError,
)
from .grid import SpatialGrid, TimeGrid, gradient, integrate, normalize
from .metrics import hilbert_distance, l1_distance, pair_distance, path_distance
from .potentials import (
    PotentialSpec,
    PotentialTable,
    convolve,
    eval_potential,
    mean_field_drift,
    reaction_term_path,
)
from .kolmogorov import (
    TransportOperators,
    build_generator,
    integrate_backward,
    integrate_forward,
    propagate_density,
)
from .sinkhorn import PairPath, freeze_problem, inner_sinkhorn
from .marginals import MarginalSpec, build_marginals
from .solver import (
    Solution,
    SolverConfig,
    classical_bridge_init,
    contraction_constants,
    control_energy,
    fit_geometric_rate,
    optimal_control,
    solve,
)
from .particles import empirical_density, sampling_noise_l1, simulate, terminal_residual
from .config import load_config

__all__ = [
    "CFLWarning", "ConfigError", "DomainError", "InsufficientData", "MfsbError",
    "NoConvergence", "PositivityError", "ShapeError", "SolveError", "ZeroMassError",
    "SpatialGrid", "TimeGrid", "gradient", "integrate", "normalize",
    "hilbert_distance", "l1_distance", "pair_distance", "path_distance",
    "PotentialSpec", "PotentialTable", "convolve", "eval_potential",
    "mean_field_drift", "reaction_term_path",
    "TransportOperators", "build_generator", "integrate_backward",
    "integrate_forward", "propagate_density",
    "PairPath", "freeze_problem", "inner_sinkhorn",
    "MarginalSpec", "build_marginals",
    "Solution", "SolverConfig", "classical_bridge_init", "contraction_constants",
    "control_energy", "fit_geometric_rate", "optimal_control", "solve",
    "empirical_density", "sampling_noise_l1", "simulate", "terminal_residual",
    "load_config",
    "__version__",
]
