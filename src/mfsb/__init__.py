"""Mean-field bridge solver: steer an interacting diffusion between densities.

The package solves the entropic optimal steering problem for McKean-Vlasov
dynamics on a 1-D interval: given initial and final densities, a noise level,
and a pairwise interaction kernel, it finds the feedback control whose
controlled interacting diffusion starts at the first density and ends at the
second while minimizing the expected control energy. The solution is computed
by a nested fixed-point iteration over a pair of scaling potentials (a
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
from .grid import (
    SpatialGrid,
    TimeGrid,
    gradient,
    gradient_path,
    integrate,
    normalize,
    normalize_path,
)
from .metrics import (
    MetricReport,
    hilbert_distance,
    l1_distance,
    pair_distance,
    path_distance,
)
from .potentials import (
    PotentialSpec,
    PotentialTable,
    convolve,
    convolve_path,
    displacement_grid,
    eval_potential,
    load_tabulated_potential,
    mean_field_drift,
    mean_field_drift_path,
    reaction_term,
    reaction_term_path,
)
from .kolmogorov import (
    DiscreteGenerator,
    TransportOperators,
    build_generator,
    integrate_backward,
    integrate_forward,
    propagate_density,
)
from .sinkhorn import (
    FrozenProblem,
    InnerTrace,
    PairPath,
    boundary_factors,
    boundary_update_final,
    boundary_update_initial,
    freeze_problem,
    inner_sinkhorn,
)
from .marginals import MarginalSpec, build_marginals
from .solver import (
    ConvergenceTrace,
    Solution,
    SolverConfig,
    classical_bridge_init,
    contraction_constants,
    contraction_rate,
    control_energy,
    damped_update,
    density_from_pair,
    fit_geometric_rate,
    optimal_control,
    solve,
)
from .particles import (
    ParticleEnsemble,
    empirical_density,
    sampling_noise_l1,
    simulate,
    terminal_residual,
)
from .config import (
    example_config_path,
    load_config,
    parse_config,
    resolve_config_path,
    solver_config_from,
)

__all__ = [
    "CFLWarning", "ConfigError", "DomainError", "InsufficientData", "MfsbError",
    "NoConvergence", "PositivityError", "ShapeError", "SolveError", "ZeroMassError",
    "SpatialGrid", "TimeGrid", "gradient", "gradient_path", "integrate",
    "normalize", "normalize_path",
    "MetricReport", "hilbert_distance", "l1_distance", "pair_distance",
    "path_distance",
    "PotentialSpec", "PotentialTable", "convolve", "convolve_path",
    "displacement_grid", "eval_potential", "load_tabulated_potential",
    "mean_field_drift", "mean_field_drift_path", "reaction_term",
    "reaction_term_path",
    "DiscreteGenerator", "TransportOperators", "build_generator",
    "integrate_backward", "integrate_forward", "propagate_density",
    "FrozenProblem", "InnerTrace", "PairPath", "boundary_factors",
    "boundary_update_final", "boundary_update_initial", "freeze_problem",
    "inner_sinkhorn",
    "MarginalSpec", "build_marginals",
    "ConvergenceTrace", "Solution", "SolverConfig", "classical_bridge_init",
    "contraction_constants", "contraction_rate", "control_energy",
    "damped_update", "density_from_pair", "fit_geometric_rate",
    "optimal_control", "solve",
    "ParticleEnsemble", "empirical_density", "sampling_noise_l1", "simulate",
    "terminal_residual",
    "example_config_path", "load_config", "parse_config", "resolve_config_path",
    "solver_config_from",
    "__version__",
]
