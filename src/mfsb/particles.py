"""Interacting-particle verification of a solved control field.

Euler-Maruyama on N particles driven by the control plus the sampled
interaction drift, with reflection at the domain ends. The interaction is
evaluated particle-in-cell: each step bins the cloud onto the grid and reuses
the kernel convolution of the PDE side, so a step costs O(N + n_x log n_x).
The counter-based Philox generator makes runs reproducible from the seed
alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import SpatialGrid, TimeGrid, check_field, check_path, normalize
from .metrics import l1_distance
from .potentials import PotentialSpec, PotentialTable, eval_potential, mean_field_drift

_RECOMMENDED_N = 10_000


@dataclass(frozen=True)
class ParticleEnsemble:
    """Terminal particle positions plus the provenance of the run."""

    positions: np.ndarray
    seed: int
    steps: int

    @property
    def n(self) -> int:
        return self.positions.size


def _sample_initial(p_init: np.ndarray, grid: SpatialGrid, rng, n: int) -> np.ndarray:
    """Inverse-CDF sampling of the piecewise-linear density on the grid."""
    segment_mass = 0.5 * grid.h * (p_init[:-1] + p_init[1:])
    cdf = np.concatenate(([0.0], np.cumsum(segment_mass)))
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, grid.nodes)


def _reflect(x: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    span = grid.x_max - grid.x_min
    y = np.mod(x - grid.x_min, 2.0 * span)
    return grid.x_min + np.minimum(y, 2.0 * span - y)


def _histogram(positions: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    counts, _ = np.histogram(positions, bins=grid.cell_edges)
    return normalize(counts / (positions.size * grid.weights), grid)


def simulate(
    u_path: np.ndarray,
    spec: PotentialSpec,
    p_init: np.ndarray,
    sigma: float,
    n: int,
    seed: int,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
    table: PotentialTable | None = None,
) -> ParticleEnsemble:
    """Run N particles under the control field from t = 0 to t = 1.

    The control is interpolated linearly in space and, as in the closed-loop
    PDE, sampled over each step as the mean of its two endpoint slices.
    Positions reflect at the domain ends. Pass ``table`` to override the
    kernel tables (e.g. when the kernel is not prescaled).
    """
    if n < 100:
        raise DomainError(f"need at least 100 particles, got {n}")
    u_path = check_path(u_path, sgrid, tgrid)
    p_init = check_field(p_init, sgrid)
    rng = np.random.Generator(np.random.Philox(seed))
    if table is None:
        table = eval_potential(spec, sgrid)
    nodes = sgrid.nodes
    dt = tgrid.dt
    root_dt = np.sqrt(dt)
    x = _sample_initial(p_init, sgrid, rng, n)
    for l in range(tgrid.n_t):
        u_step = 0.5 * (u_path[l] + u_path[l + 1])
        b = mean_field_drift(table, _histogram(x, sgrid), sgrid)
        drift = np.interp(x, nodes, sigma * u_step + sigma * sigma * b)
        x = x + drift * dt + sigma * root_dt * rng.standard_normal(n)
        x = _reflect(x, sgrid)
    return ParticleEnsemble(positions=x, seed=seed, steps=tgrid.n_t)


def empirical_density(ensemble: ParticleEnsemble, grid: SpatialGrid) -> np.ndarray:
    """Histogram density on node-centered cells, normalized to unit mass."""
    return _histogram(ensemble.positions, grid)


def terminal_residual(
    ensemble: ParticleEnsemble, p_target: np.ndarray, grid: SpatialGrid
) -> float:
    """L1 distance between the terminal cloud and a target density."""
    if ensemble.n < _RECOMMENDED_N:
        warnings.warn(
            f"ensemble size {ensemble.n} is below the recommended "
            f"{_RECOMMENDED_N}; the residual is dominated by sampling noise",
            UserWarning,
            stacklevel=2,
        )
    return l1_distance(empirical_density(ensemble, grid), p_target, grid)


def sampling_noise_l1(p: np.ndarray, grid: SpatialGrid, n: int) -> float:
    """Expected L1 histogram noise when drawing n samples from density p.

    Cell counts are near-Poisson, so E|phat_i - p_i| is about
    sqrt(2 p_i / (pi n w_i)) per cell; summing with the cell widths gives
    sqrt(2 / (pi n)) * sum_i sqrt(p_i w_i).
    """
    p = check_field(p, grid)
    if n < 1:
        raise DomainError(f"need a positive sample count, got {n}")
    return float(np.sqrt(2.0 / (np.pi * n)) * np.sum(np.sqrt(p * grid.weights)))
