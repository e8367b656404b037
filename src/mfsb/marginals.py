"""Construction of boundary densities from declarative specs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import SpatialGrid, normalize
from .potentials import _read_samples

# relative floor applied before normalization so log-space metrics stay finite
# on far tails; total mass added is ~1e-13 and invisible at solver tolerances
_FLOOR = 1e-14


@dataclass(frozen=True)
class MarginalSpec:
    """A boundary density: a Gaussian mixture or a tabulated curve."""

    kind: str
    weights: tuple[float, ...] = ()
    means: tuple[float, ...] = ()
    variances: tuple[float, ...] = ()
    path: str | None = None

    @classmethod
    def gaussian_mixture(cls, weights, means, variances) -> "MarginalSpec":
        return cls(
            kind="gaussian_mixture",
            weights=tuple(float(w) for w in weights),
            means=tuple(float(m) for m in means),
            variances=tuple(float(v) for v in variances),
        )

    @classmethod
    def tabulated(cls, path) -> "MarginalSpec":
        return cls(kind="tabulated", path=str(path))


def _mixture_field(spec: MarginalSpec, grid: SpatialGrid) -> np.ndarray:
    k = len(spec.weights)
    if k == 0 or len(spec.means) != k or len(spec.variances) != k:
        raise ConfigError(
            "gaussian_mixture needs equal-length nonempty weights/means/variances"
        )
    w = np.asarray(spec.weights)
    if np.any(w <= 0.0):
        raise ConfigError("mixture weights must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ConfigError(f"mixture weights must sum to 1, got {w.sum()!r}")
    v = np.asarray(spec.variances)
    if np.any(v <= 0.0):
        raise ConfigError("mixture variances must be strictly positive")
    x = grid.nodes
    out = np.zeros_like(x)
    for wk, mk, vk in zip(spec.weights, spec.means, spec.variances):
        out += wk * np.exp(-((x - mk) ** 2) / (2.0 * vk)) / np.sqrt(2.0 * np.pi * vk)
    return out


def _tabulated_field(spec: MarginalSpec, grid: SpatialGrid) -> np.ndarray:
    if spec.path is None:
        raise ConfigError("tabulated marginal needs a file path")
    data = _read_samples(spec.path, "marginal")
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ConfigError(f"{spec.path}: expected two columns (x, p)")
    xs, ps = data[:, 0], data[:, 1]
    order = np.argsort(xs)
    xs, ps = xs[order], ps[order]
    if np.any(ps < 0.0):
        raise ConfigError(f"{spec.path}: tabulated density has negative values")
    if xs[0] > grid.x_min or xs[-1] < grid.x_max:
        raise ConfigError(
            f"{spec.path}: samples cover [{xs[0]}, {xs[-1]}] but the grid "
            f"needs [{grid.x_min}, {grid.x_max}]"
        )
    return np.interp(grid.nodes, xs, ps)


def build_marginals(spec: MarginalSpec, grid: SpatialGrid) -> np.ndarray:
    """Evaluate a marginal spec on the grid: floored, strictly positive, unit mass."""
    if spec.kind == "gaussian_mixture":
        f = _mixture_field(spec, grid)
    elif spec.kind == "tabulated":
        f = _tabulated_field(spec, grid)
    else:
        raise ConfigError(f"unknown marginal kind {spec.kind!r}")
    peak = float(f.max())
    if peak <= 0.0:
        raise ConfigError("marginal is identically zero on the grid")
    return normalize(np.maximum(f, _FLOOR * peak), grid)
