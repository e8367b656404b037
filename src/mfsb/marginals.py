"""Construction of boundary densities from declarative specs."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import SpatialGrid, normalize
from .potentials import _non_finite_samples, _read_samples, _refuse_unread

# relative floor applied before normalization so log-space metrics stay finite
# on far tails; total mass added is ~1e-13 and invisible at solver tolerances
_FLOOR = 1e-14
# the fields each kind reads besides its kind; the others keep their defaults
_READS = {"gaussian_mixture": ("weights", "means", "variances"), "tabulated": ("path",)}


@dataclass(frozen=True)
class MarginalSpec:
    """A boundary density: a Gaussian mixture, with its numbers stored as
    tuples of floats, or a tabulated curve read from ``path``, stored as a
    str. An unknown kind, mixture numbers that are not a sequence of real
    numbers, or a field the kind does not read that differs from its
    default, is a ConfigError; :func:`build_marginals` checks the rest."""

    kind: str
    weights: tuple[float, ...] = ()
    means: tuple[float, ...] = ()
    variances: tuple[float, ...] = ()
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _READS:
            raise ConfigError(f"unknown marginal kind {self.kind!r}")
        for name in _READS["gaussian_mixture"]:
            value = getattr(self, name)
            items = tuple(value) if np.iterable(value) else None
            if items is None or not all(isinstance(v, numbers.Real) for v in items):
                raise ConfigError(
                    f"MarginalSpec {name} must be a sequence of numbers, got {value!r}"
                )
            object.__setattr__(self, name, tuple(float(v) for v in items))
        if self.path is not None:
            object.__setattr__(self, "path", str(self.path))
        _refuse_unread(self, _READS[self.kind], ConfigError)


def _mixture_field(spec: MarginalSpec, grid: SpatialGrid, prefix: str) -> np.ndarray:
    k = len(spec.weights)
    if k == 0 or len(spec.means) != k or len(spec.variances) != k:
        raise ConfigError(
            f"gaussian_mixture needs equal-length nonempty "
            f"{prefix}weights/means/variances"
        )
    # a NaN passes the sign and sum checks below, and an infinite component
    # would silently vanish from the field
    for name in ("weights", "means", "variances"):
        values = np.asarray(getattr(spec, name))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = bad[0]
            raise ConfigError(
                f"mixture {name} must be finite: {prefix}{name}[{i}] = {values[i]}"
            )
    w = np.asarray(spec.weights)
    if np.any(w <= 0.0):
        raise ConfigError(f"mixture {prefix}weights must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ConfigError(
            f"mixture {prefix}weights must sum to 1, got {float(w.sum())!r}"
        )
    v = np.asarray(spec.variances)
    if np.any(v <= 0.0):
        raise ConfigError(f"mixture {prefix}variances must be strictly positive")
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
    # checked in the given order, so the message names the given indices
    bad = _non_finite_samples("x, p", xs, ps)
    if bad:
        raise ConfigError(f"{spec.path}: samples must be finite: {bad}")
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


def build_marginals(
    spec: MarginalSpec, grid: SpatialGrid, name: str | None = None
) -> np.ndarray:
    """Evaluate a marginal spec on the grid: floored, strictly positive, unit mass.

    ``name`` is the config key prefix of the marginal (``marginal_in`` or
    ``marginal_fin``); an error in a mixture parameter names it, as in
    ``marginal_in.means[0] = inf``.
    """
    prefix = f"{name}." if name else ""
    if spec.kind == "gaussian_mixture":
        f = _mixture_field(spec, grid, prefix)
    else:
        f = _tabulated_field(spec, grid)
    peak = float(f.max())
    if peak <= 0.0:
        raise ConfigError(f"{name or 'marginal'} is identically zero on the grid")
    return normalize(np.maximum(f, _FLOOR * peak), grid)
