"""Uniform 1-D space and time grids plus the field operations built on them.

A scalar field is a plain ``(n_x,)`` float array of node values; a path is a
``(n_t + 1, n_x)`` array whose row ``l`` is the field at time ``l * dt``.
Densities are fields/paths that are strictly positive and integrate to one
under the trapezoid rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError, ZeroMassError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node grid on [x_min, x_max] with n_x >= 8 points."""

    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        if not np.isfinite(self.x_min) or not np.isfinite(self.x_max):
            raise DomainError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise DomainError(
                f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]"
            )
        if self.n_x < 8:
            raise DomainError(f"n_x must be at least 8, got {self.n_x}")

    @property
    def h(self) -> float:
        """Node spacing."""
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights: h at interior nodes, h/2 at the ends."""
        w = np.full(self.n_x, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, 1] into n_t steps (n_t + 1 slices)."""

    n_t: int

    def __post_init__(self):
        if self.n_t < 2:
            raise DomainError(f"n_t must be at least 2, got {self.n_t}")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_t

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_t + 1)


def check_field(f: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Validate a 1-D field against its grid; returns the array unchanged."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_x,):
        raise ShapeError(f"expected field of shape ({grid.n_x},), got {f.shape}")
    return f


def check_path(
    f: np.ndarray, sgrid: SpatialGrid, tgrid: TimeGrid
) -> np.ndarray:
    """Validate a (n_t + 1, n_x) path array."""
    f = np.asarray(f, dtype=float)
    want = (tgrid.n_t + 1, sgrid.n_x)
    if f.shape != want:
        raise ShapeError(f"expected path of shape {want}, got {f.shape}")
    return f


def _check_rows(f: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Validate a field or a stack of fields (..., n_x) against its grid."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 0 or f.shape[-1] != grid.n_x:
        raise ShapeError(f"expected (..., {grid.n_x}) array, got {f.shape}")
    return f


def gradient(f: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Second-order central difference along the last axis, one-sided
    second-order at the ends; a path is differentiated slice by slice."""
    f = _check_rows(f, grid)
    return np.gradient(f, grid.h, axis=-1, edge_order=2)


def integrate(f: np.ndarray, grid: SpatialGrid) -> float:
    """Trapezoid-rule integral of a field over the domain."""
    f = check_field(f, grid)
    return float(np.trapezoid(f, dx=grid.h))


def normalize(f: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Rescale a nonnegative field, or every slice of a path, to unit
    trapezoid mass.

    Raises ZeroMassError when a mass is nonpositive or not finite.
    """
    f = _check_rows(f, grid)
    masses = np.trapezoid(f, dx=grid.h, axis=-1)
    if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
        bad = int(np.argmin(masses))
        raise ZeroMassError(f"slice {bad} has nonpositive mass {masses.flat[bad]}")
    return f / masses[..., None]
