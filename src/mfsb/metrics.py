"""Hilbert projective metric on positive fields, plus L1 helpers.

The Hilbert distance between strictly positive vectors f and g is

    d(f, g) = max_i log(f_i / g_i) - min_i log(f_i / g_i),

computed in log space so that widely scaled inputs (1e-300 .. 1e300) stay
finite. It is a metric on rays: d(c * f, g) = d(f, g) for any c > 0, and
d(f, g) = 0 iff f and g are proportional.
"""

from __future__ import annotations

import numpy as np

from .errors import PositivityError, ShapeError
from .grid import SpatialGrid, check_field


def _log_ratio(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ShapeError(f"shape mismatch {f.shape} vs {g.shape}")
    if f.size == 0:
        raise ShapeError("empty input")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise PositivityError("inputs must be finite")
    if np.any(f <= 0.0) or np.any(g <= 0.0):
        raise PositivityError("Hilbert metric requires strictly positive inputs")
    return np.log(f) - np.log(g)


def hilbert_distance(f: np.ndarray, g: np.ndarray) -> float:
    """Hilbert projective distance between two positive fields."""
    r = _log_ratio(f, g)
    return float(r.max() - r.min())


def path_distance(f: np.ndarray, g: np.ndarray) -> float:
    """sup over time slices of the slice-wise Hilbert distance."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or f.ndim != 2:
        raise ShapeError(f"expected equal 2-d shapes, got {f.shape} vs {g.shape}")
    r = _log_ratio(f, g)
    per_slice = r.max(axis=1) - r.min(axis=1)
    return float(per_slice.max())


def pair_distance(pair_a, pair_b) -> float:
    """max over the two legs of the path distance between scaling pairs."""
    return max(
        path_distance(pair_a.phi, pair_b.phi),
        path_distance(pair_a.phihat, pair_b.phihat),
    )


def l1_distance(f: np.ndarray, g: np.ndarray, grid: SpatialGrid) -> float:
    """Trapezoid-weighted L1 distance between two fields on the grid."""
    f = check_field(f, grid)
    g = check_field(g, grid)
    return float(np.trapezoid(np.abs(f - g), dx=grid.h))
