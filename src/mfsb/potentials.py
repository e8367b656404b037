"""Interaction kernels, their tabulation, and grid convolutions.

An interaction kernel W acts on the solver only through two sampled tables
(W, W') on the displacement grid [-(x_max - x_min), x_max - x_min] with
the same spacing h as the state grid, so that the discrete convolution

    (K * f)(x_i) = h * sum_j K(x_i - x_j) f(x_j)

is a product with the n_x x n_x matrix M[j, i] = h K[i - j + n_x - 1], built
once per kernel and grid and memoized (two entries: a run needs W and W'), so
a path of rows is convolved by one BLAS matrix product. Built-in
kernel families are evaluated analytically; tabulated kernels are fitted with
a cubic spline, whose first derivative is O(h^3) accurate for smooth data.
Both tables carry the overall strength factor beta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, PositivityError, ShapeError
from .grid import SpatialGrid, check_field, gradient

_KINDS = ("zero", "power_repulsive", "gaussian_attractive", "tabulated")


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of an interaction kernel.

    Use the classmethod constructors; the generic __init__ is mostly for
    round-tripping configs.
    """

    kind: str
    beta: float = 1.0
    # power_repulsive parameters: beta * c / (2 (r^2 + eps^2)^(alpha/2))
    c: float = 0.0
    alpha: float = 0.0
    epsilon: float = 0.0
    # gaussian_attractive parameters: -beta * a * exp(-r^2 / s)
    a: float = 0.0
    s: float = 0.0
    # tabulated samples (displacement, value), stored sorted by displacement
    # and symmetrized on load
    table_r: tuple[float, ...] | None = None
    table_w: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise DomainError(f"beta must be finite and >= 0, got {self.beta}")
        if self.kind == "power_repulsive":
            if self.c <= 0.0:
                raise DomainError("power_repulsive needs c > 0")
            if not 0.0 < self.alpha < 1.0:
                raise DomainError(
                    f"power_repulsive needs alpha in (0, 1), got {self.alpha}"
                )
            if self.epsilon <= 0.0:
                raise DomainError("power_repulsive needs epsilon > 0")
        elif self.kind == "gaussian_attractive":
            if self.a <= 0.0:
                raise DomainError("gaussian_attractive needs a > 0")
            if self.s <= 0.0:
                raise DomainError("gaussian_attractive needs s > 0")
        elif self.kind == "tabulated":
            if self.table_r is None or self.table_w is None:
                raise DomainError("tabulated potential needs sample arrays")
            if len(self.table_r) != len(self.table_w) or len(self.table_r) < 4:
                raise DomainError("tabulated potential needs >= 4 (r, W) samples")
            r = np.asarray(self.table_r, dtype=float)
            w = np.asarray(self.table_w, dtype=float)
            bad = _non_finite_samples("r, W", r, w)
            if bad:
                raise DomainError(f"tabulated potential samples must be finite: {bad}")
            # checked in the given order, so the message names the given
            # indices; stored sorted by displacement
            order = np.argsort(r)
            object.__setattr__(self, "table_r", tuple(r[order]))
            object.__setattr__(self, "table_w", tuple(w[order]))

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind="zero", beta=0.0)

    @classmethod
    def power_repulsive(
        cls, c: float, alpha: float, epsilon: float, beta: float = 1.0
    ) -> "PotentialSpec":
        return cls(
            kind="power_repulsive", beta=beta, c=c, alpha=alpha, epsilon=epsilon
        )

    @classmethod
    def gaussian_attractive(
        cls, a: float, s: float, beta: float = 1.0
    ) -> "PotentialSpec":
        return cls(kind="gaussian_attractive", beta=beta, a=a, s=s)

    @classmethod
    def tabulated(cls, r, w, beta: float = 1.0) -> "PotentialSpec":
        r = np.asarray(r, dtype=float)
        w = np.asarray(w, dtype=float)
        if r.ndim != 1 or r.shape != w.shape:
            raise DomainError("tabulated samples must be two equal 1-d arrays")
        return cls(kind="tabulated", beta=beta, table_r=tuple(r), table_w=tuple(w))


@dataclass(frozen=True)
class PotentialTable:
    """Sampled kernel and its derivative on the displacement grid."""

    grid: SpatialGrid
    w: np.ndarray
    grad_w: np.ndarray


def displacement_grid(grid: SpatialGrid) -> SpatialGrid:
    """Grid of pairwise displacements x_i - x_j: [-L, L] with 2 n_x - 1 nodes."""
    span = grid.x_max - grid.x_min
    return SpatialGrid(-span, span, 2 * grid.n_x - 1)


def _power_tables(spec: PotentialSpec, r: np.ndarray):
    base = r * r + spec.epsilon**2
    half = spec.beta * spec.c / 2.0
    w = half * base ** (-spec.alpha / 2.0)
    grad = -half * spec.alpha * r * base ** (-spec.alpha / 2.0 - 1.0)
    return w, grad


def _gaussian_tables(spec: PotentialSpec, r: np.ndarray):
    bump = np.exp(-r * r / spec.s)
    w = -spec.beta * spec.a * bump
    grad = spec.beta * (2.0 * spec.a / spec.s) * r * bump
    return w, grad


def _tabulated_tables(spec: PotentialSpec, r: np.ndarray):
    rs = np.asarray(spec.table_r)
    ws = spec.beta * np.asarray(spec.table_w)
    if rs.min() >= 0.0:
        # one-sided table: extend evenly to negative displacements
        keep = rs > 0.0
        rs = np.concatenate((-rs[keep][::-1], rs[~keep], rs[keep]))
        ws = np.concatenate((ws[keep][::-1], ws[~keep], ws[keep]))
    if rs.min() > r.min() or rs.max() < r.max():
        raise DomainError(
            f"tabulated potential covers [{rs.min()}, {rs.max()}] but the "
            f"displacement grid needs [{r.min()}, {r.max()}]"
        )
    if np.any(np.diff(rs) <= 0.0):
        raise DomainError("tabulated displacements must be strictly increasing")
    # imported on use: only tabulated kernels need scipy.interpolate, whose
    # import takes longer than the rest of the package's
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(rs, ws)
    return spline(r), spline(r, 1)


def eval_potential(spec: PotentialSpec, grid: SpatialGrid) -> PotentialTable:
    """Sample a kernel and its derivative on the displacement grid.

    The returned tables are exactly symmetrized: W even, W' odd.
    """
    dgrid = displacement_grid(grid)
    r = dgrid.nodes
    if spec.kind == "zero":
        z = np.zeros_like(r)
        return PotentialTable(dgrid, z, z.copy())
    if spec.kind == "power_repulsive":
        w, grad = _power_tables(spec, r)
    elif spec.kind == "gaussian_attractive":
        w, grad = _gaussian_tables(spec, r)
    else:
        w, grad = _tabulated_tables(spec, r)
    w = 0.5 * (w + w[::-1])
    grad = 0.5 * (grad - grad[::-1])
    return PotentialTable(dgrid, w, grad)


def _non_finite_samples(columns: str, a: np.ndarray, b: np.ndarray) -> str:
    """Up to three samples (a, b) that are not finite, named by their index,
    and how many more; empty when every sample is finite."""
    bad = np.flatnonzero(~(np.isfinite(a) & np.isfinite(b)))
    listed = ", ".join(f"({columns})[{i}] = ({a[i]}, {b[i]})" for i in bad[:3])
    return listed + (f" and {bad.size - 3} more" if bad.size > 3 else "")


def _read_samples(path, what: str) -> np.ndarray:
    """Rows of numbers from a text file, whitespace or comma separated; a
    file that cannot be read or parsed is a ConfigError naming the ``what``
    file."""
    try:
        try:
            return np.loadtxt(path)
        except ValueError:
            return np.loadtxt(path, delimiter=",")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def load_tabulated_potential(path, beta: float = 1.0) -> PotentialSpec:
    """Read (displacement, value) rows from a text file (whitespace or comma)."""
    data = _read_samples(path, "kernel")
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(f"{path}: expected two columns (r, W)")
    return PotentialSpec.tabulated(data[:, 0], data[:, 1], beta=beta)


def convolve(kernel: np.ndarray, f: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Quadrature convolution of a displacement-grid kernel with a field.

    out[i] = h * sum_j kernel[(i - j) + n - 1] * f[j], computed as this sum: a
    matrix-vector product with the memoized quadrature matrix, O(n^2).
    """
    f = check_field(f, grid)
    return _convolve_rows(kernel, f[None, :], grid)[0]


def convolve_path(kernel: np.ndarray, f: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Same quadrature convolution applied to every row of a path."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[1] != grid.n_x:
        raise ShapeError(f"expected (*, {grid.n_x}) path, got {f.shape}")
    return _convolve_rows(kernel, f, grid)


def _convolve_rows(kernel: np.ndarray, rows: np.ndarray, grid: SpatialGrid):
    kernel = np.asarray(kernel, dtype=float)
    n = grid.n_x
    if kernel.shape != (2 * n - 1,):
        raise ShapeError(
            f"kernel must live on the displacement grid ({2 * n - 1},), "
            f"got {kernel.shape}"
        )
    return rows @ _quadrature_matrix(kernel.tobytes(), n, grid.h)


@functools.lru_cache(maxsize=2)
def _quadrature_matrix(kernel_bytes: bytes, n: int, h: float) -> np.ndarray:
    """Read-only n x n matrix M[j, i] = h * kernel[i - j + n - 1], so that a
    convolution of rows is ``rows @ M``.

    Keyed on the samples' bytes, not the array, so a kernel edited in place
    gets a new matrix; two entries hold a run's W and W' (0.72 MB each at
    n = 301).
    """
    windows = sliding_window_view(np.frombuffer(kernel_bytes), n)
    matrix = h * windows[::-1]  # windows[k, i] = kernel[k + i]
    matrix.flags.writeable = False
    return matrix


def mean_field_drift(
    table: PotentialTable, p: np.ndarray, grid: SpatialGrid
) -> np.ndarray:
    """Drift induced by a density through the kernel: -(W' * p)."""
    return -convolve(table.grad_w, p, grid)


def mean_field_drift_path(
    table: PotentialTable, p: np.ndarray, grid: SpatialGrid
) -> np.ndarray:
    return -convolve_path(table.grad_w, p, grid)


def reaction_term_path(
    table: PotentialTable, xi: np.ndarray, p: np.ndarray, grid: SpatialGrid
) -> np.ndarray:
    """Nonlocal reaction profiles -(W' * (p_t * d/dx log xi_t)), one per row
    of xi and p.

    Invariant under xi -> c * xi for c > 0 (only log-gradients enter).
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0) or not np.all(np.isfinite(xi)):
        raise PositivityError("reaction term needs strictly positive slices")
    integrand = np.asarray(p, dtype=float) * gradient(np.log(xi), grid)
    return -convolve_path(table.grad_w, integrand, grid)
