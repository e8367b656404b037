"""Interaction kernels, their tabulation, and grid convolutions.

An interaction kernel W acts on the solver only through two sampled tables
(W, W') on the displacement grid [-(x_max - x_min), x_max - x_min] with
the same spacing h as the state grid, so that the discrete convolution

    (K * f)(x_i) = h * sum_j K(x_i - x_j) f(x_j)

is a product with the n_x x n_x matrix M[j, i] = h K[i - j + n_x - 1]. A
:class:`PotentialTable` builds the matrices of W and W' once, when it is
made, so a path of rows is convolved by one BLAS matrix product. Built-in
kernel families are evaluated analytically; tabulated kernels are fitted with
a cubic spline, whose first derivative is O(h^3) accurate for smooth data.
Both tables carry the overall strength factor beta.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, PositivityError, ShapeError
from .grid import SpatialGrid

# the fields each kind reads besides its kind; the others keep their defaults
_READS = {
    "zero": (),
    "power_repulsive": ("beta", "c", "alpha", "epsilon"),
    "gaussian_attractive": ("beta", "a", "s"),
    "tabulated": ("beta", "table_r", "table_w"),
}
# the parameters of each kind that must be finite and positive
_POSITIVE = {"power_repulsive": ("c", "epsilon"), "gaussian_attractive": ("a", "s")}


def _refuse_unread(spec, reads, error: type[Exception]) -> None:
    """Raise ``error`` naming the fields after the spec's kind that are not in
    ``reads`` and differ in value from their defaults."""
    unread = ", ".join(
        repr(f.name) for f in fields(spec)[1:]
        if f.name not in reads and (
            getattr(spec, f.name) is not None if f.default is None
            else getattr(spec, f.name) != f.default
        )
    )
    if unread:
        raise error(f"{type(spec).__name__} kind {spec.kind!r} does not read {unread}")


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of an interaction kernel, e.g.
    ``PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3)``.

    An unknown kind, a scalar parameter that is not a real number, a field
    the kind does not read that differs from its default, a parameter out of
    range, or tabulated samples that are not two equal 1-d sequences of at
    least 4 finite numbers are a DomainError.
    Tabulated samples are stored as tuples of floats sorted by displacement;
    the zero kernel reads no field and is stored with beta = 0.0."""

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
        if self.kind not in _READS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        for name in ("beta", "c", "alpha", "epsilon", "a", "s"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise DomainError(f"PotentialSpec {name} must be real, got {value!r}")
        # beta = 0.0 turns any kernel off, so the zero kernel may be given it
        reads = _READS[self.kind] + (("beta",) if self.beta == 0.0 else ())
        _refuse_unread(self, reads, DomainError)
        if self.kind == "zero":
            object.__setattr__(self, "beta", 0.0)
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise DomainError(f"beta must be finite and >= 0, got {self.beta}")
        for name in _POSITIVE.get(self.kind, ()):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise DomainError(f"{self.kind} needs a finite {name} > 0, got {value}")
        if self.kind == "power_repulsive" and not 0.0 < self.alpha < 1.0:
            raise DomainError(
                f"power_repulsive needs alpha in (0, 1), got {self.alpha}"
            )
        if self.kind == "tabulated":
            r = np.asarray(self.table_r, dtype=float)
            w = np.asarray(self.table_w, dtype=float)
            if r.ndim != 1 or r.shape != w.shape:
                raise DomainError("tabulated samples must be two equal 1-d arrays")
            if len(r) < 4:
                raise DomainError("tabulated potential needs >= 4 (r, W) samples")
            bad = _non_finite_samples("r, W", r, w)
            if bad:
                raise DomainError(f"tabulated potential samples must be finite: {bad}")
            # checked in the given order, so the message names the given
            # indices; stored sorted by displacement
            order = np.argsort(r)
            object.__setattr__(self, "table_r", tuple(r[order].tolist()))
            object.__setattr__(self, "table_w", tuple(w[order].tolist()))


@dataclass(frozen=True, eq=False)
class PotentialTable:
    """Sampled kernel and its derivative on the displacement grid, copied and
    read-only, with the read-only quadrature matrix of each: M[j, i] =
    h K[i - j + n - 1] for samples K of a state grid with n nodes, so that a
    convolution of rows is ``rows @ M``. Samples that are not one value per
    node of an odd grid are a ShapeError."""

    grid: SpatialGrid
    w: np.ndarray
    grad_w: np.ndarray
    w_matrix: np.ndarray = field(init=False, repr=False)
    grad_w_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = self.grid.n_x
        for name in ("w", "grad_w"):
            samples = np.array(getattr(self, name), dtype=float)
            if m % 2 == 0 or samples.shape != (m,):
                raise ShapeError(
                    f"{name} must live on an odd displacement grid, got "
                    f"{samples.shape} samples on {m} nodes"
                )
            # windows[k, i] = samples[k + i]
            matrix = self.grid.h * sliding_window_view(samples, (m + 1) // 2)[::-1]
            samples.flags.writeable = matrix.flags.writeable = False
            object.__setattr__(self, name, samples)
            object.__setattr__(self, f"{name}_matrix", matrix)


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
        return PotentialTable(dgrid, z, z)
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
    return PotentialSpec("tabulated", beta, table_r=data[:, 0], table_w=data[:, 1])


def _product(matrix: np.ndarray, f: np.ndarray, ndim: int) -> np.ndarray:
    """A field (ndim 1, taken as one row) or a path of rows (ndim 2) times a
    quadrature matrix; rows of another length are a ShapeError."""
    f = np.asarray(f, dtype=float)
    n = matrix.shape[0]
    if f.ndim != ndim or f.shape[-1] != n:
        raise ShapeError(f"expected {ndim}-d rows of length {n}, got {f.shape}")
    return f @ matrix if ndim == 2 else (f[None, :] @ matrix)[0]


def convolve(table: PotentialTable, f: np.ndarray) -> np.ndarray:
    """Quadrature convolution W * f of the table's kernel with a field.

    out[i] = h * sum_j W[(i - j) + n - 1] * f[j], computed as this sum: the
    product of f, as one row, with the table's matrix, O(n^2).
    """
    return _product(table.w_matrix, f, 1)


def convolve_path(table: PotentialTable, f: np.ndarray) -> np.ndarray:
    """Same quadrature convolution applied to every row of a path."""
    return _product(table.w_matrix, f, 2)


def mean_field_drift(table: PotentialTable, p: np.ndarray) -> np.ndarray:
    """Drift induced by a density through the kernel: -(W' * p)."""
    return -_product(table.grad_w_matrix, p, 1)


def mean_field_drift_path(table: PotentialTable, p: np.ndarray) -> np.ndarray:
    return -_product(table.grad_w_matrix, p, 2)


def reaction_term_path(
    table: PotentialTable, xi: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Nonlocal reaction profiles -(W' * (p_t * d/dx log xi_t)), one per row
    of xi and p, differentiated as :func:`mfsb.grid.gradient` does. xi and
    p of different shapes are a ShapeError.

    Invariant under xi -> c * xi for c > 0 (only log-gradients enter).
    """
    xi = np.asarray(xi, dtype=float)
    p = np.asarray(p, dtype=float)
    n = table.grad_w_matrix.shape[0]
    if xi.ndim != 2 or xi.shape[1] != n or p.shape != xi.shape:
        raise ShapeError(
            f"expected xi and p of one shape (*, {n}), got {xi.shape} and {p.shape}"
        )
    if np.any(xi <= 0.0) or not np.all(np.isfinite(xi)):
        raise PositivityError("reaction term needs strictly positive slices")
    integrand = p * np.gradient(np.log(xi), table.grid.h, axis=-1, edge_order=2)
    return -_product(table.grad_w_matrix, integrand, 2)
