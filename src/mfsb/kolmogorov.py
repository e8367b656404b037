"""Tridiagonal transport operators and the implicit time-stepping built on them.

The linear operator discretized here is

    (A f)_i  =  sigma^2 * b_i * (grad f)_i  +  (sigma^2 / 2) * (lap f)_i

with monotone (upwind) advection and a no-flux closure at the domain ends:
off-diagonal entries of A are nonnegative and every row sums to zero, so
I - dt * A is a strictly diagonally dominant M-matrix. Each step of the two
sweeps splits the reaction off the transport: one LAPACK tridiagonal solve
(gtsv) on the bands of I - dt A kept in :class:`TransportOperators`, then a
multiplication by the slice's decay factor exp(-dt sigma^2 q). First order in
dt, unconditionally stable, positivity preserving.

Density propagation uses the conservative finite-volume form of the adjoint
problem on node-centered cells, again implicit, so mass is conserved to
round-off regardless of step size.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import CFLWarning, DomainError, PositivityError, ShapeError, SolveError
from .grid import SpatialGrid, TimeGrid, check_field, check_path
from .potentials import PotentialTable, mean_field_drift


def build_generator(
    b: np.ndarray, sigma: float, grid: SpatialGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the upwind advection + central diffusion generator.

    Returns its three bands ``(low, diag, up)``: ``low[i]`` is A[i+1, i] and
    ``up[i]`` is A[i, i+1], both of length n_x - 1. ``b`` is one drift field
    (n_x,) or a drift path (n_t + 1, n_x); a path gives one generator per
    slice, stacked along the leading axis of each band. At the two
    boundary rows the advection uses the inward difference with speed |v|
    (even-reflection ghost), which keeps the off-diagonals nonnegative and
    the row sums exactly zero for either drift sign.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] != grid.n_x:
        raise ShapeError(
            f"expected drift of shape ({grid.n_x},) or (*, {grid.n_x}), got {b.shape}"
        )
    h = grid.h
    n = grid.n_x
    lead = b.shape[:-1]
    dcoef = 0.5 * sigma * sigma / (h * h)
    v = sigma * sigma * b
    vp = np.maximum(v, 0.0)
    vm = np.minimum(v, 0.0)
    vp[..., 0], vm[..., 0] = np.abs(v[..., 0]), 0.0
    vp[..., -1], vm[..., -1] = 0.0, -np.abs(v[..., -1])

    diag = np.full(lead + (n,), -2.0 * dcoef)
    diag[..., 0] = diag[..., -1] = -dcoef
    diag -= (vp - vm) / h
    up = np.full(lead + (n - 1,), dcoef) + vp[..., :-1] / h
    low = np.full(lead + (n - 1,), dcoef) - vm[..., 1:] / h
    return low, diag, up


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), the exponential-fitting weight; B(0) = 1."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 - 0.5 * zs + zs * zs / 12.0
    zb = z[~small]
    with np.errstate(over="ignore"):
        out[~small] = zb / np.expm1(zb)  # overflow -> inf -> B = 0, the upwind limit
    return out


class TransportOperators:
    """The three bands of (I - dt A_l) on every slice l of one drift path.

    The generators are assembled for the whole path at once; each solve is
    one LAPACK gtsv call on the slice's bands. An outer step sweeps its
    operators only twice, too few to repay LU factors kept for reuse.
    """

    def __init__(
        self,
        b_path: np.ndarray,
        sigma: float,
        sgrid: SpatialGrid,
        tgrid: TimeGrid,
    ):
        low, diag, up = build_generator(check_path(b_path, sgrid, tgrid), sigma, sgrid)
        self.sigma = float(sigma)
        self.sgrid = sgrid
        self.tgrid = tgrid
        dt = tgrid.dt
        self._low, self._diag, self._up = -dt * low, 1.0 - dt * diag, -dt * up

    def solve(self, l: int, rhs: np.ndarray) -> np.ndarray:
        """Apply (I - dt A_l)^{-1} to a slice."""
        _, _, _, x, info = dgtsv(self._low[l], self._diag[l], self._up[l], rhs)
        if info != 0:  # pragma: no cover - the matrix is an M-matrix
            raise SolveError(f"gtsv failed with info={info}")
        return x


def _check_sweep_inputs(
    boundary: np.ndarray, decay: np.ndarray, ops: TransportOperators
) -> tuple[np.ndarray, np.ndarray]:
    boundary = check_field(boundary, ops.sgrid)
    if np.any(boundary <= 0.0) or not np.all(np.isfinite(boundary)):
        raise PositivityError("sweep boundary data must be strictly positive")
    return boundary, check_path(decay, ops.sgrid, ops.tgrid)


def integrate_backward(
    phi_terminal: np.ndarray, decay: np.ndarray, ops: TransportOperators
) -> np.ndarray:
    """Sweep the backward equation from t = 1 down to t = 0.

    ``decay`` holds the per-slice reaction factors exp(-dt sigma^2 q). Returns
    the full (n_t + 1, n_x) path with path[n_t] = phi_terminal.
    """
    phi_terminal, decay = _check_sweep_inputs(phi_terminal, decay, ops)
    n_t = ops.tgrid.n_t
    path = np.empty(decay.shape)
    path[n_t] = phi_terminal
    for l in range(n_t - 1, -1, -1):
        path[l] = decay[l] * ops.solve(l, path[l + 1])
    if path.min() <= 0.0 or not np.all(np.isfinite(path)):
        raise PositivityError("backward sweep lost positivity")
    return path


def integrate_forward(
    phihat_initial: np.ndarray, decay: np.ndarray, ops: TransportOperators
) -> np.ndarray:
    """Sweep the forward equation from t = 0 up to t = 1 (same split,
    mirrored direction: each step uses the operator of its target slice)."""
    phihat_initial, decay = _check_sweep_inputs(phihat_initial, decay, ops)
    path = np.empty(decay.shape)
    path[0] = phihat_initial
    for l in range(ops.tgrid.n_t):
        path[l + 1] = decay[l + 1] * ops.solve(l + 1, path[l])
    if path.min() <= 0.0 or not np.all(np.isfinite(path)):
        raise PositivityError("forward sweep lost positivity")
    return path


def propagate_density(
    p_init: np.ndarray,
    u_path: np.ndarray,
    table: PotentialTable,
    sigma: float,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
    report: dict | None = None,
) -> np.ndarray:
    """Push a density through the controlled interacting diffusion.

    Solves the nonlinear continuity equation closed-loop: each step samples
    the control as the average of its two endpoint slices (midpoint rule),
    evaluates the interaction drift explicitly from the current density, and
    advances with one implicit finite-volume step. Interface fluxes use
    exponential fitting, which reduces to the upwind flux at large cell
    Peclet numbers while staying monotone and free of spurious numerical
    diffusion at small ones; each step is one LAPACK tridiagonal solve
    (gtsv). Emits CFLWarning when the advective CFL number exceeds one
    (accuracy, not stability). ``table`` is the kernel the solver used
    (``SolverConfig.kernel_table``). Pass a dict as ``report`` to receive
    cfl_max, mass_drift_max (the largest per-step mass drift) and
    min_density (the minimum node value encountered). A sigma that is not
    finite and positive, or a control that is not finite, is a DomainError.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    p_init = check_field(p_init, sgrid)
    u_path = check_path(u_path, sgrid, tgrid)
    if not np.all(np.isfinite(u_path)):
        raise DomainError("control path must be finite")
    if np.any(p_init < 0.0) or not np.all(np.isfinite(p_init)):
        raise PositivityError("initial density must be nonnegative and finite")

    h = sgrid.h
    dt = tgrid.dt
    w = sgrid.weights
    dcoef = 0.5 * sigma * sigma / h

    path = np.empty((tgrid.n_t + 1, sgrid.n_x))
    mass = float(np.trapezoid(p_init, dx=h))
    if mass <= 0.0:
        raise PositivityError("initial density has nonpositive mass")
    path[0] = p_init / mass

    cfl_max = 0.0
    drift_max = 0.0
    for l in range(tgrid.n_t):
        p = path[l]
        u_step = 0.5 * (u_path[l] + u_path[l + 1])
        v = sigma * u_step + sigma * sigma * mean_field_drift(table, p, sgrid)
        v_if = 0.5 * (v[:-1] + v[1:])
        cfl_max = max(cfl_max, float(np.abs(v_if).max()) * dt / h)
        # interface flux F_k = a_k p_k + c_k p_{k+1}, exponentially fitted:
        # a_k = (D/h) B(-z_k) >= 0, c_k = -(D/h) B(z_k) <= 0, z_k = v_k h / D
        z_if = v_if / dcoef
        a_if = dcoef * _bernoulli(-z_if)
        c_if = -dcoef * _bernoulli(z_if)
        diag = w / dt
        diag[:-1] += a_if
        diag[1:] -= c_if
        _, _, _, p_new, info = dgtsv(-a_if, diag, c_if, (w / dt) * p)
        if info != 0:  # pragma: no cover - the matrix is an M-matrix
            raise SolveError(f"gtsv failed with info={info}")
        new_mass = float(np.trapezoid(p_new, dx=h))
        drift_max = max(drift_max, abs(new_mass - 1.0))
        if p_new.min() < 0.0 or not np.all(np.isfinite(p_new)):
            raise PositivityError(f"density propagation lost positivity at step {l}")
        path[l + 1] = p_new / new_mass

    if cfl_max > 1.0:
        warnings.warn(
            f"advective CFL number {cfl_max:.3g} exceeds 1; "
            "the implicit step remains stable but may smear the transport",
            CFLWarning,
            stacklevel=2,
        )
    if report is not None:
        report["cfl_max"] = cfl_max
        report["mass_drift_max"] = drift_max
        report["min_density"] = float(path.min())
    return path
