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
round-off regardless of step size. :func:`propagate_density` returns the
density path together with its largest advective CFL number, its largest
per-step mass drift and its smallest node value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, PositivityError, ShapeError, SolveError
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
    the row sums exactly zero for either drift sign. A sigma that is not
    finite and positive is a DomainError.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
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
        # the matrix is an M-matrix, but finite bands of huge magnitude (a
        # kernel beta of 1e300) can still overflow in the elimination
        if info != 0:
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
) -> tuple[np.ndarray, dict]:
    """Push a density through the controlled interacting diffusion.

    Solves the nonlinear continuity equation closed-loop: each step samples
    the control as the average of its two endpoint slices (midpoint rule),
    evaluates the interaction drift explicitly from the current density, and
    advances with one implicit finite-volume step. Interface fluxes use
    exponential fitting, which reduces to the upwind flux at large cell
    Peclet numbers while staying monotone and free of spurious numerical
    diffusion at small ones; each step is one LAPACK tridiagonal solve
    (gtsv). ``table`` is the kernel the solver used
    (``SolverConfig.kernel_table``). Returns the (n_t + 1, n_x) density path
    and a report dict: cfl_max, the largest advective CFL number (above one
    the step stays stable but smears the transport), mass_drift_max, the
    largest per-step mass drift, and min_density, the smallest node value.
    A sigma that is not finite and positive, or a control that is not
    finite, is a DomainError.
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
    weights = sgrid.weights
    w_dt = weights / dt
    dcoef = 0.5 * sigma * sigma / h
    sigma2 = sigma * sigma
    # sigma times the control of every step, sampled at its midpoint
    control = sigma * (0.5 * (u_path[:-1] + u_path[1:]))

    path = np.empty((tgrid.n_t + 1, sgrid.n_x))
    mass = float(np.trapezoid(p_init, dx=h))
    if mass <= 0.0:
        raise PositivityError("initial density has nonpositive mass")
    path[0] = p_init / mass

    speed_max = 0.0
    drift_max = 0.0
    for l in range(tgrid.n_t):
        p = path[l]
        v = control[l] + sigma2 * mean_field_drift(table, p)
        v_if = 0.5 * (v[:-1] + v[1:])
        speed = np.abs(v_if)
        speed_max = max(speed_max, float(speed.max()))
        # interface flux F_k = a_k p_k - c_k p_{k+1}, exponentially fitted:
        # a_k = (D/h) B(-z_k), c_k = (D/h) B(z_k), z_k = v_k h / D and
        # B(z) = z / (e^z - 1). One evaluation at |z_k| gives both sides, as
        # B(-|z|) = B(|z|) + |z| adds two nonnegative terms.
        # (D/h) B(|z_k|) = |v_k| / (e^|z_k| - 1) is 0 where e^|z_k| overflows,
        # the upwind limit; fmin caps it at (D/h) B(0) = D/h, which B never
        # exceeds, and so also stands in for the 0/0 at v_k = 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            fitted = np.fmin(speed / np.expm1(speed / dcoef), dcoef)
        low = -fitted  # the sub-diagonal, -a_k
        low -= np.maximum(v_if, 0.0)
        up = np.minimum(v_if, 0.0)  # the super-diagonal, -c_k
        up -= fitted
        diag = w_dt.copy()
        diag[:-1] -= low
        diag[1:] -= up
        # the four arguments are temporaries, so gtsv may overwrite them
        _, _, _, p_new, info = dgtsv(low, diag, up, w_dt * p, 1, 1, 1, 1)
        if info != 0:  # pragma: no cover - the matrix is an M-matrix
            raise SolveError(f"gtsv failed with info={info}")
        mass = float(weights @ p_new)
        if not (p_new.min() >= 0.0 and math.isfinite(mass)):
            raise PositivityError(f"density propagation lost positivity at step {l}")
        drift_max = max(drift_max, abs(mass - 1.0))
        np.divide(p_new, mass, out=path[l + 1])

    return path, {
        "cfl_max": speed_max * dt / h,
        "mass_drift_max": drift_max,
        "min_density": float(path.min()),
    }
