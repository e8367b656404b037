"""Tridiagonal transport operators and the implicit time-stepping built on them.

The linear operator discretized here is

    (A f)_i  =  sigma^2 * b_i * (grad f)_i  +  (sigma^2 / 2) * (lap f)_i

with monotone (upwind) advection and a no-flux closure at the domain ends:
off-diagonal entries of A are nonnegative and every row sums to zero, so
I - dt * A is a strictly diagonally dominant M-matrix. The backward and the
forward sweep are one loop run in opposite directions. Each step splits the
reaction off the transport: one LAPACK tridiagonal solve (gttrs) with the LU
factors of I - dt A_l of its target slice l, kept in
:class:`TransportOperators`, then a multiplication by that slice's decay
factor exp(-dt sigma^2 q_l). First order in dt, unconditionally stable,
positivity preserving.

Density propagation uses the conservative finite-volume form of the adjoint
problem on node-centered cells, again implicit, so mass is conserved to
round-off regardless of step size. :func:`propagate_density` returns the
density path together with its largest advective CFL number, its largest
per-step mass drift and its smallest node value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

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
    slice, stacked along the leading axis of each band. With D = sigma^2 /
    (2 h^2) and a = sigma^2 b / h, row i holds D - min(a_i, 0), -2D - |a_i|
    and D + max(a_i, 0). The two boundary rows turn the advection inward
    (even-reflection ghost): D + |a| beside -D - |a|. So the off-diagonals
    are nonnegative and every row sums to zero for either drift sign. A
    sigma that is not finite and positive is a DomainError.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] != grid.n_x:
        raise ShapeError(
            f"expected drift of shape ({grid.n_x},) or (*, {grid.n_x}), got {b.shape}"
        )
    dcoef = 0.5 * sigma * sigma / (grid.h * grid.h)
    a = sigma * sigma * b / grid.h
    speed = np.abs(a)
    up = np.maximum(a[..., :-1], 0.0)
    up[..., 0] = speed[..., 0]
    up += dcoef
    low = np.minimum(a[..., 1:], 0.0)
    low[..., -1] = -speed[..., -1]
    np.subtract(dcoef, low, out=low)
    diag = -2.0 * dcoef - speed
    diag[..., 0] = -dcoef - speed[..., 0]
    diag[..., -1] = -dcoef - speed[..., -1]
    return low, diag, up


class TransportOperators:
    """LU factors of (I - dt A_l) on every slice l of one drift path.

    The generators are assembled for the whole path at once, and each slice
    is factored once, by LAPACK gttrf, when the operators are built; a solve
    is then one gttrs call, and the backward and forward sweeps of a pass
    share the factors. On example1's grid, 101 gttrf and 200 gttrs calls
    cost about as much as the 200 gtsv calls they replace. The matrices are
    strictly diagonally dominant, so gttrf never pivots and a solve gives
    the bits of a gtsv on the same bands.
    """

    def __init__(
        self,
        b_path: np.ndarray,
        sigma: float,
        sgrid: SpatialGrid,
        tgrid: TimeGrid,
    ):
        low, diag, up = build_generator(check_path(b_path, sgrid, tgrid), sigma, sgrid)
        self.sgrid = sgrid
        self.tgrid = tgrid
        # the fresh bands become those of I - dt A, and each slice is
        # factored in place on their rows
        for band in (low, diag, up):
            band *= -tgrid.dt
        diag += 1.0
        self._factors = []
        for bands in zip(low, diag, up):
            *factors, info = dgttrf(*bands, 1, 1, 1)
            # the matrix is an M-matrix, but finite bands of huge magnitude
            # can still overflow in the elimination
            if info != 0:
                raise SolveError(f"gttrf failed with info={info}")
            self._factors.append(factors)

    def solve(self, l: int, rhs: np.ndarray) -> np.ndarray:
        """Apply (I - dt A_l)^{-1} to a slice."""
        return dgttrs(*self._factors[l], rhs)[0]


def _sweep(
    start: np.ndarray,
    decay: np.ndarray,
    ops: TransportOperators,
    order: range,
    name: str,
) -> np.ndarray:
    """Fill the slices of ``order`` from ``start`` at its first slice: each
    later slice l is decay[l] times the operator of slice l applied to the
    slice before it in ``order``."""
    start = check_field(start, ops.sgrid)
    if np.any(start <= 0.0) or not np.all(np.isfinite(start)):
        raise PositivityError("sweep boundary data must be strictly positive")
    decay = check_path(decay, ops.sgrid, ops.tgrid)
    path = np.empty(decay.shape)
    path[order[0]] = start
    # a diverging outer loop can overflow a sweep; the check below raises
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, l in zip(order, order[1:]):
            path[l] = decay[l] * ops.solve(l, path[prev])
    if path.min() <= 0.0 or not np.all(np.isfinite(path)):
        raise PositivityError(f"{name} sweep lost positivity")
    return path


def integrate_backward(
    phi_terminal: np.ndarray, decay: np.ndarray, ops: TransportOperators
) -> np.ndarray:
    """Sweep the backward equation from t = 1 down to t = 0.

    ``decay`` holds the per-slice reaction factors exp(-dt sigma^2 q). Returns
    the full (n_t + 1, n_x) path with path[n_t] = phi_terminal.
    """
    return _sweep(phi_terminal, decay, ops, range(ops.tgrid.n_t, -1, -1), "backward")


def integrate_forward(
    phihat_initial: np.ndarray, decay: np.ndarray, ops: TransportOperators
) -> np.ndarray:
    """Sweep the forward equation from t = 0 up to t = 1 (same split,
    mirrored direction: each step uses the operator of its target slice)."""
    return _sweep(phihat_initial, decay, ops, range(ops.tgrid.n_t + 1), "forward")


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

    path = np.empty((tgrid.n_t + 1, sgrid.n_x))
    mass = float(np.trapezoid(p_init, dx=h))
    if mass <= 0.0:
        raise PositivityError("initial density has nonpositive mass")
    path[0] = p_init / mass

    speed_max = 0.0
    drift_max = 0.0
    # a control near the float range overflows: the positivity check reports it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # sigma times the control of every step, sampled at its midpoint
        control = sigma * (0.5 * (u_path[:-1] + u_path[1:]))
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
                raise PositivityError(
                    f"density propagation lost positivity at step {l}"
                )
            drift_max = max(drift_max, abs(mass - 1.0))
            np.divide(p_new, mass, out=path[l + 1])

    return path, {
        "cfl_max": speed_max * dt / h,
        "mass_drift_max": drift_max,
        "min_density": float(path.min()),
    }
