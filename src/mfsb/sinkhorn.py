"""Inner fixed-point loop: alternate the two sweeps against the boundary data.

One iteration sweeps the backward equation down from the terminal scaling,
re-anchors the forward scaling at t = 0 so the initial marginal is matched
exactly, sweeps forward, and re-anchors the terminal scaling so the final
marginal is matched. Drift and reaction profiles are frozen inside this loop;
convergence is measured with the Hilbert metric on the two anchor slices,
which is the natural (scale-free) distance for this iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoConvergence, PositivityError, ShapeError
from .grid import SpatialGrid, TimeGrid, check_field, check_path
from .kolmogorov import TransportOperators, integrate_backward, integrate_forward
from .metrics import hilbert_distance, l1_distance
from .potentials import (
    PotentialTable,
    convolve,
    mean_field_drift_path,
    reaction_term_path,
)


@dataclass(frozen=True)
class PairPath:
    """Backward/forward scaling paths (phi, phihat), both (n_t + 1, n_x) > 0."""

    phi: np.ndarray
    phihat: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        phihat = np.asarray(self.phihat, dtype=float)
        if phi.shape != phihat.shape or phi.ndim != 2:
            raise ShapeError(
                f"pair legs must share a 2-d shape, got {phi.shape} vs {phihat.shape}"
            )
        for name, leg in (("phi", phi), ("phihat", phihat)):
            if not np.all(np.isfinite(leg)) or leg.min() <= 0.0:
                raise PositivityError(f"{name} must be strictly positive and finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phihat", phihat)

    @property
    def product(self) -> np.ndarray:
        return self.phi * self.phihat


@dataclass(frozen=True)
class FrozenProblem:
    """Everything the inner loop needs, with drift and reaction held fixed.

    Built by :func:`freeze_problem`. ``ops`` carries the drift (as cached LU
    factors) and the grids; the reaction enters through the per-slice decay
    factors exp(-dt sigma^2 q) of each sweep, computed once per freeze.
    """

    ops: TransportOperators
    decay_phi: np.ndarray
    decay_phihat: np.ndarray
    p_in: np.ndarray
    p_fin: np.ndarray
    # exp(+/- 2 (W * marginal)) evaluated once; the + factors enter the anchor
    # updates, the - factors reconstruct the boundary densities for residuals
    exp_in_plus: np.ndarray
    exp_in_minus: np.ndarray
    exp_fin_plus: np.ndarray
    exp_fin_minus: np.ndarray


@dataclass
class InnerTrace:
    """Per-iteration anchor distances and the exit marginal residuals."""

    boundary_dh: list[float] = field(default_factory=list)
    residual_in: float = float("nan")
    residual_fin: float = float("nan")


def boundary_factors(
    table: PotentialTable,
    p_in: np.ndarray,
    p_fin: np.ndarray,
    grid: SpatialGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(e^{+2 W*p_in}, e^{-2 W*p_in}, e^{+2 W*p_fin}, e^{-2 W*p_fin})."""
    conv_in = 2.0 * convolve(table.w, p_in, grid)
    conv_fin = 2.0 * convolve(table.w, p_fin, grid)
    return np.exp(conv_in), np.exp(-conv_in), np.exp(conv_fin), np.exp(-conv_fin)


def freeze_problem(
    p_path: np.ndarray,
    pair: PairPath,
    table: PotentialTable,
    p_in: np.ndarray,
    p_fin: np.ndarray,
    sigma: float,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
) -> FrozenProblem:
    """Freeze drift and reaction at the given density and pair.

    Builds the transport operators of the drift -(W' * p_t), the anchor
    factors of both marginals and the decay factors of both legs: everything
    the inner loop holds fixed.
    """
    p_path = check_path(p_path, sgrid, tgrid)
    ops = TransportOperators(
        mean_field_drift_path(table, p_path, sgrid), sigma, sgrid, tgrid
    )
    in_plus, in_minus, fin_plus, fin_minus = boundary_factors(
        table, p_in, p_fin, sgrid
    )
    rate = -tgrid.dt * ops.sigma**2
    return FrozenProblem(
        ops=ops,
        decay_phi=np.exp(rate * reaction_term_path(table, pair.phi, p_path, sgrid)),
        decay_phihat=np.exp(
            rate * reaction_term_path(table, pair.phihat, p_path, sgrid)
        ),
        p_in=check_field(p_in, sgrid),
        p_fin=check_field(p_fin, sgrid),
        exp_in_plus=in_plus,
        exp_in_minus=in_minus,
        exp_fin_plus=fin_plus,
        exp_fin_minus=fin_minus,
    )


def _positive_anchor(name: str, slice_: np.ndarray) -> np.ndarray:
    if np.any(slice_ <= 0.0) or not np.all(np.isfinite(slice_)):
        raise PositivityError(f"{name} must be strictly positive for the anchor update")
    return slice_


def boundary_update_initial(
    phi0: np.ndarray, p_in: np.ndarray, exp_in_plus: np.ndarray
) -> np.ndarray:
    """Re-anchor the forward scaling: phihat_0 = (p_in / phi_0) e^{2 W*p_in}."""
    return (p_in / _positive_anchor("phi_0", phi0)) * exp_in_plus


def boundary_update_final(
    phihat1: np.ndarray, p_fin: np.ndarray, exp_fin_plus: np.ndarray
) -> np.ndarray:
    """Re-anchor the backward scaling: phi_1 = (p_fin / phihat_1) e^{2 W*p_fin}."""
    return (p_fin / _positive_anchor("phihat_1", phihat1)) * exp_fin_plus


def inner_sinkhorn(
    problem: FrozenProblem,
    start: PairPath,
    tol: float,
    max_iter: int,
) -> tuple[PairPath, int, InnerTrace]:
    """Iterate sweep + anchor updates until both anchors stop moving.

    Returns (pair, iterations, trace). The returned pair reproduces both
    boundary densities exactly: p_in = e^{-2 W*p_in} phi_0 phihat_0 by
    construction of the initial anchor, and the terminal phi slice is
    overwritten with its final anchor update so the same identity holds at
    t = 1. Raises NoConvergence when max_iter is exhausted.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    sg = problem.ops.sgrid
    phi1 = check_field(np.array(start.phi[-1], dtype=float), sg)
    phihat0_prev = check_field(np.array(start.phihat[0], dtype=float), sg)
    trace = InnerTrace()
    phi = phihat = None
    for i in range(max_iter):
        phi = integrate_backward(phi1, problem.decay_phi, problem.ops)
        phihat0 = boundary_update_initial(phi[0], problem.p_in, problem.exp_in_plus)
        phihat = integrate_forward(phihat0, problem.decay_phihat, problem.ops)
        phi1_new = boundary_update_final(
            phihat[-1], problem.p_fin, problem.exp_fin_plus
        )
        trace.boundary_dh.append(max(
            hilbert_distance(phi1_new, phi1),
            hilbert_distance(phihat0, phihat0_prev),
        ))
        phi1 = phi1_new
        phihat0_prev = phihat0
        if trace.boundary_dh[-1] < tol:
            phi[-1] = phi1_new
            pair = PairPath(phi=phi, phihat=phihat)
            trace.residual_in = l1_distance(
                problem.exp_in_minus * phi[0] * phihat[0], problem.p_in, sg
            )
            trace.residual_fin = l1_distance(
                problem.exp_fin_minus * phi[-1] * phihat[-1], problem.p_fin, sg
            )
            return pair, i + 1, trace
    raise NoConvergence(
        f"inner loop did not reach tol={tol} in {max_iter} iterations "
        f"(last anchor distance {trace.boundary_dh[-1]:.3e})",
        level="inner",
        indices=(max_iter,),
        last_distance=trace.boundary_dh[-1],
        trace=trace,
        partial=None if phi is None else PairPath(phi=phi, phihat=phihat),
    )
