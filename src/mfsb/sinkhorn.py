"""Sinkhorn passes: alternate the two sweeps against the boundary data.

One pass sweeps the backward equation down from the terminal scaling,
re-anchors the forward scaling at t = 0 so the initial marginal is matched
exactly, sweeps forward, and re-anchors the terminal scaling so the final
marginal is matched, with drift and reaction frozen. The solver makes one
pass per freeze; the classical bridge repeats passes until the two anchor
slices stop moving in the Hilbert metric, the natural (scale-free) distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, PositivityError, ShapeError
from .grid import SpatialGrid, TimeGrid, check_field, check_path
from .kolmogorov import TransportOperators, integrate_backward, integrate_forward
from .metrics import hilbert_distance
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
    """Everything a Sinkhorn pass needs, with drift and reaction held fixed.

    Built by :func:`freeze_problem`. ``ops`` carries the drift (as cached LU
    factors) and the grids; the reaction enters through the per-slice decay
    factors exp(-dt sigma^2 q) of each sweep, computed once per freeze.
    """

    ops: TransportOperators
    decay_phi: np.ndarray
    decay_phihat: np.ndarray
    p_in: np.ndarray
    p_fin: np.ndarray
    # exp(2 (W * marginal)) evaluated once per freeze for the anchor updates
    exp_in_plus: np.ndarray
    exp_fin_plus: np.ndarray


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
    a Sinkhorn pass holds fixed. A marginal that is not finite and strictly
    positive is a PositivityError.
    """
    p_path = check_path(p_path, sgrid, tgrid)
    p_in = check_field(p_in, sgrid)
    p_fin = check_field(p_fin, sgrid)
    for name, p in (("p_in", p_in), ("p_fin", p_fin)):
        if not (np.all(np.isfinite(p)) and p.min() > 0.0):
            raise PositivityError(f"{name} must be strictly positive and finite")
    ops = TransportOperators(
        mean_field_drift_path(table, p_path, sgrid), sigma, sgrid, tgrid
    )
    rate = -tgrid.dt * ops.sigma**2
    return FrozenProblem(
        ops=ops,
        decay_phi=np.exp(rate * reaction_term_path(table, pair.phi, p_path, sgrid)),
        decay_phihat=np.exp(
            rate * reaction_term_path(table, pair.phihat, p_path, sgrid)
        ),
        p_in=p_in,
        p_fin=p_fin,
        exp_in_plus=np.exp(2.0 * convolve(table.w, p_in, sgrid)),
        exp_fin_plus=np.exp(2.0 * convolve(table.w, p_fin, sgrid)),
    )


def inner_sinkhorn(
    problem: FrozenProblem,
    start: PairPath,
    tol: float,
    max_iter: int,
) -> tuple[PairPath, list[float]]:
    """Iterate sweep + anchor updates until both anchors stop moving.

    Returns (pair, boundary_dh), the anchor distance of every iteration, so
    the iteration count is len(boundary_dh). The returned pair reproduces both
    boundary densities exactly: p_in = e^{-2 W*p_in} phi_0 phihat_0 by
    construction of the initial anchor, and the terminal phi slice is
    overwritten with its final anchor update so the same identity holds at
    t = 1. Raises NoConvergence, with the distances as its trace, when
    max_iter is exhausted.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    sg = problem.ops.sgrid
    phi1 = check_field(np.array(start.phi[-1], dtype=float), sg)
    phihat0_prev = check_field(np.array(start.phihat[0], dtype=float), sg)
    boundary_dh: list[float] = []
    for _ in range(max_iter):
        phi = integrate_backward(phi1, problem.decay_phi, problem.ops)
        # the generalized Hopf-Cole anchors: phihat_0 = (p_in / phi_0)
        # e^{2 W*p_in}, then phi_1 = (p_fin / phihat_1) e^{2 W*p_fin}
        phihat0 = (problem.p_in / phi[0]) * problem.exp_in_plus
        phihat = integrate_forward(phihat0, problem.decay_phihat, problem.ops)
        phi1_new = (problem.p_fin / phihat[-1]) * problem.exp_fin_plus
        boundary_dh.append(max(
            hilbert_distance(phi1_new, phi1),
            hilbert_distance(phihat0, phihat0_prev),
        ))
        phi1 = phi1_new
        phihat0_prev = phihat0
        if boundary_dh[-1] < tol:
            phi[-1] = phi1_new
            return PairPath(phi=phi, phihat=phihat), boundary_dh
    raise NoConvergence(
        f"inner loop did not reach tol={tol} in {max_iter} iterations "
        f"(last anchor distance {boundary_dh[-1]:.3e})",
        level="inner",
        indices=(max_iter,),
        last_distance=boundary_dh[-1],
        trace=boundary_dh,
        partial=PairPath(phi=phi, phihat=phihat),
    )
