"""One Sinkhorn pass: the two sweeps against the boundary data.

A pass sweeps the backward equation down from the terminal scaling,
re-anchors the forward scaling at t = 0 so the initial marginal is matched
exactly, sweeps forward, and re-anchors the terminal scaling so the final
marginal is matched, with drift and reaction frozen. It reports how far the
two anchor slices moved in the Hilbert metric, the natural (scale-free)
distance. The solver makes one pass per freeze; only the classical bridge
(:func:`mfsb.solver.classical_bridge_init`) repeats passes, until that
distance drops below its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PositivityError, ShapeError
from .grid import SpatialGrid, TimeGrid, check_field, check_path
from .kolmogorov import TransportOperators, integrate_backward, integrate_forward
from .metrics import hilbert_distance
from .potentials import (
    PotentialTable,
    convolve,
    mean_field_drift_path,
    reaction_term_path,
)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class FrozenProblem:
    """Everything a Sinkhorn pass needs, with drift and reaction held fixed.

    Built by :func:`freeze_problem`. ``ops`` carries the drift (as the bands
    of the implicit transport step) and the grids; the reaction enters
    through the per-slice decay factors exp(-dt sigma^2 q) of each sweep,
    computed once per freeze.
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
    positive is a PositivityError; a kernel so large that a decay or anchor
    factor overflows is a DomainError naming those factors.
    """
    p_path = check_path(p_path, sgrid, tgrid)
    p_in = check_field(p_in, sgrid)
    p_fin = check_field(p_fin, sgrid)
    for name, p in (("p_in", p_in), ("p_fin", p_fin)):
        if not (np.all(np.isfinite(p)) and p.min() > 0.0):
            raise PositivityError(f"{name} must be strictly positive and finite")
    ops = TransportOperators(mean_field_drift_path(table, p_path), sigma, sgrid, tgrid)
    rate = -tgrid.dt * ops.sigma**2
    # a finite but huge kernel overflows these exponentials; the factors are
    # checked below, so numpy's own overflow warning would only repeat that
    with np.errstate(over="ignore"):
        factors = {
            "decay_phi": np.exp(rate * reaction_term_path(table, pair.phi, p_path)),
            "decay_phihat": np.exp(
                rate * reaction_term_path(table, pair.phihat, p_path)
            ),
            "exp_in_plus": np.exp(2.0 * convolve(table, p_in)),
            "exp_fin_plus": np.exp(2.0 * convolve(table, p_fin)),
        }
    overflowed = [name for name, f in factors.items() if not np.all(np.isfinite(f))]
    if overflowed:
        raise DomainError(
            f"the kernel is too large: exp overflows in {', '.join(overflowed)}"
        )
    return FrozenProblem(ops=ops, p_in=p_in, p_fin=p_fin, **factors)


def inner_sinkhorn(
    problem: FrozenProblem, start: PairPath
) -> tuple[PairPath, float]:
    """One Sinkhorn pass from start: backward sweep, t = 0 anchor, forward
    sweep, t = 1 anchor.

    Returns (pair, anchor_dh), anchor_dh the larger Hilbert distance either
    anchor slice moved from start's. The returned pair reproduces both
    boundary densities exactly: p_in = e^{-2 W*p_in} phi_0 phihat_0 by
    construction of the initial anchor, and the terminal phi slice is
    overwritten with the t = 1 anchor so the same identity holds at t = 1.
    """
    sg = problem.ops.sgrid
    phi1 = check_field(start.phi[-1], sg)
    phi = integrate_backward(phi1, problem.decay_phi, problem.ops)
    # the generalized Hopf-Cole anchors: phihat_0 = (p_in / phi_0)
    # e^{2 W*p_in}, then phi_1 = (p_fin / phihat_1) e^{2 W*p_fin}
    phihat0 = (problem.p_in / phi[0]) * problem.exp_in_plus
    phihat = integrate_forward(phihat0, problem.decay_phihat, problem.ops)
    phi[-1] = (problem.p_fin / phihat[-1]) * problem.exp_fin_plus
    anchor_dh = max(
        hilbert_distance(phi[-1], phi1),
        hilbert_distance(phihat0, check_field(start.phihat[0], sg)),
    )
    return PairPath(phi=phi, phihat=phihat), anchor_dh
