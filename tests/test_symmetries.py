"""Two exact symmetries of the interacting solve, checked without a pinned
number on both bundled examples, coarsened so that the six solves stay fast.

Time reversal: swap the marginals. Both sweeps apply the same operators
(I - dt A_l)^{-1} and step with the operator and decay of the slice they
step to, so under t -> 1 - t the backward sweep of one problem is the
forward sweep of the other. The two anchors and the refinement treat phi
and phihat alike, and W is even. So the swapped problem's fixed point is the
original one reversed, with phi and phihat exchanged. Only the order of a
pass (backward sweep first) tells the two iterations apart: their iterates
differ, their fixed points do not. Each solve stops within
tol RATE_MAX / (1 - RATE_MAX) of its fixed point (see test_golden), so the
two lie within twice that of each other.

Mirror: reflect both marginals through the centre of the symmetric domain.
W is even, so the mean-field drift of the reflected density is the reflected
drift negated, and the upwind bands of that drift, boundary rows included,
are the reflected bands. The two solves then make the same steps on
reflected arrays and differ only in the order in which their sums round.
"""

import dataclasses
import math

import numpy as np
import pytest

from mfsb.config import example_config_path, load_config
from mfsb.marginals import MarginalSpec
from mfsb.metrics import path_distance
from mfsb.solver import solve

from test_golden import RATE_MAX

EPS = np.finfo(float).eps


def mirrored(spec):
    """A Gaussian-mixture marginal reflected through x = 0."""
    return MarginalSpec(
        kind="gaussian_mixture", weights=spec.weights,
        means=[-m for m in spec.means], variances=spec.variances,
    )


@pytest.fixture(scope="module", params=["example1", "example2"])
def solves(request):
    """(solution, solution with the marginals swapped, solution with them
    reflected) of a bundled example at n_x = 61, n_t = 20 and tol = 1e-10."""
    cfg = dataclasses.replace(
        load_config(example_config_path(request.param)), n_x=61, n_t=20, tol=1e-10
    )
    return (
        solve(cfg),
        solve(dataclasses.replace(
            cfg, marginal_in=cfg.marginal_fin, marginal_fin=cfg.marginal_in
        )),
        solve(dataclasses.replace(
            cfg,
            marginal_in=mirrored(cfg.marginal_in),
            marginal_fin=mirrored(cfg.marginal_fin),
        )),
    )


def test_swapping_the_marginals_reverses_the_solution(solves):
    sol, swapped, _ = solves
    bound = 2.0 * sol.config.tol * RATE_MAX / (1.0 - RATE_MAX)
    assert path_distance(swapped.p[::-1], sol.p) <= bound
    assert path_distance(swapped.pair.phi[::-1], sol.pair.phihat) <= bound
    assert path_distance(swapped.pair.phihat[::-1], sol.pair.phi) <= bound


def test_reflecting_the_marginals_reflects_the_solution(solves):
    sol, _, reflected = solves
    cfg = sol.config
    # every pass (of the bridge start or the outer loop) reaches an entry
    # through at most 2 n_t sweep steps and an n_x-term convolution sum,
    # each rounding once; sweeps and anchors do not expand the Hilbert
    # metric, so the passes' roundings add. A relative error e moves the
    # log ratio of a slice by e, and its spread, the Hilbert distance, by 2e.
    passes = len(sol.trace.init_dh) + sol.trace.outer_iterations
    d = 2.0 * passes * (2 * cfg.n_t + cfg.n_x) * EPS
    assert path_distance(reflected.p[:, ::-1], sol.p) <= d
    assert path_distance(reflected.pair.phi[:, ::-1], sol.pair.phi) <= d
    assert path_distance(reflected.pair.phihat[:, ::-1], sol.pair.phihat) <= d
    # the cost is (1/2) sum u^2 p with u = sigma d/dx log phi: the central
    # difference moves by at most d / (2h), so by Cauchy-Schwarz the cost
    # moves by sigma d / (2h) sqrt(2 cost), plus d from p and the roundings
    # of its own (n_t + 1) n_x-term sum
    cost_bound = (
        cfg.sigma * d / (2.0 * cfg.sgrid.h) * math.sqrt(2.0 / sol.cost)
        + d + (cfg.n_t + 1) * cfg.n_x * EPS
    )
    assert reflected.cost == pytest.approx(sol.cost, rel=cost_bound, abs=0.0)
