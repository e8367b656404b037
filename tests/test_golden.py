"""Pinned outputs of both bundled examples.

A refactor that keeps the fixed point keeps these numbers, up to where each
solve stops. A solve stops once a plain step of the outer map moves its
iterate by less than tol in the projective metric; when that map contracts
at rate lam, the plain step's output then lies within tol * lam / (1 - lam)
of the fixed point, however the iterate it started from was reached, so two
correct solves lie within twice that of each other. With lam at most
RATE_MAX, checked on every run, that is the SLACK below. By the equal-mass
bound ||f - g||_1 <= e^d - 1 of criterion 5, the slices of two densities at
Hilbert distance d differ by at most expm1(d) in L1; the endpoint and the
closed-loop residuals are held to that, and the cost to the same relative
change.

The solver mixes its iterates (Anderson acceleration), so the step ratios of
its trace no longer measure lam. plain_outer_solve below runs an unmixed map
with the same fixed point, computed another way: at each freeze it repeats
the Sinkhorn passes until the anchors move less than tol / 10, where the
solver makes one pass. Its fitted rate is the lam the slack needs, and its
result must lie within twice the stop distance of the accelerated one.
"""

import math

import pytest

from mfsb.kolmogorov import propagate_density
from mfsb.metrics import l1_distance, pair_distance, path_distance
from mfsb.sinkhorn import freeze_problem
from mfsb.solver import (
    BRIDGE_MAX_ITER,
    BRIDGE_TOL,
    _refined_density,
    classical_bridge_init,
    fit_geometric_rate,
)

from oracles import repeat_passes

RATE_MAX = 0.95

# plain_outer_solve repeats the Sinkhorn passes at each freeze until the
# anchors move less than this fraction of tol
INNER_TOL_FRACTION = 0.1

# cost, initial and final endpoint L1, closed-loop terminal L1
GOLDEN = {
    "example1": (
        1.8256696869537308, 5.73322728723298e-16, 7.493183982428799e-16,
        0.019110197776927188,
    ),
    "example2": (
        0.783857016340403, 2.1598408158460686e-16, 2.253448970010523e-16,
        0.01586385713744048,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_examples_reproduce_golden_values(name, request):
    sol, _ = request.getfixturevalue(f"{name}_run")
    cfg = sol.config
    assert sol.converged
    assert fit_geometric_rate(sol.trace.outer_dh) <= RATE_MAX
    slack = math.expm1(2.0 * cfg.tol * RATE_MAX / (1.0 - RATE_MAX))

    closed, _ = propagate_density(
        sol.p_in, sol.u, cfg.kernel_table, cfg.sigma, cfg.sgrid, cfg.tgrid
    )
    cost, l1_in, l1_fin, l1_closed = GOLDEN[name]
    assert sol.cost == pytest.approx(cost, rel=slack, abs=0.0)
    assert l1_distance(sol.p[0], sol.p_in, cfg.sgrid) == pytest.approx(l1_in, abs=slack)
    assert l1_distance(sol.p[-1], sol.p_fin, cfg.sgrid) == pytest.approx(
        l1_fin, abs=slack
    )
    assert l1_distance(closed[-1], sol.p_fin, cfg.sgrid) == pytest.approx(
        l1_closed, abs=slack
    )


def plain_outer_solve(cfg, p_in, p_fin):
    """The outer loop without mixing: from the classical bridge, refreeze,
    repeat Sinkhorn passes to tol / 10, refine and damp, until the density
    and pair steps are both below tol. Returns (p, density steps)."""
    sgrid, tgrid, table = cfg.sgrid, cfg.tgrid, cfg.kernel_table
    p_path, pair, _ = classical_bridge_init(
        p_in, p_fin, cfg.sigma, sgrid, tgrid,
        tol=min(cfg.tol, BRIDGE_TOL), max_iter=BRIDGE_MAX_ITER,
    )
    outer_dh = []
    for _ in range(cfg.n1):
        problem = freeze_problem(
            p_path, pair, table, p_in, p_fin, cfg.sigma, sgrid, tgrid
        )
        new_pair, _ = repeat_passes(
            problem, pair, INNER_TOL_FRACTION * cfg.tol, BRIDGE_MAX_ITER
        )
        d_pair = pair_distance(new_pair, pair)
        refined = _refined_density(p_path, new_pair, table, sgrid)[0]
        p_next = cfg.theta * refined + (1.0 - cfg.theta) * p_path
        outer_dh.append(path_distance(p_next, p_path))
        p_path, pair = p_next, new_pair
        if max(outer_dh[-1], d_pair) < cfg.tol:
            return p_path, outer_dh
    raise AssertionError(f"the plain map did not converge in {cfg.n1} steps")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_accelerated_solve_lands_at_the_plain_map_fixed_point(name, request):
    sol, _ = request.getfixturevalue(f"{name}_run")
    cfg = sol.config
    p_plain, outer_dh = plain_outer_solve(cfg, sol.p_in, sol.p_fin)
    assert fit_geometric_rate(outer_dh) <= RATE_MAX
    # the mixing pays: 16 and 13 evaluations against the plain 149 and 21
    assert sol.trace.outer_iterations <= min(20, len(outer_dh) - 5)
    assert path_distance(p_plain, sol.p) <= 2.0 * cfg.tol * RATE_MAX / (
        1.0 - RATE_MAX
    )
