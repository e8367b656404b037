"""Pinned outputs of both bundled examples.

A refactor that keeps the fixed point keeps these numbers, up to where each
solve stops. A solve stops once a step moves its iterate by less than tol in
the projective metric; when the iteration contracts at rate lam, the stopped
iterate then lies within tol * lam / (1 - lam) of the fixed point, so two
correct solves lie within twice that of each other. With lam at most
RATE_MAX, checked on every run, that is the SLACK below. By the equal-mass
bound ||f - g||_1 <= e^d - 1 of criterion 5, the slices of two densities at
Hilbert distance d differ by at most expm1(d) in L1; the endpoint and the
closed-loop residuals are held to that, and the cost to the same relative
change.
"""

import math
import warnings

import pytest

from mfsb.kolmogorov import propagate_density
from mfsb.metrics import l1_distance
from mfsb.solver import fit_geometric_rate

RATE_MAX = 0.95

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

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        closed = propagate_density(
            sol.p_in, sol.u, cfg.potential, cfg.sigma, cfg.sgrid, cfg.tgrid
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
