"""The interacting solver against an exact solution.

A quadratic kernel W(r) = kappa r^2 / 2 gives the drift -kappa (x - m_t),
so the mean moves on the straight line between the marginals' means and the
centred part is a classical bridge under an Ornstein-Uhlenbeck prior, whose
cost between Gaussian marginals is closed form (``oracles.ou_bridge_cost``).
The kernel goes in as a plain table through the public API: no kernel kind
knows it is quadratic.
"""

import numpy as np
import pytest

import mfsb

from oracles import HAND_OU_BRIDGE_COST, ou_bridge_cost

SIGMA2 = 0.2
M0, S0, M1, S1 = -0.3, 0.04, 0.4, 0.02

# relative cost error (cost - exact) / exact at (n_x, n_t) = (301, 100) and
# (301, 200), measured with this solver. The error is not yet first order in
# dt: the upwind generator's space error keeps the kappa = +-1 errors from
# halving with dt
LADDER = {
    -1.0: (-1.308e-2, -1.007e-2),
    0.0: (-6.30e-3, -3.42e-3),
    1.0: (-1.243e-2, -1.018e-2),
}


def test_ou_bridge_cost_matches_hand_evaluation():
    cost = ou_bridge_cost(SIGMA2, 1.0, M0, S0, M1, S1)
    assert cost == pytest.approx(HAND_OU_BRIDGE_COST, abs=5e-7)


def test_ou_bridge_cost_is_continuous_in_kappa_at_zero():
    # the transition variance has its own branch at kappa = 0
    at_zero = ou_bridge_cost(SIGMA2, 0.0, M0, S0, M1, S1)
    for kappa in (1e-7, -1e-7):
        assert ou_bridge_cost(SIGMA2, kappa, M0, S0, M1, S1) == pytest.approx(
            at_zero, rel=1e-7
        )


@pytest.mark.parametrize("kappa", sorted(LADDER))
def test_quadratic_kernel_solve_matches_the_ou_bridge(kappa):
    r = np.linspace(-5.0, 5.0, 1001)
    cfg = mfsb.SolverConfig(
        sigma2=SIGMA2, theta=1.0, tol=1e-6,
        potential=mfsb.PotentialSpec(
            kind="tabulated", table_r=r, table_w=0.5 * kappa * r * r
        ),
        marginal_in=mfsb.MarginalSpec(
            kind="gaussian_mixture", weights=[1.0], means=[M0], variances=[S0]
        ),
        marginal_fin=mfsb.MarginalSpec(
            kind="gaussian_mixture", weights=[1.0], means=[M1], variances=[S1]
        ),
    )
    assert (cfg.n_x, cfg.n_t, cfg.x_min, cfg.x_max) == (301, 100, -2.0, 2.0)
    sol = mfsb.solve(cfg)
    assert sol.converged
    # the cost, within the measured error plus the amount one halving of dt
    # moved it: a regression of the discretization larger than that fails
    at_100, at_200 = LADDER[kappa]
    exact = ou_bridge_cost(SIGMA2, kappa, M0, S0, M1, S1)
    assert abs(sol.cost - exact) / exact <= abs(at_100) + abs(at_100 - at_200)
    # the mean path. At kappa = 0 it is the straight line to round-off; the
    # interaction's upwind drift bands move it by a space error that halves
    # with h (1.6e-4 at this h, 3.0e-4 at n_x = 151, 9.0e-5 at 601)
    h = cfg.sgrid.h
    mean = np.trapezoid(sol.p * cfg.sgrid.nodes, dx=h, axis=1)
    line = M0 + (M1 - M0) * np.linspace(0.0, 1.0, cfg.n_t + 1)
    bound = 1e-10 if kappa == 0.0 else h / 50.0
    assert np.abs(mean - line).max() <= bound
