"""Inner sweep/anchor loop: boundary updates, convergence, and invariances."""

import numpy as np
import pytest

from mfsb.errors import DomainError, NoConvergence, PositivityError, ShapeError
from mfsb.grid import SpatialGrid, TimeGrid, check_path, integrate
from mfsb.metrics import hilbert_distance, l1_distance, pair_distance
from mfsb.potentials import PotentialSpec, eval_potential
from mfsb.sinkhorn import (
    PairPath,
    boundary_factors,
    boundary_update_final,
    boundary_update_initial,
    freeze_problem,
    inner_sinkhorn,
)

from oracles import direct_convolution, direct_reaction, gaussian_density


def flat_start(p_in, tgrid):
    shape = (tgrid.n_t + 1, p_in.size)
    return PairPath(phi=np.ones(shape), phihat=np.tile(p_in, (tgrid.n_t + 1, 1)))


def classical_problem(p_in, p_fin, sigma, sgrid, tgrid):
    """Freeze a zero-interaction problem so only the sweeps and anchors act."""
    table = eval_potential(PotentialSpec.zero(), sgrid)
    pair = flat_start(p_in, tgrid)
    p_path = np.tile(p_in, (tgrid.n_t + 1, 1))
    return freeze_problem(p_path, pair, table, p_in, p_fin, sigma, sgrid, tgrid)


@pytest.fixture
def gauss_table(grid64):
    return eval_potential(PotentialSpec.gaussian_attractive(a=1.0, s=0.3), grid64)


@pytest.fixture
def small_setup():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(16)
    p_in = gaussian_density(sgrid.nodes, 0.0, 0.04)
    p_fin = gaussian_density(sgrid.nodes, 0.5, 0.09)
    return sgrid, tgrid, p_in, p_fin


# ---------------------------------------------------------------------------
# PairPath container


def test_pair_path_rejects_mismatched_legs():
    with pytest.raises(ShapeError):
        PairPath(phi=np.ones((3, 5)), phihat=np.ones((3, 6)))


def test_pair_path_rejects_one_dimensional_legs():
    with pytest.raises(ShapeError):
        PairPath(phi=np.ones(5), phihat=np.ones(5))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_pair_path_rejects_nonpositive_entries(bad):
    phi = np.ones((3, 5))
    phi[1, 2] = bad
    with pytest.raises(PositivityError):
        PairPath(phi=phi, phihat=np.ones((3, 5)))
    with pytest.raises(PositivityError):
        PairPath(phi=np.ones((3, 5)), phihat=phi)


def test_pair_path_product_is_elementwise(rng):
    phi = np.exp(rng.normal(size=(4, 7)))
    phihat = np.exp(rng.normal(size=(4, 7)))
    pair = PairPath(phi=phi, phihat=phihat)
    np.testing.assert_array_equal(pair.product, phi * phihat)


# ---------------------------------------------------------------------------
# boundary factors and anchor updates


def test_boundary_factors_zero_kernel_are_ones(grid64, rng):
    table = eval_potential(PotentialSpec.zero(), grid64)
    p = gaussian_density(grid64.nodes, 0.0, 0.04)
    for factor in boundary_factors(table, p, p, grid64):
        np.testing.assert_array_equal(factor, np.ones(grid64.n_x))


def test_boundary_factors_pair_off_to_reciprocals(gauss_table, grid64):
    p_in = gaussian_density(grid64.nodes, -0.3, 0.05)
    p_fin = gaussian_density(grid64.nodes, 0.4, 0.08)
    in_plus, in_minus, fin_plus, fin_minus = boundary_factors(
        gauss_table, p_in, p_fin, grid64
    )
    np.testing.assert_allclose(in_plus * in_minus, 1.0, rtol=1e-14)
    np.testing.assert_allclose(fin_plus * fin_minus, 1.0, rtol=1e-14)


def test_boundary_factors_match_direct_convolution(gauss_table, grid64):
    p_in = gaussian_density(grid64.nodes, -0.3, 0.05)
    p_fin = gaussian_density(grid64.nodes, 0.4, 0.08)
    in_plus, _, _, fin_minus = boundary_factors(gauss_table, p_in, p_fin, grid64)
    np.testing.assert_allclose(
        in_plus,
        np.exp(2.0 * direct_convolution(gauss_table.w, p_in, grid64.h)),
        rtol=1e-10,
    )
    np.testing.assert_allclose(
        fin_minus,
        np.exp(-2.0 * direct_convolution(gauss_table.w, p_fin, grid64.h)),
        rtol=1e-10,
    )


def test_anchor_update_reproduces_initial_marginal(grid64):
    p_in = gaussian_density(grid64.nodes, 0.0, 0.04)
    out = boundary_update_initial(np.ones(grid64.n_x), p_in, np.ones(grid64.n_x))
    np.testing.assert_array_equal(out, p_in)


def test_anchor_update_formula(grid64, rng):
    phi0 = positive = np.exp(rng.normal(size=grid64.n_x))
    p_fin = gaussian_density(grid64.nodes, 0.2, 0.05)
    factor = np.exp(rng.normal(size=grid64.n_x) * 0.1)
    out = boundary_update_final(positive, p_fin, factor)
    np.testing.assert_allclose(out, p_fin / phi0 * factor, rtol=1e-15)


def test_anchor_update_rejects_nonpositive_slice(grid64):
    p_in = gaussian_density(grid64.nodes, 0.0, 0.04)
    bad = np.ones(grid64.n_x)
    bad[3] = 0.0
    with pytest.raises(PositivityError):
        boundary_update_initial(bad, p_in, np.ones(grid64.n_x))
    with pytest.raises(PositivityError):
        boundary_update_final(-np.ones(grid64.n_x), p_in, np.ones(grid64.n_x))


def test_freeze_problem_checks_path_shape(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    table = eval_potential(PotentialSpec.zero(), sgrid)
    pair = flat_start(p_in, tgrid)
    with pytest.raises(ShapeError):
        freeze_problem(
            np.tile(p_in, (tgrid.n_t, 1)), pair, table, p_in, p_fin, 0.5, sgrid, tgrid
        )


def test_freeze_problem_zero_kernel_has_no_drift_or_reaction(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    # no reaction: every decay factor is exactly one
    np.testing.assert_array_equal(problem.decay_phi, 1.0)
    np.testing.assert_array_equal(problem.decay_phihat, 1.0)
    # no drift: the transport step keeps constants
    ones = np.ones(sgrid.n_x)
    for l in range(tgrid.n_t + 1):
        np.testing.assert_allclose(problem.ops.solve(l, ones), 1.0, rtol=1e-13)


def test_freeze_problem_decay_factors_match_reaction(small_setup, rng):
    # the frozen decay is exp(-dt sigma^2 q) with q the direct reaction
    # quadrature of each leg at the frozen density
    sgrid, tgrid, p_in, p_fin = small_setup
    sigma = 0.5
    table = eval_potential(PotentialSpec.gaussian_attractive(a=1.0, s=0.3), sgrid)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    p_path = np.tile(p_in, (tgrid.n_t + 1, 1))
    pair = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.3),
        phihat=np.exp(rng.normal(size=shape) * 0.3),
    )
    problem = freeze_problem(p_path, pair, table, p_in, p_fin, sigma, sgrid, tgrid)
    for decay, leg in ((problem.decay_phi, pair.phi), (problem.decay_phihat, pair.phihat)):
        for l in (0, tgrid.n_t // 2, tgrid.n_t):
            q = direct_reaction(table.grad_w, leg[l], p_path[l], sgrid.h)
            np.testing.assert_allclose(
                decay[l], np.exp(-tgrid.dt * sigma * sigma * q), rtol=1e-12
            )


# ---------------------------------------------------------------------------
# the loop itself


def test_inner_loop_rejects_nonpositive_tolerance(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    with pytest.raises(DomainError, match="tol"):
        inner_sinkhorn(problem, flat_start(p_in, tgrid), 0.0, 10)


def test_inner_loop_matches_both_marginals(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    pair, iterations, trace = inner_sinkhorn(problem, flat_start(p_in, tgrid), 1e-12, 500)
    assert 1 <= iterations < 500
    assert len(trace.boundary_dh) == iterations
    # both endpoint densities are hit exactly by the anchor construction
    assert trace.residual_in <= 1e-12
    assert trace.residual_fin <= 1e-12
    assert l1_distance(pair.phi[0] * pair.phihat[0], p_in, sgrid) <= 1e-12
    assert l1_distance(pair.phi[-1] * pair.phihat[-1], p_fin, sgrid) <= 1e-12


def test_inner_loop_distances_contract(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    _, iterations, trace = inner_sinkhorn(problem, flat_start(p_in, tgrid), 1e-12, 500)
    b = trace.boundary_dh
    assert b[-1] < 1e-12
    for i in range(1, len(b) - 1):
        assert b[i + 1] < b[i]


def test_inner_loop_converged_start_exits_in_one_iteration(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    pair, _, _ = inner_sinkhorn(problem, flat_start(p_in, tgrid), 1e-10, 500)
    _, iterations, trace = inner_sinkhorn(problem, pair, 1e-10, 500)
    assert iterations == 1
    assert trace.boundary_dh[0] < 1e-10


def test_inner_loop_exhaustion_raises_with_partial_state(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    with pytest.raises(NoConvergence) as info:
        inner_sinkhorn(problem, flat_start(p_in, tgrid), 1e-12, 1)
    exc = info.value
    assert exc.level == "inner"
    assert exc.indices == (1,)
    assert np.isfinite(exc.last_distance) and exc.last_distance > 1e-12
    assert isinstance(exc.partial, PairPath)
    assert exc.partial.phi.shape == (tgrid.n_t + 1, sgrid.n_x)
    assert len(exc.trace.boundary_dh) == 1


def test_inner_loop_is_scale_equivariant(small_setup):
    # rescaling the start by (2, 1/2) shifts nothing the metric can see: the
    # iteration count is identical and the result is the same projective pair
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    start = flat_start(p_in, tgrid)
    scaled = PairPath(phi=2.0 * start.phi, phihat=0.5 * start.phihat)
    pair_a, it_a, _ = inner_sinkhorn(problem, start, 1e-11, 500)
    pair_b, it_b, _ = inner_sinkhorn(problem, scaled, 1e-11, 500)
    assert it_a == it_b
    assert pair_distance(pair_a, pair_b) <= 1e-12


def test_symmetric_bridge_has_time_reversal_symmetry():
    # equal marginals and zero drift: the converged forward scaling is the
    # time reversal of the backward one, up to one global constant
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(16)
    p = gaussian_density(sgrid.nodes, 0.0, 0.04)
    problem = classical_problem(p, p, 0.5, sgrid, tgrid)
    pair, _, _ = inner_sinkhorn(problem, flat_start(p, tgrid), 1e-13, 500)
    for l in range(tgrid.n_t + 1):
        assert hilbert_distance(pair.phi[l], pair.phihat[tgrid.n_t - l]) <= 1e-8


def test_inner_loop_on_experiment_marginals(shared_marginals):
    p_in, p_fin, sgrid, tgrid = shared_marginals
    problem = classical_problem(p_in, p_fin, 0.45, sgrid, tgrid)
    pair, iterations, trace = inner_sinkhorn(
        problem, flat_start(p_in, tgrid), 1e-10, 1000
    )
    assert iterations < 1000
    assert trace.residual_in <= 1e-12
    assert trace.residual_fin <= 1e-12
    check_path(pair.product, sgrid, tgrid)
    # interior slice masses stay near one for a bridge between unit masses
    mass_mid = integrate(pair.product[tgrid.n_t // 2], sgrid)
    assert mass_mid == pytest.approx(1.0, abs=0.05)
