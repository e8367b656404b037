"""One Sinkhorn pass (sweeps and anchor updates) and the classical bridge's
loop of passes: anchor factors and updates, convergence, and invariances."""

import numpy as np
import pytest

from mfsb.errors import DomainError, PositivityError, ShapeError
from mfsb.grid import SpatialGrid, TimeGrid, check_path, normalize
from mfsb.metrics import hilbert_distance, l1_distance, pair_distance
from mfsb.potentials import PotentialSpec, eval_potential
from mfsb import sinkhorn as sinkhorn_module
from mfsb.sinkhorn import PairPath, freeze_problem, inner_sinkhorn
from mfsb.solver import classical_bridge_init

from oracles import (
    anchor_distance,
    direct_convolution,
    direct_reaction,
    gaussian_density,
    integrate,
    repeat_passes,
)


def flat_start(p_in, tgrid):
    shape = (tgrid.n_t + 1, p_in.size)
    return PairPath(phi=np.ones(shape), phihat=np.tile(p_in, (tgrid.n_t + 1, 1)))


def kernel_problem(table, p_in, p_fin, sigma, sgrid, tgrid):
    """Freeze a problem with the given kernel table at the flat start."""
    pair = flat_start(p_in, tgrid)
    p_path = np.tile(p_in, (tgrid.n_t + 1, 1))
    return freeze_problem(p_path, pair, table, p_in, p_fin, sigma, sgrid, tgrid)


def classical_problem(p_in, p_fin, sigma, sgrid, tgrid):
    """Freeze a zero-interaction problem so only the sweeps and anchors act."""
    table = eval_potential(PotentialSpec(kind="zero"), sgrid)
    return kernel_problem(table, p_in, p_fin, sigma, sgrid, tgrid)


def marginal_residuals(problem, pair, sgrid):
    """L1 misfit of e^{-2 W*p} phi phihat against both marginals."""
    return (
        l1_distance(pair.phi[0] * pair.phihat[0] / problem.exp_in_plus,
                    problem.p_in, sgrid),
        l1_distance(pair.phi[-1] * pair.phihat[-1] / problem.exp_fin_plus,
                    problem.p_fin, sgrid),
    )


@pytest.fixture
def small_setup():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(16)
    p_in = gaussian_density(sgrid.nodes, 0.0, 0.04)
    p_fin = gaussian_density(sgrid.nodes, 0.5, 0.09)
    return sgrid, tgrid, p_in, p_fin


@pytest.fixture
def gauss_table(small_setup):
    return eval_potential(
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3), small_setup[0]
    )


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
# anchor factors and anchor updates


def test_boundary_factors_zero_kernel_are_ones(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    np.testing.assert_array_equal(problem.exp_in_plus, np.ones(sgrid.n_x))
    np.testing.assert_array_equal(problem.exp_fin_plus, np.ones(sgrid.n_x))


def test_boundary_factors_match_direct_convolution(small_setup, gauss_table):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = kernel_problem(gauss_table, p_in, p_fin, 0.5, sgrid, tgrid)
    for factor, p in ((problem.exp_in_plus, p_in), (problem.exp_fin_plus, p_fin)):
        np.testing.assert_allclose(
            factor,
            np.exp(2.0 * direct_convolution(gauss_table.w, p, sgrid.h)),
            rtol=1e-10,
        )


def test_anchor_update_reproduces_initial_marginal(small_setup):
    # without interaction one anchor update makes phi_0 phihat_0 = p_in, after
    # a single pass that is far from converged
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    start = flat_start(p_in, tgrid)
    pair = inner_sinkhorn(problem, start)
    assert anchor_distance(start, pair) > 1e-12
    np.testing.assert_allclose(pair.phi[0] * pair.phihat[0], p_in, rtol=1e-15)


def test_anchor_update_formula(small_setup, gauss_table):
    # with interaction the pair of a single pass satisfies the generalized
    # Hopf-Cole boundary identities p = e^{-2 W*p} phi phihat at both ends,
    # the exponent taken by direct quadrature
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = kernel_problem(gauss_table, p_in, p_fin, 0.5, sgrid, tgrid)
    pair = inner_sinkhorn(problem, flat_start(p_in, tgrid))
    for l, p in ((0, p_in), (-1, p_fin)):
        minus = np.exp(-2.0 * direct_convolution(gauss_table.w, p, sgrid.h))
        np.testing.assert_allclose(minus * pair.phi[l] * pair.phihat[l], p, rtol=1e-13)


def test_anchor_update_rejects_nonpositive_slice(small_setup):
    # a marginal with a zero, negative or NaN node would make its anchor
    # nonpositive; freezing refuses it and names the marginal
    sgrid, tgrid, p_in, p_fin = small_setup
    table = eval_potential(PotentialSpec(kind="zero"), sgrid)
    start = flat_start(p_in, tgrid)
    p_path = np.tile(p_in, (tgrid.n_t + 1, 1))
    zero_in, negative_fin, nan_in = p_in.copy(), p_fin.copy(), p_in.copy()
    zero_in[3] = 0.0
    negative_fin[0] = -1.0
    nan_in[5] = np.nan
    for q_in, q_fin, name in (
        (zero_in, p_fin, "p_in"), (p_in, negative_fin, "p_fin"),
        (nan_in, p_fin, "p_in"),
    ):
        with pytest.raises(PositivityError, match=name):
            freeze_problem(p_path, start, table, q_in, q_fin, 0.5, sgrid, tgrid)


def test_freeze_problem_checks_path_shape(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    table = eval_potential(PotentialSpec(kind="zero"), sgrid)
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
    table = eval_potential(
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3), sgrid
    )
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
# one pass


def test_one_pass_sweeps_each_way_once(small_setup, gauss_table, monkeypatch):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = kernel_problem(gauss_table, p_in, p_fin, 0.5, sgrid, tgrid)
    calls = []

    def counted(name):
        real = getattr(sinkhorn_module, name)

        def sweep(*args):
            calls.append(name)
            return real(*args)

        return sweep

    for name in ("integrate_backward", "integrate_forward"):
        monkeypatch.setattr(sinkhorn_module, name, counted(name))
    inner_sinkhorn(problem, flat_start(p_in, tgrid))
    assert calls == ["integrate_backward", "integrate_forward"]


def test_one_pass_reports_the_larger_anchor_distance(
    small_setup, gauss_table, rng
):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = kernel_problem(gauss_table, p_in, p_fin, 0.5, sgrid, tgrid)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    start = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.3),
        phihat=np.exp(rng.normal(size=shape) * 0.3),
    )
    # the pass returns its pair alone; the oracle's anchor distance, which
    # the bridge comparison below relies on, is the package metric's to the
    # bit
    pair = inner_sinkhorn(problem, start)
    assert isinstance(pair, PairPath)
    assert anchor_distance(start, pair) == max(
        hilbert_distance(pair.phi[-1], start.phi[-1]),
        hilbert_distance(pair.phihat[0], start.phihat[0]),
    )


def test_passes_from_the_flat_start_reproduce_the_classical_bridge(small_setup):
    # the bridge is nothing but repeated passes: passes from its flat start
    # to the same tol stop where it stopped and give its pair bit for bit
    sgrid, tgrid, p_in, p_fin = small_setup
    _, bridge, boundary_dh = classical_bridge_init(
        p_in, p_fin, 0.5, sgrid, tgrid, tol=1e-10
    )
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    pair, distances = repeat_passes(
        problem, flat_start(p_in, tgrid), 1e-10, len(boundary_dh)
    )
    assert len(boundary_dh) > 1
    assert distances == boundary_dh
    assert np.array_equal(pair.phi, bridge.phi)
    assert np.array_equal(pair.phihat, bridge.phihat)


# ---------------------------------------------------------------------------
# the classical bridge's loop of passes


def test_inner_loop_rejects_nonpositive_tolerance(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    with pytest.raises(DomainError, match="tol"):
        classical_bridge_init(p_in, p_fin, 0.5, sgrid, tgrid, tol=0.0)


def test_inner_loop_matches_both_marginals(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    _, pair, boundary_dh = classical_bridge_init(
        p_in, p_fin, 0.5, sgrid, tgrid, tol=1e-12
    )
    assert 1 <= len(boundary_dh) < 500
    # both endpoint densities are hit exactly by the anchor construction
    assert max(marginal_residuals(problem, pair, sgrid)) <= 1e-12
    assert l1_distance(pair.phi[0] * pair.phihat[0], p_in, sgrid) <= 1e-12
    assert l1_distance(pair.phi[-1] * pair.phihat[-1], p_fin, sgrid) <= 1e-12


def test_inner_loop_distances_contract(small_setup):
    sgrid, tgrid, p_in, p_fin = small_setup
    _, _, b = classical_bridge_init(p_in, p_fin, 0.5, sgrid, tgrid, tol=1e-12)
    assert b[-1] < 1e-12
    for i in range(1, len(b) - 1):
        assert b[i + 1] < b[i]


def test_inner_loop_converged_start_exits_in_one_iteration(small_setup):
    # from the bridge's converged pair, the first pass already moves the
    # anchors less than tol, so a loop of passes would stop after it
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    _, pair, _ = classical_bridge_init(p_in, p_fin, 0.5, sgrid, tgrid, tol=1e-10)
    assert anchor_distance(pair, inner_sinkhorn(problem, pair)) < 1e-10


def test_inner_loop_exhaustion_raises_with_partial_state(small_setup, monkeypatch):
    # the bridge start does not raise when its budget runs out: it returns
    # its last pair and distances, the last one at or above tol, and solve
    # raises NoConvergence on that
    monkeypatch.setattr("mfsb.solver.BRIDGE_MAX_ITER", 1)
    sgrid, tgrid, p_in, p_fin = small_setup
    p_path, pair, boundary_dh = classical_bridge_init(
        p_in, p_fin, 0.5, sgrid, tgrid, tol=1e-12
    )
    assert len(boundary_dh) == 1
    assert np.isfinite(boundary_dh[-1]) and boundary_dh[-1] >= 1e-12
    assert isinstance(pair, PairPath)
    assert pair.phi.shape == (tgrid.n_t + 1, sgrid.n_x)
    np.testing.assert_array_equal(p_path, normalize(pair.product, sgrid))


def test_inner_loop_is_scale_equivariant(small_setup):
    # rescaling the start by (2, 1/2) shifts nothing the metric can see: a
    # pass moves the anchors as far and gives the same projective pair
    sgrid, tgrid, p_in, p_fin = small_setup
    problem = classical_problem(p_in, p_fin, 0.5, sgrid, tgrid)
    start = flat_start(p_in, tgrid)
    scaled = PairPath(phi=2.0 * start.phi, phihat=0.5 * start.phihat)
    pair_a = inner_sinkhorn(problem, start)
    pair_b = inner_sinkhorn(problem, scaled)
    dh_a = anchor_distance(start, pair_a)
    dh_b = anchor_distance(scaled, pair_b)
    assert dh_a == pytest.approx(dh_b, rel=1e-12)
    assert pair_distance(pair_a, pair_b) <= 1e-12


def test_symmetric_bridge_has_time_reversal_symmetry():
    # equal marginals and zero drift: the converged forward scaling is the
    # time reversal of the backward one, up to one global constant
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(16)
    p = gaussian_density(sgrid.nodes, 0.0, 0.04)
    _, pair, _ = classical_bridge_init(p, p, 0.5, sgrid, tgrid, tol=1e-13)
    for l in range(tgrid.n_t + 1):
        assert hilbert_distance(pair.phi[l], pair.phihat[tgrid.n_t - l]) <= 1e-8


def test_inner_loop_on_experiment_marginals(shared_marginals):
    p_in, p_fin, sgrid, tgrid = shared_marginals
    problem = classical_problem(p_in, p_fin, 0.45, sgrid, tgrid)
    _, pair, boundary_dh = classical_bridge_init(
        p_in, p_fin, 0.45, sgrid, tgrid, tol=1e-10
    )
    assert len(boundary_dh) < 1000
    assert max(marginal_residuals(problem, pair, sgrid)) <= 1e-12
    check_path(pair.product, sgrid, tgrid)
    # interior slice masses stay near one for a bridge between unit masses
    mass_mid = integrate(pair.product[tgrid.n_t // 2], sgrid)
    assert mass_mid == pytest.approx(1.0, abs=0.05)
