"""Outer loop pieces: init bridge, refinement map, damping, Anderson mixing,
control, rates."""

import dataclasses
import re

import numpy as np
import pytest

from mfsb.errors import (
    ConfigError,
    DomainError,
    NoConvergence,
    PositivityError,
    ShapeError,
)
from mfsb.grid import SpatialGrid, TimeGrid, integrate, normalize
from mfsb.marginals import MarginalSpec, build_marginals
from mfsb.metrics import l1_distance, pair_distance, path_distance
from mfsb.particles import simulate
from mfsb.potentials import PotentialSpec, convolve, eval_potential
from mfsb.sinkhorn import PairPath, freeze_problem
from mfsb import sinkhorn as sinkhorn_module
from mfsb import solver as solver_module
from mfsb.solver import (
    ANDERSON_MEMORY,
    ConvergenceTrace,
    SolverConfig,
    Solution,
    _AndersonMixer,
    classical_bridge_init,
    _refined_density,
    _warm_start_density,
    contraction_constants,
    control_energy,
    optimal_control,
    solve,
)

from oracles import (
    HAND_DENSITY_GATE,
    HAND_LAMBDA,
    HAND_LAMBDA_NO_INTERACTION,
    HAND_LAMBDA_PAIR,
    dense_generator,
    direct_control_energy,
    direct_pair_density,
    field_variance,
    fit_geometric_rate,
    gaussian_density,
    repeat_passes,
)


def small_config(**overrides) -> SolverConfig:
    params = dict(
        sigma2=0.2,
        theta=1.0,
        tol=1e-9,
        potential=PotentialSpec.zero(),
        marginal_in=MarginalSpec.gaussian_mixture([1.0], [-0.3], [0.04]),
        marginal_fin=MarginalSpec.gaussian_mixture([1.0], [0.4], [0.06]),
        n_x=64,
        n_t=16,
        n1=10,
    )
    params.update(overrides)
    return SolverConfig(**params)


# ---------------------------------------------------------------------------
# classical bridge initializer


def test_classical_bridge_hits_both_marginals():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(16)
    p_in = gaussian_density(sgrid.nodes, -0.3, 0.04)
    p_fin = gaussian_density(sgrid.nodes, 0.4, 0.06)
    p_path, pair, boundary_dh = classical_bridge_init(
        p_in, p_fin, 0.45, sgrid, tgrid, tol=1e-10
    )
    assert p_path.shape == (tgrid.n_t + 1, sgrid.n_x)
    assert l1_distance(p_path[0], p_in, sgrid) <= 1e-8
    assert l1_distance(p_path[-1], p_fin, sgrid) <= 1e-8
    assert boundary_dh[-1] < 1e-10
    for mass in np.trapezoid(p_path, dx=sgrid.h, axis=1):
        assert mass == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("config", ["example1_config", "example2_config"])
def test_classical_bridge_propagates_by_the_dense_heat_power(request, config):
    # the bridge factors I - dt A_0 once and reuses the factors; its forward
    # leg must still end at M phihat_0 with M = (I - dt A_0)^{-n_t} formed
    # densely from the oracle's generator
    cfg = request.getfixturevalue(config)
    sgrid, tgrid = cfg.sgrid, cfg.tgrid
    _, pair, _ = classical_bridge_init(
        build_marginals(cfg.marginal_in, sgrid),
        build_marginals(cfg.marginal_fin, sgrid),
        cfg.sigma, sgrid, tgrid, tol=cfg.tol,
    )
    a = dense_generator(np.zeros(sgrid.n_x), cfg.sigma, sgrid.h)
    step = np.linalg.inv(np.eye(sgrid.n_x) - tgrid.dt * a)
    m = np.linalg.matrix_power(step, tgrid.n_t)
    np.testing.assert_allclose(pair.phihat[-1], m @ pair.phihat[0], rtol=1e-12, atol=0)


def test_classical_bridge_spreads_between_equal_marginals():
    # between two copies of the same Gaussian the bridge bulges: diffusion
    # widens the density away from the pinned endpoints
    sgrid = SpatialGrid(-2.0, 2.0, 128)
    tgrid = TimeGrid(20)
    p = gaussian_density(sgrid.nodes, 0.0, 0.04)
    p_path, _, _ = classical_bridge_init(p, p, 0.45, sgrid, tgrid, tol=1e-10)
    var_end = field_variance(p_path[0], sgrid.nodes, sgrid.h)
    var_mid = field_variance(p_path[tgrid.n_t // 2], sgrid.nodes, sgrid.h)
    assert var_mid > var_end + 0.01


def test_classical_bridge_rejects_bad_marginals():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(8)
    p = gaussian_density(sgrid.nodes, 0.0, 0.04)
    zeroed = p.copy()
    zeroed[0] = 0.0
    with pytest.raises(PositivityError):
        classical_bridge_init(p, zeroed, 0.45, sgrid, tgrid, tol=1e-10)
    with pytest.raises(ShapeError):
        classical_bridge_init(p[:-1], p[:-1], 0.45, sgrid, tgrid, tol=1e-10)


@pytest.mark.parametrize(
    "call, name, value",
    [
        ("simulate", "n", 200.0),
        ("simulate", "seed", 1.5),
        ("simulate", "seed", -1),
        ("simulate", "seed", "0"),
    ],
)
def test_counts_and_seeds_of_public_functions_are_checked(call, name, value):
    # each used to end in a bare TypeError or numpy's ValueError; numpy
    # integers are counts too, as in SolverConfig. simulate is the one call
    # left whose counts are checked here; the column keeps the cases' names
    sgrid = SpatialGrid(-2.0, 2.0, 41)
    tgrid = TimeGrid(10)
    p = gaussian_density(sgrid.nodes, 0.0, 0.04)
    u = np.zeros((tgrid.n_t + 1, sgrid.n_x))
    table = eval_potential(PotentialSpec.zero(), sgrid)
    args = {"n": np.int64(200), "seed": np.int32(1)}
    assert simulate(u, table, p, 0.5, **args, sgrid=sgrid, tgrid=tgrid).size == 200
    args[name] = value
    with pytest.raises(DomainError, match=name):
        simulate(u, table, p, 0.5, **args, sgrid=sgrid, tgrid=tgrid)


# ---------------------------------------------------------------------------
# density refinement and damping


def test_density_refinement_matches_direct_computation(rng):
    sgrid = SpatialGrid(-2.0, 2.0, 48)
    tgrid = TimeGrid(6)
    spec = PotentialSpec.gaussian_attractive(a=0.8, s=0.3)
    table = eval_potential(spec, sgrid)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    p_path = normalize(np.exp(rng.normal(size=shape) * 0.3), sgrid)
    pair = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.5),
        phihat=np.exp(rng.normal(size=shape) * 0.5),
    )
    out = _refined_density(p_path, pair.product, table, sgrid)[0]
    expected = direct_pair_density(table.w, p_path, pair.phi, pair.phihat, sgrid.h)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)
    for mass in np.trapezoid(out, dx=sgrid.h, axis=1):
        assert mass == pytest.approx(1.0, rel=1e-12)


def warm_start_setup(rng, **overrides):
    """A Gaussian-kernel config, a random positive pair and the marginals."""
    cfg = small_config(
        potential=PotentialSpec.gaussian_attractive(a=0.8, s=0.3), **overrides
    )
    shape = (cfg.n_t + 1, cfg.n_x)
    pair = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.3),
        phihat=np.exp(rng.normal(size=shape) * 0.3),
    )
    p_in = build_marginals(cfg.marginal_in, cfg.sgrid)
    p_fin = build_marginals(cfg.marginal_fin, cfg.sgrid)
    return cfg, pair, p_in, p_fin


def test_damping_endpoints_and_hand_value(rng):
    # one pass of the warm-start density map is the solver's damped step
    # theta * refined + (1 - theta) * previous, endpoints pinned to the
    # marginals: theta = 1 keeps the refined density exactly
    cfg, pair, p_in, p_fin = warm_start_setup(rng, n1=1)
    previous = normalize(pair.product, cfg.sgrid)
    refined = _refined_density(previous, pair.product, cfg.kernel_table, cfg.sgrid)[0]
    full = _warm_start_density(cfg, pair, p_in, p_fin)
    np.testing.assert_array_equal(full[1:-1], refined[1:-1])
    damped = _warm_start_density(
        dataclasses.replace(cfg, theta=0.7), pair, p_in, p_fin
    )
    np.testing.assert_allclose(
        damped[1:-1], 0.7 * refined[1:-1] + 0.3 * previous[1:-1], rtol=1e-15
    )
    for out in (full, damped):
        np.testing.assert_array_equal(out[0], p_in)
        np.testing.assert_array_equal(out[-1], p_fin)


@pytest.mark.parametrize("theta", [0.0, -0.2, 1.2, np.nan])
def test_damping_rejects_bad_weight(theta):
    # the damping weight is checked once, when the config is built
    with pytest.raises(ConfigError, match="theta"):
        small_config(theta=theta)


def test_damping_rejects_shape_mismatch():
    # a warm pair on other grids is refused before the damped step mixes it
    # with a density of the config's shape
    cfg = small_config()
    wrong = PairPath(phi=np.ones((cfg.n_t + 1, cfg.n_x - 1)),
                     phihat=np.ones((cfg.n_t + 1, cfg.n_x - 1)))
    with pytest.raises(ShapeError):
        solve(cfg, warm_pair=wrong)


def test_damping_preserves_unit_mass(rng):
    cfg, pair, p_in, p_fin = warm_start_setup(rng, theta=0.7, n1=5)
    out = _warm_start_density(cfg, pair, p_in, p_fin)
    for mass in np.trapezoid(out, dx=cfg.sgrid.h, axis=1):
        assert mass == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n1, verdict", [(2, "not reached"), (200, "reached")])
def test_warm_start_density_logs_whether_it_reached_tol(rng, caplog, n1, verdict):
    cfg, pair, p_in, p_fin = warm_start_setup(rng, theta=0.7, n1=n1)
    with caplog.at_level("DEBUG", logger="mfsb"):
        _warm_start_density(cfg, pair, p_in, p_fin)
    [line] = [r.getMessage() for r in caplog.records]
    passes, step = re.fullmatch(
        r"warm-start density: (\d+) passes, last step (\S+), tol " + verdict, line
    ).groups()
    assert (int(passes) == n1) == (verdict == "not reached")
    assert (float(step) < cfg.tol) == (verdict == "reached")


# ---------------------------------------------------------------------------
# control and cost


def test_control_of_constant_scaling_vanishes():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    pair = PairPath(phi=np.full((5, 64), 2.7), phihat=np.ones((5, 64)))
    u = optimal_control(pair, 0.45, sgrid)
    assert np.abs(u).max() <= 1e-12


def test_control_of_exponential_scaling_is_constant():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    slope = 0.8
    phi = np.exp(slope * np.tile(sgrid.nodes, (4, 1)))
    pair = PairPath(phi=phi, phihat=np.ones_like(phi))
    u = optimal_control(pair, 0.45, sgrid)
    np.testing.assert_allclose(u, 0.45 * slope, rtol=1e-11, atol=1e-12)


def test_control_energy_of_zero_control_is_zero():
    sgrid = SpatialGrid(-2.0, 2.0, 32)
    tgrid = TimeGrid(4)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    p = normalize(np.ones(shape), sgrid)
    assert control_energy(np.zeros(shape), p, sgrid, tgrid) == 0.0


def test_control_energy_of_constant_control():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(8)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    p = normalize(
        np.tile(gaussian_density(sgrid.nodes, 0.0, 0.04), (shape[0], 1)), sgrid
    )
    c = 1.7
    cost = control_energy(np.full(shape, c), p, sgrid, tgrid)
    assert cost == pytest.approx(0.5 * c * c, rel=1e-12)


def test_control_energy_matches_direct_quadrature(rng):
    sgrid = SpatialGrid(-2.0, 2.0, 48)
    tgrid = TimeGrid(6)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    u = rng.normal(size=shape)
    p = normalize(np.exp(rng.normal(size=shape)), sgrid)
    cost = control_energy(u, p, sgrid, tgrid)
    assert cost == pytest.approx(
        direct_control_energy(u, p, sgrid.h, tgrid.dt), rel=1e-12
    )


# ---------------------------------------------------------------------------
# pair map (one refreeze) and full solve


def update_pair(p_path, pair, cfg):
    """Refreeze drift and reaction at (p_path, pair) and repeat Sinkhorn
    passes at that freeze until the anchors stop moving, which the solver
    itself never does at a nonzero kernel."""
    sgrid, tgrid = cfg.sgrid, cfg.tgrid
    problem = freeze_problem(
        p_path, pair, cfg.kernel_table,
        build_marginals(cfg.marginal_in, sgrid),
        build_marginals(cfg.marginal_fin, sgrid),
        cfg.sigma, sgrid, tgrid,
    )
    return repeat_passes(problem, pair, cfg.tol, 500)[0]


def test_pair_update_without_interaction_is_start_independent(rng):
    cfg = small_config(tol=1e-11)
    shape = (cfg.n_t + 1, cfg.n_x)
    p_path = normalize(
        np.tile(gaussian_density(cfg.sgrid.nodes, 0.0, 0.08), (shape[0], 1)),
        cfg.sgrid,
    )
    flat = PairPath(phi=np.ones(shape), phihat=np.ones(shape))
    bumpy = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.2),
        phihat=np.exp(rng.normal(size=shape) * 0.2),
    )
    pair_a = update_pair(p_path, flat, cfg)
    pair_b = update_pair(p_path, bumpy, cfg)
    assert pair_distance(pair_a, pair_b) <= 1e-9


def test_pair_update_is_a_fixed_point_map(rng):
    cfg = small_config(
        potential=PotentialSpec.gaussian_attractive(a=0.5, s=0.3, beta=0.05),
        tol=1e-11,
    )
    shape = (cfg.n_t + 1, cfg.n_x)
    p_path = normalize(
        np.tile(gaussian_density(cfg.sgrid.nodes, 0.0, 0.08), (shape[0], 1)),
        cfg.sgrid,
    )
    start = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.2),
        phihat=np.exp(rng.normal(size=shape) * 0.2),
    )
    pair1 = update_pair(p_path, start, cfg)
    pair2 = update_pair(p_path, pair1, cfg)
    pair3 = update_pair(p_path, pair2, cfg)
    pair4 = update_pair(p_path, pair3, cfg)
    d1 = pair_distance(pair2, pair1)
    d2 = pair_distance(pair3, pair2)
    d3 = pair_distance(pair4, pair3)
    # with a weak kernel the refreeze map contracts hard at every step
    assert d2 < 0.1 * d1
    assert d3 < 0.1 * d2
    assert d3 < 1e-5


def test_solve_without_interaction_stops_after_one_outer_pass():
    cfg = small_config()
    sol = solve(cfg)
    assert sol.converged
    assert sol.trace.outer_iterations == 1
    assert sol.trace.converged
    sgrid = cfg.sgrid
    assert l1_distance(sol.p[0], sol.p_in, sgrid) <= 1e-8
    assert l1_distance(sol.p[-1], sol.p_fin, sgrid) <= 1e-8
    assert sol.u.shape == sol.p.shape
    assert sol.cost > 0.0
    assert sol.trace.min_density > 0.0
    assert sol.trace.min_phi > 0.0


def test_solve_matches_classical_bridge_without_interaction():
    cfg = small_config()
    sol = solve(cfg)
    p_path, _, _ = classical_bridge_init(
        sol.p_in, sol.p_fin, cfg.sigma, cfg.sgrid, cfg.tgrid, tol=1e-12
    )
    worst = max(
        l1_distance(sol.p[l], p_path[l], cfg.sgrid) for l in range(cfg.n_t + 1)
    )
    assert worst <= 1e-8


@pytest.mark.parametrize("run_fixture", ["example1_run", "example2_run"])
def test_bridge_start_stops_at_the_first_pass_below_tol(request, run_fixture):
    # the start has no stopping rule of its own: the outer loop's stop test
    # certifies the answer, so passes beyond tol would only cost time
    sol, _ = request.getfixturevalue(run_fixture)
    init_dh = sol.trace.init_dh
    assert init_dh[-1] < sol.config.tol <= init_dh[-2]


@pytest.mark.parametrize("run_fixture", ["example1_run", "example2_run"])
def test_warm_start_from_a_converged_pair_stays_at_the_fixed_point(
    request, run_fixture
):
    # the restored density is rebuilt at the fixed point of the density map,
    # so the resumed solve only confirms it
    sol, _ = request.getfixturevalue(run_fixture)
    cfg = sol.config
    warm = solve(cfg, warm_pair=sol.pair)
    assert warm.trace.init_dh == []
    assert warm.trace.outer_iterations <= 2
    assert path_distance(warm.p, sol.p) <= 10.0 * cfg.tol
    assert abs(warm.cost - sol.cost) / abs(sol.cost) <= 10.0 * cfg.tol


@pytest.mark.parametrize("run_fixture", ["example1_run", "example2_run"])
def test_returned_endpoints_are_the_marginals_to_round_off(request, run_fixture):
    # Both solves end on an evaluation at a mixed iterate, whose end slices
    # are the marginals themselves. The anchors then make the end slice of
    # the returned density normalize(p e^{2c - 2c'}) times round-off, with c
    # and c' the same convolution W * p taken in two BLAS products. Counted
    # in units of u = eps/2, to first order:
    # - the exponent: each n-term dot product of same-sign terms is off by
    #   at most n u |c| (Higham's gamma_n), so 2c - 2c' by 4 n u |c|;
    # - two exps (1 ulp each, 4), the anchor's division and product (2), the
    #   product phi phihat (1), the product with e^{-2c'} (1): 8;
    # - normalizing: the raw error enters twice (pointwise and through the
    #   mass), the trapezoid mass is off by n u and the marginal's own mass
    #   by (n + 1) u, and the division adds 1;
    # - damping by theta: two products and a sum, 3.
    # Total (21 + 2n + 8 n |c|) u: 9.4e-13 to 1.1e-12 on example1 and 2.1e-13
    # to 3.1e-13 on example2, where the largest gaps are 6.7e-15 and 2.2e-15.
    sol, _ = request.getfixturevalue(run_fixture)
    cfg = sol.config
    n = cfg.n_x
    u = np.finfo(float).eps / 2.0
    for got, spec in ((sol.p[0], cfg.marginal_in), (sol.p[-1], cfg.marginal_fin)):
        marginal = build_marginals(spec, cfg.sgrid)
        c = np.abs(convolve(cfg.kernel_table, marginal)).max()
        bound = (21 + 2 * n + 8 * n * c) * u
        assert np.abs(got / marginal - 1.0).max() <= bound


def test_solve_makes_one_sinkhorn_pass_per_evaluation(monkeypatch):
    # the bridge start sweeps on its own factored step and makes no pass;
    # every outer evaluation sweeps backward exactly once
    sweeps = []
    real = sinkhorn_module.integrate_backward

    def counting(*args):
        sweeps.append(1)
        return real(*args)

    monkeypatch.setattr(sinkhorn_module, "integrate_backward", counting)
    sol = solve(small_config(
        potential=PotentialSpec.gaussian_attractive(a=0.5, s=0.3, beta=0.05),
        n1=30,
    ))
    assert sol.trace.outer_iterations > 1
    assert len(sweeps) == sol.trace.outer_iterations
    assert sol.trace.inner_iterations == [[1]] * sol.trace.outer_iterations


def assert_partial_solution(exc, cfg):
    """The partial of a solve's NoConvergence is an unconverged Solution of
    the last iterate, sharing the exception's trace."""
    sol = exc.partial
    assert isinstance(sol, Solution)
    assert sol.converged is False
    assert sol.config is cfg
    assert sol.trace is exc.trace
    u = optimal_control(sol.pair, cfg.sigma, cfg.sgrid)
    np.testing.assert_array_equal(sol.u, u)
    assert sol.cost == control_energy(u, sol.p, cfg.sgrid, cfg.tgrid)


def test_solve_exhausting_outer_budget_raises_with_partial():
    cfg = small_config(
        potential=PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=0.01),
        theta=0.7,
        tol=1e-9,
        n1=1,
    )
    with pytest.raises(NoConvergence) as info:
        solve(cfg)
    exc = info.value
    assert exc.level == "outer"
    assert np.isfinite(exc.last_distance)
    assert_partial_solution(exc, cfg)
    assert exc.trace.outer_iterations == 1
    assert len(exc.trace.outer_dh) == 1


def test_solve_exhausting_bridge_budget_attaches_normalized_product(monkeypatch):
    # the bridge start needs 10 passes to reach this config's tol, so a
    # budget of 5 runs out
    monkeypatch.setattr("mfsb.solver.BRIDGE_MAX_ITER", 5)
    cfg = small_config()
    with pytest.raises(NoConvergence) as info:
        solve(cfg)
    exc = info.value
    assert exc.level == "inner"
    assert isinstance(exc.trace, ConvergenceTrace)
    assert len(exc.trace.init_dh) == solver_module.BRIDGE_MAX_ITER
    assert exc.last_distance == exc.trace.init_dh[-1] >= cfg.tol
    assert str(exc).startswith("the classical-bridge start did not reach tol")
    assert "in 5 passes" in str(exc)
    assert exc.trace.outer_dh == []
    assert_partial_solution(exc, cfg)
    pair = exc.partial.pair
    np.testing.assert_array_equal(
        exc.partial.p, normalize(pair.product, cfg.sgrid)
    )
    # the trace's minima are those of the partial, not their unset inf
    assert exc.trace.min_phi == pair.phi.min()
    assert exc.trace.min_phihat == pair.phihat.min()
    assert exc.trace.min_density == exc.partial.p.min()


def test_solver_config_validation():
    with pytest.raises(Exception, match="theta"):
        small_config(theta=1.5)
    with pytest.raises(Exception, match="sigma2"):
        small_config(sigma2=-1.0)
    with pytest.raises(Exception, match="n_x"):
        small_config(n_x=4)
    with pytest.raises(Exception, match="verify_n"):
        small_config(verify_n=10)
    # the grids check the domain when the config is made
    for ends in ({"x_min": float("nan")}, {"x_max": float("inf")}):
        with pytest.raises(DomainError, match="finite"):
            small_config(**ends)
    # at or below 320 machine epsilons tol sits within about 3x of where the
    # outer steps stall
    for tol in (0.0, float("nan"), 5e-324, 1e-14, 320 * np.finfo(float).eps):
        with pytest.raises(ConfigError, match="tol"):
            small_config(tol=tol)
    for tol in (1e-13, 1e-6):
        assert small_config(tol=tol).tol == tol
    # a count must be an integer when the config is made, not a TypeError
    # deep in the solve or the verification; numpy integers are integers
    for name, value in (("n1", 2.5), ("n1", 10.0), ("verify_n", 1000.0),
                        ("seed", 1.5), ("seed", "0")):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            small_config(**{name: value})
    for name, value in (("n_x", 41.0), ("n_t", 10.0)):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            small_config(**{name: value})
    cfg = small_config(n_x=np.int64(41), n_t=np.int32(10), n1=np.int64(3),
                       verify_n=np.int64(1000), seed=np.uint8(1))
    assert (cfg.sgrid.n_x, cfg.tgrid.n_t) == (41, 10)


# ---------------------------------------------------------------------------
# Anderson mixing of the outer loop

AFFINE_B = np.array([1.0, -2.0])


def affine_solve(a, mixer, tol=1e-10, budget=1000):
    """Iterate x -> a x + b from 0, through mixer when given, until a plain
    step is below tol; returns (x, evaluations, kinds of the iterates)."""
    x = np.zeros(2)
    kinds = []
    for evaluations in range(1, budget + 1):
        g = a @ x + AFFINE_B
        step = float(np.abs(g - x).max())
        if step < tol:
            return x, evaluations, kinds
        state, kind = (None, "plain") if mixer is None else mixer.step(g - x, g, step)
        kinds.append(kind)
        x = g if state is None else state
    raise AssertionError(f"no convergence in {budget} evaluations")


def test_mixing_solves_an_affine_contraction_in_a_few_evaluations():
    a = np.array([[0.95, 0.3], [0.0, 0.5]])  # spectral radius 0.95
    fixed = np.linalg.solve(np.eye(2) - a, AFFINE_B)
    x, mixed, kinds = affine_solve(a, _AndersonMixer(2, ANDERSON_MEMORY))
    assert mixed <= 5
    assert kinds[0] == "plain" and set(kinds[1:]) == {"mixed"}
    np.testing.assert_allclose(x, fixed, rtol=0.0, atol=1e-9)
    _, plain, _ = affine_solve(a, None)
    assert plain > 100


def test_mixing_falls_back_to_the_plain_step_when_the_step_grows():
    # strongly non-normal: the first mixed iterate's plain step is larger
    # than that of the plain iterate it was mixed from
    a = np.array([[0.95, 20.0], [0.0, 0.5]])
    mixer = _AndersonMixer(2, ANDERSON_MEMORY)
    steps = []
    x = np.zeros(2)
    for expected in ("plain", "mixed", "fallback"):
        g = a @ x + AFFINE_B
        steps.append(float(np.abs(g - x).max()))
        state, kind = mixer.step(g - x, g, steps[-1])
        assert kind == expected
        if kind == "mixed":
            accepted_output = g.copy()
        x = g if state is None else state
    assert steps[2] > steps[1]
    np.testing.assert_array_equal(x, accepted_output)
    assert (mixer.count, mixer.restarts) == (0, 1)
    # the fallback iterate is taken as it comes, then mixing resumes
    _, _, kinds = affine_solve(a, mixer)
    assert kinds[:2] == ["plain", "mixed"]


OUTER_LINE = re.compile(r"outer (\d+) \((.+?)\): .* restarts=(\d+) ")


def outer_lines(caplog) -> list[tuple[int, str, int]]:
    """(evaluation, label, restarts) of each per-evaluation debug line."""
    found = [OUTER_LINE.match(r.getMessage()) for r in caplog.records]
    return [(int(m[1]), m[2], int(m[3])) for m in found if m]


def test_solve_converges_through_rejected_mixed_iterates(example1_config, caplog):
    # beta = 3 on a coarse grid: some mixed iterates step further than the
    # iterate they were mixed from, so the loop falls back and restarts.
    # The path is pinned: a change to the safeguard shows here
    cfg = dataclasses.replace(
        example1_config, n_x=41, n_t=10,
        potential=dataclasses.replace(example1_config.potential, beta=3.0),
    )
    with caplog.at_level("DEBUG", logger="mfsb"):
        sol = solve(cfg)
    assert sol.converged
    lines = outer_lines(caplog)
    assert [k for k, _, _ in lines] == list(range(43))
    assert sol.trace.outer_iterations == 43
    assert [label for _, label, _ in lines].count("mixed, rejected") == 7
    assert lines[-1][2] == 7


@pytest.mark.parametrize("log_value", [800.0, -800.0])
def test_a_mixed_state_out_of_exp_range_gives_way_to_the_plain_output(
    log_value, monkeypatch, caplog
):
    # exp over- or underflows on the mixed state: it is no iterate, so the
    # solve goes on from the plain output with the memory cleared
    real = _AndersonMixer.step
    calls = []

    def overflowing(self, x, g, step_dh):
        calls.append(1)
        if len(calls) == 4:
            return np.full(g.size, log_value), "mixed"
        return real(self, x, g, step_dh)

    monkeypatch.setattr(_AndersonMixer, "step", overflowing)
    cfg = small_config(
        potential=PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=0.01),
        theta=0.7,
        n1=60,
    )
    with caplog.at_level("DEBUG", logger="mfsb"):
        sol = solve(cfg)
    assert sol.converged
    # evaluation 3 makes the fourth step call: its mixed state overflows
    lines = outer_lines(caplog)
    assert len(lines) == sol.trace.outer_iterations > 5
    assert [label for _, label, _ in lines[2:4]] == ["mixed", "mixed"]
    assert (lines[2][2], lines[3][2]) == (0, 1)
    assert lines[4][1:] == ("plain", 1)
    assert lines[-1][2] == 1


def test_solve_exhausting_outer_budget_under_mixing(example1_config):
    cfg = dataclasses.replace(example1_config, n1=3)
    with pytest.raises(NoConvergence) as info:
        solve(cfg)
    exc = info.value
    assert exc.level == "outer"
    p, pair = exc.partial.p, exc.partial.pair
    assert np.all(np.isfinite(p)) and p.min() > 0.0
    for leg in (pair.phi, pair.phihat):
        assert np.all(np.isfinite(leg)) and leg.min() > 0.0
    p_in = build_marginals(cfg.marginal_in, cfg.sgrid)
    p_fin = build_marginals(cfg.marginal_fin, cfg.sgrid)
    np.testing.assert_allclose(p[0], p_in, rtol=1e-10)
    np.testing.assert_allclose(p[-1], p_fin, rtol=1e-10)
    trace = exc.trace
    assert trace.outer_iterations == 3
    for name in ("outer_dh", "outer_dh_raw", "middle_dh", "inner_iterations",
                 "slice_mass_dev"):
        assert len(getattr(trace, name)) == 3, name


def test_resume_from_a_converged_pair_allocates_no_mixing_memory(
    example1_run, monkeypatch
):
    def refuse(*args):
        raise AssertionError("the mixing buffers were allocated")

    monkeypatch.setattr(solver_module, "_AndersonMixer", refuse)
    sol, _ = example1_run
    assert solve(sol.config, warm_pair=sol.pair).trace.outer_iterations == 1


# ---------------------------------------------------------------------------
# rate fitting


def test_geometric_rate_recovers_exact_ratio():
    seq = [0.5**k for k in range(10)]
    assert fit_geometric_rate(seq) == pytest.approx(0.5, rel=1e-10)


def test_geometric_rate_of_constant_sequence_is_one():
    assert fit_geometric_rate([0.3] * 6) == pytest.approx(1.0, rel=1e-12)


def test_geometric_rate_skips_nonpositive_and_nonfinite_entries():
    seq = [1.0, 0.5, 0.0, 0.25, float("inf"), 0.125, float("nan")]
    assert fit_geometric_rate(seq) == pytest.approx(0.5, rel=1e-10)


def test_geometric_rate_needs_three_points():
    with pytest.raises(ValueError, match="3 positive"):
        fit_geometric_rate([1.0, 0.5])
    with pytest.raises(ValueError, match="3 positive"):
        fit_geometric_rate([0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# a-priori contraction constants


def base_constant_params(**overrides):
    params = dict(
        sigma2=0.2,
        beta=0.01,
        w_norm=1.0,
        grad_w_norm=1.0,
        lap_w_norm=1.0,
        r=0.1,
        a1=1.0,
        a2=1.0,
        a3=1.0,
        c1=0.01,
        c2=0.01,
    )
    params.update(overrides)
    return params


def test_density_map_constant_matches_hand_value():
    out = contraction_constants(base_constant_params())
    assert out["lambda_density"] == pytest.approx(HAND_LAMBDA, rel=1e-12)
    assert out["density_gate"] == pytest.approx(HAND_DENSITY_GATE, rel=1e-12)
    assert out["density_contractive"] is True
    assert "lambda_pair" not in out


def test_density_map_constant_without_interaction():
    out = contraction_constants(base_constant_params(beta=0.0))
    assert out["lambda_density"] == pytest.approx(
        HAND_LAMBDA_NO_INTERACTION, rel=1e-12
    )
    assert out["density_gate"] == 0.0


def test_pair_map_constant_matches_hand_value():
    out = contraction_constants(
        base_constant_params(m1=0.1, m2=0.1, m3=0.1, m4=0.1)
    )
    assert out["lambda_pair"] == pytest.approx(HAND_LAMBDA_PAIR, rel=1e-12)
    assert out["pair_contractive"] is True
    assert out["pair_gate_fwd"] == pytest.approx(0.1 * np.e, rel=1e-12)


def test_constants_reject_violated_preconditions():
    with pytest.raises(DomainError, match="density-map precondition"):
        contraction_constants(base_constant_params(beta=100.0))
    with pytest.raises(DomainError, match="pair-map precondition"):
        contraction_constants(
            base_constant_params(m1=0.1, m2=0.5, m3=0.1, m4=0.1)
        )


def test_constants_report_noncontractive_regime():
    # ten times more interaction strength pushes lambda past one while the
    # precondition still holds
    out = contraction_constants(base_constant_params(beta=0.1, c1=0.3, c2=0.3))
    assert out["density_gate"] < 1.0
    assert out["lambda_density"] > 1.0
    assert out["density_contractive"] is False


def test_constants_require_complete_parameter_sets():
    params = base_constant_params()
    del params["a3"]
    with pytest.raises(DomainError, match="a3"):
        contraction_constants(params)
    with pytest.raises(DomainError, match="m"):
        contraction_constants(base_constant_params(m1=0.1, m2=0.1))
