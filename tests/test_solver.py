"""Outer loop pieces: init bridge, refinement map, damping, control, rates."""

import numpy as np
import pytest

from mfsb.errors import (
    DomainError,
    InsufficientData,
    NoConvergence,
    PositivityError,
    ShapeError,
)
from mfsb.grid import SpatialGrid, TimeGrid, integrate, normalize_path
from mfsb.kolmogorov import TransportOperators
from mfsb.marginals import MarginalSpec, build_marginals
from mfsb.metrics import l1_distance, pair_distance, path_distance
from mfsb.potentials import PotentialSpec, eval_potential, mean_field_drift_path
from mfsb.sinkhorn import PairPath, freeze_problem, inner_sinkhorn
from mfsb.solver import (
    ConvergenceTrace,
    SolverConfig,
    classical_bridge_init,
    contraction_constants,
    contraction_rate,
    control_energy,
    damped_update,
    density_from_pair,
    fit_geometric_rate,
    optimal_control,
    solve,
)

from oracles import (
    HAND_DENSITY_GATE,
    HAND_LAMBDA,
    HAND_LAMBDA_NO_INTERACTION,
    HAND_LAMBDA_PAIR,
    direct_control_energy,
    direct_pair_density,
    field_variance,
    gaussian_density,
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
    p_path, pair, trace = classical_bridge_init(p_in, p_fin, 0.45, sgrid, tgrid)
    assert p_path.shape == (tgrid.n_t + 1, sgrid.n_x)
    assert l1_distance(p_path[0], p_in, sgrid) <= 1e-8
    assert l1_distance(p_path[-1], p_fin, sgrid) <= 1e-8
    assert trace.boundary_dh[-1] < 1e-10
    for mass in np.trapezoid(p_path, dx=sgrid.h, axis=1):
        assert mass == pytest.approx(1.0, rel=1e-12)


def test_classical_bridge_spreads_between_equal_marginals():
    # between two copies of the same Gaussian the bridge bulges: diffusion
    # widens the density away from the pinned endpoints
    sgrid = SpatialGrid(-2.0, 2.0, 128)
    tgrid = TimeGrid(20)
    p = gaussian_density(sgrid.nodes, 0.0, 0.04)
    p_path, _, _ = classical_bridge_init(p, p, 0.45, sgrid, tgrid)
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
        classical_bridge_init(p, zeroed, 0.45, sgrid, tgrid)
    with pytest.raises(ShapeError):
        classical_bridge_init(p[:-1], p[:-1], 0.45, sgrid, tgrid)


# ---------------------------------------------------------------------------
# density refinement and damping


def test_density_refinement_matches_direct_computation(rng):
    sgrid = SpatialGrid(-2.0, 2.0, 48)
    tgrid = TimeGrid(6)
    spec = PotentialSpec.gaussian_attractive(a=0.8, s=0.3)
    table = eval_potential(spec, sgrid)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    p_path = normalize_path(np.exp(rng.normal(size=shape) * 0.3), sgrid)
    pair = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.5),
        phihat=np.exp(rng.normal(size=shape) * 0.5),
    )
    out = density_from_pair(p_path, pair, spec, sgrid)
    expected = direct_pair_density(table.w, p_path, pair.phi, pair.phihat, sgrid.h)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)
    # spec and pre-evaluated table give the same refinement
    np.testing.assert_array_equal(out, density_from_pair(p_path, pair, table, sgrid))
    for mass in np.trapezoid(out, dx=sgrid.h, axis=1):
        assert mass == pytest.approx(1.0, rel=1e-12)


def test_damping_endpoints_and_hand_value():
    a = np.array([[2.0, 4.0]])
    b = np.array([[1.0, 8.0]])
    np.testing.assert_array_equal(damped_update(a, b, 1.0), a)
    np.testing.assert_allclose(damped_update(a, a, 0.3), a, rtol=1e-15)
    np.testing.assert_allclose(
        damped_update(a, b, 0.7), [[0.7 * 2.0 + 0.3 * 1.0, 0.7 * 4.0 + 0.3 * 8.0]]
    )


@pytest.mark.parametrize("theta", [0.0, -0.2, 1.2, np.nan])
def test_damping_rejects_bad_weight(theta):
    with pytest.raises(DomainError):
        damped_update(np.ones((2, 2)), np.ones((2, 2)), theta)


def test_damping_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        damped_update(np.ones((2, 2)), np.ones((2, 3)), 0.5)


def test_damping_preserves_unit_mass(rng):
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    a = normalize_path(np.exp(rng.normal(size=(5, 64))), sgrid)
    b = normalize_path(np.exp(rng.normal(size=(5, 64))), sgrid)
    out = damped_update(a, b, 0.7)
    for mass in np.trapezoid(out, dx=sgrid.h, axis=1):
        assert mass == pytest.approx(1.0, rel=1e-12)


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
    p = normalize_path(np.ones(shape), sgrid)
    assert control_energy(np.zeros(shape), p, sgrid, tgrid) == 0.0


def test_control_energy_of_constant_control():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(8)
    shape = (tgrid.n_t + 1, sgrid.n_x)
    p = normalize_path(
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
    p = normalize_path(np.exp(rng.normal(size=shape)), sgrid)
    cost = control_energy(u, p, sgrid, tgrid)
    assert cost == pytest.approx(
        direct_control_energy(u, p, sgrid.h, tgrid.dt), rel=1e-12
    )


# ---------------------------------------------------------------------------
# pair map (one refreeze) and full solve


def update_pair(p_path, pair, cfg):
    """Refreeze drift and reaction at (p_path, pair) and rerun the inner loop."""
    sgrid, tgrid = cfg.sgrid, cfg.tgrid
    table = eval_potential(cfg.potential, sgrid)
    b_path = mean_field_drift_path(table, p_path, sgrid)
    problem = freeze_problem(
        p_path, pair, table,
        build_marginals(cfg.marginal_in, sgrid),
        build_marginals(cfg.marginal_fin, sgrid),
        TransportOperators(b_path, cfg.sigma, sgrid, tgrid),
    )
    return inner_sinkhorn(problem, pair, cfg.tol, cfg.n3)[0]


def test_pair_update_without_interaction_is_start_independent(rng):
    cfg = small_config(tol=1e-11)
    shape = (cfg.n_t + 1, cfg.n_x)
    p_path = normalize_path(
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
    p_path = normalize_path(
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
def test_warm_start_from_a_converged_pair_stays_at_the_fixed_point(
    request, run_fixture
):
    # the restored density is rebuilt at the fixed point of the density map,
    # so the resumed solve only confirms it
    sol, _ = request.getfixturevalue(run_fixture)
    cfg = sol.config
    warm = solve(cfg, warm_pair=sol.pair)
    assert warm.trace.init_iterations == 0
    assert warm.trace.outer_iterations <= 2
    assert path_distance(warm.p, sol.p) <= 10.0 * cfg.tol
    assert abs(warm.cost - sol.cost) / abs(sol.cost) <= 10.0 * cfg.tol


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
    assert exc.indices == (1,)
    assert np.isfinite(exc.last_distance)
    assert set(exc.partial) == {"p", "pair"}
    assert exc.trace.outer_iterations == 1
    assert len(exc.trace.outer_dh) == 1


def test_solve_exhausting_inner_budget_raises_with_partial():
    cfg = small_config(
        potential=PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=0.01),
        theta=0.7,
        n3=2,
    )
    with pytest.raises(NoConvergence) as info:
        solve(cfg)
    exc = info.value
    assert exc.level == "inner"
    assert exc.indices == (0, 2)  # outer step 0, after n3 inner iterations
    assert set(exc.partial) == {"p", "pair"}
    assert isinstance(exc.partial["pair"], PairPath)
    assert exc.partial["p"].shape == (cfg.n_t + 1, cfg.n_x)
    assert isinstance(exc.trace, ConvergenceTrace)
    assert exc.trace.init_iterations >= 1
    assert exc.trace.outer_dh == []


def test_solve_exhausting_bridge_budget_attaches_normalized_product():
    cfg = small_config(init_tol=1e-300)  # unreachable: the bridge start gives up
    with pytest.raises(NoConvergence) as info:
        solve(cfg)
    exc = info.value
    assert exc.level == "inner"
    assert isinstance(exc.trace, ConvergenceTrace)
    assert exc.trace.init_iterations == max(cfg.n3, 2000)
    pair = exc.partial["pair"]
    np.testing.assert_array_equal(
        exc.partial["p"], normalize_path(pair.product, cfg.sgrid)
    )


def test_solver_config_validation():
    with pytest.raises(Exception, match="theta"):
        small_config(theta=1.5)
    with pytest.raises(Exception, match="sigma2"):
        small_config(sigma2=-1.0)
    with pytest.raises(Exception, match="n_x"):
        small_config(n_x=4)
    with pytest.raises(Exception, match="verify_n"):
        small_config(verify_n=10)


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
    with pytest.raises(InsufficientData):
        fit_geometric_rate([1.0, 0.5])
    with pytest.raises(InsufficientData):
        fit_geometric_rate([0.0, 0.0, 0.0])


def test_contraction_rate_selects_trace_level():
    trace = ConvergenceTrace()
    trace.outer_dh = [0.4, 0.2, 0.1, 0.05]
    trace.middle_dh = [[0.3], [0.1]]
    trace.inner_dh = [[[0.5, 0.25]], [[0.8, 0.4, 0.2, 0.1, 0.05]]]
    assert contraction_rate(trace, level="outer") == pytest.approx(0.5, rel=1e-10)
    assert contraction_rate(trace, level="inner") == pytest.approx(0.5, rel=1e-10)
    assert contraction_rate([0.9, 0.81, 0.729]) == pytest.approx(0.9, rel=1e-10)
    # two loop levels: there is no middle loop left to fit
    for level in ("middle", "sideways"):
        with pytest.raises(DomainError):
            contraction_rate(trace, level=level)


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
