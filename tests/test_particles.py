"""Particle simulator: sampling, dynamics, noise model, and bookkeeping."""

import sys
import threading

import numpy as np
import pytest

from mfsb.errors import DomainError, ZeroMassError
from mfsb.grid import SpatialGrid, TimeGrid
from mfsb.particles import (
    _reflect,
    empirical_density,
    simulate,
    terminal_residual,
)
from mfsb.potentials import PotentialSpec, eval_potential

from oracles import (
    gaussian_density,
    integrate,
    interp_particle_run,
    midpoint_histogram_density,
    mod_fold,
    per_step_particle_run,
    sampling_noise_l1,
)


def zero_control(sgrid, tgrid):
    return np.zeros((tgrid.n_t + 1, sgrid.n_x))


def no_kernel(sgrid):
    return eval_potential(PotentialSpec(kind="zero"), sgrid)


@pytest.fixture
def sim_grids():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    tgrid = TimeGrid(50)
    return sgrid, tgrid


def test_simulation_needs_a_real_ensemble(sim_grids):
    sgrid, tgrid = sim_grids
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    with pytest.raises(DomainError):
        simulate(
            zero_control(sgrid, tgrid), no_kernel(sgrid), p0,
            0.447, 99, 0, sgrid, tgrid,
        )


def test_free_diffusion_adds_the_right_variance(sim_grids):
    # near-point initial mass under pure diffusion: terminal variance is the
    # initial one plus sigma^2 (t = 1), exact for Gaussian increments
    sgrid, tgrid = sim_grids
    sigma2 = 0.2
    p0 = gaussian_density(sgrid.nodes, 0.0, 1e-4)
    positions = simulate(
        zero_control(sgrid, tgrid), no_kernel(sgrid), p0,
        np.sqrt(sigma2), 100_000, 7, sgrid, tgrid,
    )
    assert positions.var() == pytest.approx(1e-4 + sigma2, abs=5e-3)
    assert abs(positions.mean()) <= 5e-3


def test_empirical_density_of_a_one_cell_cloud():
    sgrid = SpatialGrid(-2.0, 2.0, 41)
    node = sgrid.nodes[13]
    dens = empirical_density(np.full(500, node), sgrid)
    assert integrate(dens, sgrid) == pytest.approx(1.0, rel=1e-12)
    mask = np.zeros(sgrid.n_x, dtype=bool)
    mask[13] = True
    assert np.all(dens[~mask] == 0.0)
    assert dens[13] > 0.0


def test_histogram_of_many_gaussian_draws_recovers_the_density():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    variance = 0.04
    rng = np.random.Generator(np.random.Philox(42))
    positions = rng.normal(0.0, np.sqrt(variance), size=1_000_000)
    p = gaussian_density(sgrid.nodes, 0.0, variance)
    residual = terminal_residual(positions, p, sgrid)
    assert residual <= 0.01
    assert residual <= 2.0 * sampling_noise_l1(p, sgrid, positions.size)


def test_noise_model_predicts_mean_histogram_error():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    variance = 0.04
    p = gaussian_density(sgrid.nodes, 0.0, variance)
    n = 3000
    rng = np.random.Generator(np.random.Philox(99))
    residuals = [
        terminal_residual(rng.normal(0.0, np.sqrt(variance), size=n), p, sgrid)
        for _ in range(30)
    ]
    ratio = np.mean(residuals) / sampling_noise_l1(p, sgrid, n)
    assert 0.75 <= ratio <= 1.25


def test_noise_model_rejects_empty_draws():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    with pytest.raises(DomainError):
        sampling_noise_l1(gaussian_density(sgrid.nodes, 0.0, 0.04), sgrid, 0)


def test_wrong_target_is_loudly_rejected(sim_grids):
    # diffused bimodal cloud vs an unrelated unimodal target: the residual
    # must sit far above sampling noise
    sgrid, tgrid = sim_grids
    p0 = 0.5 * gaussian_density(sgrid.nodes, 0.5, 0.04) + 0.5 * gaussian_density(
        sgrid.nodes, -0.4, 0.04
    )
    positions = simulate(
        zero_control(sgrid, tgrid), no_kernel(sgrid), p0,
        0.447, 20_000, 3, sgrid, tgrid,
    )
    target = gaussian_density(sgrid.nodes, 0.4, 0.04)
    assert terminal_residual(positions, target, sgrid) > 0.1


def test_same_seed_reproduces_positions_bitwise():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    tgrid = TimeGrid(10)
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    args = (
        zero_control(sgrid, tgrid), no_kernel(sgrid), p0,
        0.447, 500, 11, sgrid, tgrid,
    )
    a = simulate(*args)
    b = simulate(*args)
    np.testing.assert_array_equal(a, b)
    c = simulate(
        zero_control(sgrid, tgrid), no_kernel(sgrid), p0,
        0.447, 500, 12, sgrid, tgrid,
    )
    assert not np.array_equal(a, c)


def test_control_is_sampled_at_the_step_midpoint():
    # spatially uniform control linear in t, no kernel: the mean displacement
    # is sigma * int_0^1 u dt, which the mean of the two endpoint slices of
    # each step integrates exactly (the left slice alone falls short by
    # sigma * b * dt / 2, here over 60 standard errors)
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    tgrid = TimeGrid(4)
    sigma, a, b = 0.2, 0.5, 4.0
    u = np.repeat((a + b * tgrid.times)[:, None], sgrid.n_x, axis=1)
    p0 = gaussian_density(sgrid.nodes, -0.2, 0.01)
    n = 20_000
    positions = simulate(u, no_kernel(sgrid), p0, sigma, n, 4, sgrid, tgrid)
    assert positions.shape == (n,)
    start_mean = float(np.sum(sgrid.nodes * p0 * sgrid.weights))
    expected = start_mean + sigma * (a + 0.5 * b)
    std_err = np.sqrt(0.01 + sigma**2) / np.sqrt(n)
    assert abs(positions.mean() - expected) <= 4.0 * std_err


def test_kernel_sign_moves_ensemble_spread():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    tgrid = TimeGrid(15)
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    u = zero_control(sgrid, tgrid)

    def spread(spec):
        table = eval_potential(spec, sgrid)
        positions = simulate(u, table, p0, 0.447, 800, 5, sgrid, tgrid)
        return positions.var()

    base = spread(PotentialSpec(kind="zero"))
    repulsive = spread(
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=0.01)
    )
    attractive = spread(PotentialSpec(kind="gaussian_attractive", a=2.0, s=0.5))
    assert repulsive > base
    assert attractive < base


def test_reflection_keeps_particles_inside_the_domain():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(8)
    p0 = np.ones(sgrid.n_x) / (sgrid.x_max - sgrid.x_min)
    positions = simulate(
        zero_control(sgrid, tgrid), no_kernel(sgrid), p0,
        3.0, 5000, 21, sgrid, tgrid,
    )
    assert np.all(np.isfinite(positions))
    assert positions.min() >= sgrid.x_min
    assert positions.max() <= sgrid.x_max


def test_index_pass_matches_the_interp_histogram_oracle():
    # example-sized run under a nonzero control and example1's kernel: the
    # shared floor index gives the oracle's cells, drifts and folds
    sgrid, tgrid = SpatialGrid(-2.0, 2.0, 301), TimeGrid(100)
    x, t = sgrid.nodes, tgrid.times[:, None]
    u = -1.5 * (1.0 - t) * x + 0.8 * t * np.sin(2.0 * x)
    p0 = 0.5 * gaussian_density(x, 0.5, 0.04) + 0.5 * gaussian_density(x, -0.4, 0.04)
    table = eval_potential(
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=0.01), sgrid
    )
    positions = simulate(u, table, p0, 0.447, 20_000, 3, sgrid, tgrid)
    expected = interp_particle_run(
        u, table.grad_w, p0, 0.447, 20_000, 3, sgrid.x_min, sgrid.x_max
    )
    np.testing.assert_allclose(positions, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "x_min, x_max, n_x", [(-2.0, 2.0, 301), (-1.3, 2.7, 41), (0.0, 1.0, 8)]
)
def test_deposit_equals_the_midpoint_histogram(x_min, x_max, n_x):
    sgrid = SpatialGrid(x_min, x_max, n_x)
    rng = np.random.Generator(np.random.Philox(n_x))
    for size in (100, 5_000):
        cloud = np.concatenate((
            rng.uniform(x_min, x_max, size),
            rng.normal(0.5 * (x_min + x_max), 0.1 * (x_max - x_min), size)
            .clip(x_min, x_max),
            [x_min, x_min, x_max],
            sgrid.nodes,
            [x_min - 1.0, x_max + 0.5],  # outside the domain: not counted
        ))
        np.testing.assert_allclose(
            empirical_density(cloud, sgrid),
            midpoint_histogram_density(cloud, x_min, x_max, n_x),
            rtol=1e-13, atol=0.0,
        )


def test_steps_longer_than_the_span_fold_like_the_mod_fold(sim_grids):
    # sigma sqrt(dt) = 28 on a span of 4: most steps cross the domain several
    # times, and the repeated fold must land where the triangle wave does
    sgrid, _ = sim_grids
    tgrid = TimeGrid(2)
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    table = no_kernel(sgrid)
    u = zero_control(sgrid, tgrid)
    positions = simulate(u, table, p0, 40.0, 5_000, 8, sgrid, tgrid)
    assert positions.min() >= sgrid.x_min
    assert positions.max() <= sgrid.x_max
    expected = interp_particle_run(
        u, table.grad_w, p0, 40.0, 5_000, 8, sgrid.x_min, sgrid.x_max
    )
    np.testing.assert_allclose(positions, expected, rtol=0.0, atol=1e-12)


def test_reflect_checks_the_bounds_before_folding(sim_grids):
    sgrid, _ = sim_grids
    rng = np.random.Generator(np.random.Philox(4))
    inside = np.concatenate((rng.uniform(-2.0, 2.0, 1_000), [-2.0, 2.0]))
    x, scratch = inside.copy(), np.full(inside.size, np.nan)
    _reflect(x, sgrid, scratch)
    # bitwise unchanged, and no fold pass ran: the scratch was not written
    assert x.tobytes() == inside.tobytes()
    assert np.isnan(scratch).all()
    # particles past both ends, some by several spans, land on the triangle
    # wave; the ones inside stay bitwise where they were
    cloud = np.concatenate((
        inside, rng.uniform(-15.0, -2.0, 200), rng.uniform(2.0, 19.0, 200)
    ))
    x = cloud.copy()
    _reflect(x, sgrid, np.empty(cloud.size))
    assert x[: inside.size].tobytes() == inside.tobytes()
    np.testing.assert_allclose(
        x, mod_fold(cloud, sgrid.x_min, sgrid.x_max), rtol=0.0, atol=1e-12
    )


def test_empirical_density_of_a_cloud_outside_the_domain(sim_grids):
    sgrid, _ = sim_grids
    with pytest.raises(ZeroMassError, match="no particle"):
        empirical_density(np.array([-3.0, 2.5]), sgrid)


def test_a_step_past_the_fold_budget_is_an_error(sim_grids):
    # at N = 20 000 a block holds 6 of the 50 steps, so the first step raises
    # with the next block's draw in flight; its worker must not outlive the run
    sgrid, tgrid = sim_grids
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    u = np.full((tgrid.n_t + 1, sgrid.n_x), 1e200)
    for n in (500, 20_000):
        threads = threading.active_count()
        with pytest.raises(DomainError, match="domain widths"):
            simulate(u, no_kernel(sgrid), p0, 0.447, n, 0, sgrid, tgrid)
        assert threading.active_count() == threads


@pytest.mark.parametrize("n", [2_000, 20_000])
def test_noise_blocks_keep_the_per_step_stream_order(n, monkeypatch):
    # 10 steps: N = 2 000 draws all its noise in one block, N = 20 000 in a
    # block of 6 steps and a partial one of 4, drawn on the worker thread
    # while the first block is used; both must see the stream of one
    # standard_normal(N) per step, and only the second may start a thread.
    # A short switch interval makes the two threads interleave finely
    started, start = [], threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    sgrid, tgrid = SpatialGrid(-2.0, 2.0, 301), TimeGrid(10)
    x, t = sgrid.nodes, tgrid.times[:, None]
    u = -1.5 * (1.0 - t) * x + 0.8 * t * np.sin(2.0 * x)
    p0 = 0.5 * gaussian_density(x, 0.5, 0.04) + 0.5 * gaussian_density(x, -0.4, 0.04)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        positions = simulate(u, no_kernel(sgrid), p0, 0.8, n, 17, sgrid, tgrid)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert len(started) == (0 if n == 2_000 else 1)
    expected = per_step_particle_run(u, p0, 0.8, n, 17, sgrid.x_min, sgrid.x_max)
    assert np.array_equal(positions, expected)


def test_the_particle_stream_is_pinned():
    # the oracles above copy the library's generator, so a change of
    # generator or draw order passes them; these values of the SFC64 stream
    # at seed 17 do not move unless the stream does
    sgrid, tgrid = SpatialGrid(-2.0, 2.0, 301), TimeGrid(10)
    x, t = sgrid.nodes, tgrid.times[:, None]
    u = -1.5 * (1.0 - t) * x + 0.8 * t * np.sin(2.0 * x)
    p0 = 0.5 * gaussian_density(x, 0.5, 0.04) + 0.5 * gaussian_density(x, -0.4, 0.04)
    positions = simulate(u, no_kernel(sgrid), p0, 0.8, 2_000, 17, sgrid, tgrid)
    pinned = {
        0: 0.3358802699340213,
        1: 0.7654122546857548,
        777: -0.2920671619659144,
        1500: 0.663896760083176,
        1999: 0.7414554120097396,
    }
    np.testing.assert_allclose(positions[list(pinned)], list(pinned.values()),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(positions.mean(), 0.07567264497312513,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_bad_sigma_is_rejected(sim_grids, sigma):
    # sigma = -1 used to run silently with the control's sign flipped
    sgrid, tgrid = sim_grids
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    with pytest.raises(DomainError, match="sigma"):
        simulate(zero_control(sgrid, tgrid), no_kernel(sgrid), p0, sigma,
                 500, 0, sgrid, tgrid)


def test_non_finite_inputs_are_rejected(sim_grids):
    # a NaN patch in one control slice used to leave part of the cloud NaN,
    # and the residual of the rest still came out finite
    sgrid, tgrid = sim_grids
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    u = zero_control(sgrid, tgrid)
    u[3, 140:160] = np.nan
    with pytest.raises(DomainError, match="control"):
        simulate(u, no_kernel(sgrid), p0, 0.447, 2_000, 0, sgrid, tgrid)
    # a finite control near the float range overflows in the step: the fold
    # check reports the cloud, and no numpy warning comes first
    with pytest.raises(DomainError, match="out of the finite numbers"):
        simulate(np.full_like(u, 1e308), no_kernel(sgrid), p0, 0.447, 2_000, 0,
                 sgrid, tgrid)
    bad_p0 = p0.copy()
    bad_p0[150] = np.inf
    with pytest.raises(DomainError, match="initial density"):
        simulate(zero_control(sgrid, tgrid), no_kernel(sgrid), bad_p0,
                 0.447, 2_000, 0, sgrid, tgrid)
    with pytest.raises(ZeroMassError):
        simulate(zero_control(sgrid, tgrid), no_kernel(sgrid), 0.0 * p0,
                 0.447, 2_000, 0, sgrid, tgrid)
    positions = np.linspace(-1.0, 1.0, 2_000)
    positions[::12] = np.nan
    with pytest.raises(DomainError, match="finite"):
        empirical_density(positions, sgrid)
    with pytest.raises(DomainError, match="finite"):
        terminal_residual(positions, p0, sgrid)
