"""Particle simulator: sampling, dynamics, noise model, and bookkeeping."""

import warnings

import numpy as np
import pytest

from mfsb.errors import DomainError
from mfsb.grid import SpatialGrid, TimeGrid, integrate
from mfsb.particles import (
    ParticleEnsemble,
    empirical_density,
    sampling_noise_l1,
    simulate,
    terminal_residual,
)
from mfsb.potentials import PotentialSpec

from oracles import gaussian_density


def zero_control(sgrid, tgrid):
    return np.zeros((tgrid.n_t + 1, sgrid.n_x))


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
            zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
            0.447, 99, 0, sgrid, tgrid,
        )


def test_free_diffusion_adds_the_right_variance(sim_grids):
    # near-point initial mass under pure diffusion: terminal variance is the
    # initial one plus sigma^2 (t = 1), exact for Gaussian increments
    sgrid, tgrid = sim_grids
    sigma2 = 0.2
    p0 = gaussian_density(sgrid.nodes, 0.0, 1e-4)
    ens = simulate(
        zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
        np.sqrt(sigma2), 100_000, 7, sgrid, tgrid,
    )
    assert ens.positions.var() == pytest.approx(1e-4 + sigma2, abs=5e-3)
    assert abs(ens.positions.mean()) <= 5e-3


def test_empirical_density_of_a_one_cell_cloud():
    sgrid = SpatialGrid(-2.0, 2.0, 41)
    node = sgrid.nodes[13]
    ens = ParticleEnsemble(positions=np.full(500, node), seed=0, steps=1)
    dens = empirical_density(ens, sgrid)
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
    ens = ParticleEnsemble(positions=positions, seed=42, steps=0)
    p = gaussian_density(sgrid.nodes, 0.0, variance)
    residual = terminal_residual(ens, p, sgrid)
    assert residual <= 0.01
    assert residual <= 2.0 * sampling_noise_l1(p, sgrid, ens.n)


def test_noise_model_predicts_mean_histogram_error():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    variance = 0.04
    p = gaussian_density(sgrid.nodes, 0.0, variance)
    n = 3000
    rng = np.random.Generator(np.random.Philox(99))
    residuals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(30):
            ens = ParticleEnsemble(
                positions=rng.normal(0.0, np.sqrt(variance), size=n),
                seed=99, steps=0,
            )
            residuals.append(terminal_residual(ens, p, sgrid))
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
    ens = simulate(
        zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
        0.447, 20_000, 3, sgrid, tgrid,
    )
    target = gaussian_density(sgrid.nodes, 0.4, 0.04)
    assert terminal_residual(ens, target, sgrid) > 0.1


def test_small_ensembles_warn_about_noise(sim_grids):
    sgrid, tgrid = sim_grids
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    ens = simulate(
        zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
        0.447, 500, 0, sgrid, tgrid,
    )
    with pytest.warns(UserWarning, match="sampling noise"):
        value = terminal_residual(ens, p0, sgrid)
    assert np.isfinite(value)


def test_big_ensembles_do_not_warn(sim_grids):
    sgrid, tgrid = sim_grids
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    ens = simulate(
        zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
        0.447, 20_000, 0, sgrid, tgrid,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terminal_residual(ens, p0, sgrid)


def test_same_seed_reproduces_positions_bitwise():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    tgrid = TimeGrid(10)
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    args = (
        zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
        0.447, 500, 11, sgrid, tgrid,
    )
    a = simulate(*args)
    b = simulate(*args)
    np.testing.assert_array_equal(a.positions, b.positions)
    c = simulate(
        zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
        0.447, 500, 12, sgrid, tgrid,
    )
    assert not np.array_equal(a.positions, c.positions)


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
    ens = simulate(u, PotentialSpec.zero(), p0, sigma, n, 4, sgrid, tgrid)
    assert ens.steps == tgrid.n_t
    start_mean = float(np.sum(sgrid.nodes * p0 * sgrid.weights))
    expected = start_mean + sigma * (a + 0.5 * b)
    std_err = np.sqrt(0.01 + sigma**2) / np.sqrt(n)
    assert abs(ens.positions.mean() - expected) <= 4.0 * std_err


def test_kernel_sign_moves_ensemble_spread():
    sgrid = SpatialGrid(-2.0, 2.0, 301)
    tgrid = TimeGrid(15)
    p0 = gaussian_density(sgrid.nodes, 0.0, 0.04)
    u = zero_control(sgrid, tgrid)

    def spread(spec):
        ens = simulate(u, spec, p0, 0.447, 800, 5, sgrid, tgrid)
        return ens.positions.var()

    base = spread(PotentialSpec.zero())
    repulsive = spread(PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=0.01))
    attractive = spread(PotentialSpec.gaussian_attractive(a=2.0, s=0.5))
    assert repulsive > base
    assert attractive < base


def test_reflection_keeps_particles_inside_the_domain():
    sgrid = SpatialGrid(-2.0, 2.0, 64)
    tgrid = TimeGrid(8)
    p0 = np.ones(sgrid.n_x) / (sgrid.x_max - sgrid.x_min)
    ens = simulate(
        zero_control(sgrid, tgrid), PotentialSpec.zero(), p0,
        3.0, 5000, 21, sgrid, tgrid,
    )
    assert np.all(np.isfinite(ens.positions))
    assert ens.positions.min() >= sgrid.x_min
    assert ens.positions.max() <= sgrid.x_max
