"""Transport generator, implicit sweeps, and conservative density stepping."""

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from mfsb import (
    DomainError,
    PairPath,
    PositivityError,
    PotentialSpec,
    ShapeError,
    SpatialGrid,
    TimeGrid,
    propagate_density,
)
import mfsb.kolmogorov
from mfsb.kolmogorov import (
    TransportOperators,
    build_generator,
    integrate_backward,
    integrate_forward,
)
from mfsb.potentials import eval_potential, mean_field_drift_path
from mfsb.sinkhorn import freeze_problem
from oracles import (
    dense_generator,
    direct_propagation,
    direct_sweep,
    field_variance,
    gaussian_density,
    integrate,
)


def dense_matrix(bands):
    low, diag, up = bands
    return np.diag(diag) + np.diag(up, 1) + np.diag(low, -1)


def test_generator_annihilates_constants(grid64, rng):
    gen = build_generator(rng.normal(size=grid64.n_x), 0.5, grid64)
    out = dense_matrix(gen) @ np.full(grid64.n_x, 3.0)
    np.testing.assert_allclose(out, 0.0, atol=1e-11)


def test_generator_row_sums_and_sign_structure(grid64, rng):
    gen = build_generator(rng.normal(size=grid64.n_x) * 5.0, 0.7, grid64)
    low, diag, up = gen
    a = dense_matrix(gen)
    np.testing.assert_allclose(a.sum(axis=1), 0.0, atol=1e-10)
    assert np.all(up >= 0.0)
    assert np.all(low >= 0.0)
    assert np.all(diag < 0.0)


def test_generator_of_a_drift_path_stacks_its_slices(grid64, rng):
    # one call on a whole drift path gives exactly the per-slice generators
    b_path = rng.normal(size=(5, grid64.n_x)) * 5.0
    stacked = build_generator(b_path, 0.7, grid64)
    for l, b in enumerate(b_path):
        for band_path, band in zip(stacked, build_generator(b, 0.7, grid64)):
            np.testing.assert_array_equal(band_path[l], band)
    with pytest.raises(ShapeError):
        build_generator(np.zeros((2, 3, grid64.n_x)), 0.7, grid64)


@pytest.mark.parametrize("drift", ["positive", "negative", "sign change"])
def test_generator_bands_match_the_dense_oracle(grid64, drift):
    # the off-diagonals bit for bit, both boundary rows included, where the
    # advection turns inward whatever the drift's sign; the oracle sums each
    # diagonal entry from its row in another order
    x = grid64.nodes
    b = {"positive": 2.0 + np.sin(x), "negative": -2.0 - np.sin(x),
         "sign change": 3.0 * x}[drift]
    low, diag, up = build_generator(b, 0.7, grid64)
    dense = dense_generator(b, 0.7, grid64.h)
    np.testing.assert_array_equal(up, np.diag(dense, 1))
    np.testing.assert_array_equal(low, np.diag(dense, -1))
    np.testing.assert_allclose(diag, np.diag(dense), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("sigma", [0.0, -0.7, np.nan, np.inf])
def test_generator_rejects_bad_sigma(grid64, sigma):
    # a nan sigma used to give nan bands, and a sweep's PositivityError later
    tgrid = TimeGrid(4)
    with pytest.raises(DomainError, match="sigma"):
        build_generator(np.zeros(grid64.n_x), sigma, grid64)
    ones = np.ones((tgrid.n_t + 1, grid64.n_x))
    with pytest.raises(DomainError, match="sigma"):
        TransportOperators(0.0 * ones, sigma, grid64, tgrid)
    # the freeze checks sigma itself, before its decay factors use it
    no_kernel = eval_potential(PotentialSpec(kind="zero"), grid64)
    with pytest.raises(DomainError, match="sigma"):
        freeze_problem(
            ones, PairPath(ones, ones), no_kernel, ones[0], ones[0], sigma, grid64, tgrid
        )


def test_implicit_matrix_is_diagonally_dominant_m_matrix(grid64, rng):
    tgrid = TimeGrid(100)
    b = rng.normal(size=grid64.n_x) * 5.0
    gen = build_generator(b, 0.7, grid64)
    implicit = np.eye(grid64.n_x) - tgrid.dt * dense_matrix(gen)
    diag = np.diag(implicit)
    off = implicit - np.diag(diag)
    assert np.all(diag > 0.0)
    assert np.all(off <= 0.0)
    assert np.all(diag >= np.abs(off).sum(axis=1) + 0.9)  # row sums of A vanish
    # the transport operators invert it: an M-matrix has a nonnegative inverse,
    # and (I - dt A) 1 = 1 makes every row of that inverse sum to one
    ops = TransportOperators(np.tile(b, (tgrid.n_t + 1, 1)), 0.7, grid64, tgrid)
    inverse = np.column_stack(
        [ops.solve(0, unit) for unit in np.eye(grid64.n_x)]
    )
    np.testing.assert_allclose(implicit @ inverse, np.eye(grid64.n_x), atol=1e-12)
    assert inverse.min() >= -1e-15
    np.testing.assert_allclose(inverse.sum(axis=1), 1.0, rtol=1e-12)


def drift_free(sigma, sgrid, tgrid):
    """Transport operators of zero drift and the decay factors of zero reaction."""
    ones = np.ones((tgrid.n_t + 1, sgrid.n_x))
    return TransportOperators(0.0 * ones, sigma, sgrid, tgrid), ones


def test_step_preserves_constants_without_reaction(grid64):
    ops, no_decay = drift_free(0.5, grid64, TimeGrid(100))
    c = np.full(grid64.n_x, 2.5)
    np.testing.assert_allclose(integrate_backward(c, no_decay, ops), 2.5, rtol=1e-12)
    np.testing.assert_allclose(integrate_forward(c, no_decay, ops), 2.5, rtol=1e-12)


def test_step_rejects_nonpositive_slice(grid64):
    ops, no_decay = drift_free(0.5, grid64, TimeGrid(100))
    bad = np.ones(grid64.n_x)
    bad[0] = -1.0
    with pytest.raises(PositivityError):
        integrate_backward(bad, no_decay, ops)
    with pytest.raises(PositivityError):
        integrate_forward(bad, no_decay, ops)


def test_backward_sweep_of_ones_is_ones(grid301):
    ops, no_decay = drift_free(0.5, grid301, TimeGrid(20))
    path = integrate_backward(np.ones(301), no_decay, ops)
    np.testing.assert_allclose(path, 1.0, rtol=1e-12)


def test_backward_sweep_widens_gaussian(grid301):
    # drift-free reverse diffusion adds sigma^2 * (elapsed steps) * dt of variance
    sigma2 = 0.2
    tgrid = TimeGrid(100)
    ops, no_decay = drift_free(np.sqrt(sigma2), grid301, tgrid)
    terminal = gaussian_density(grid301.nodes, 0.0, 0.04)
    path = integrate_backward(terminal, no_decay, ops)
    x, h = grid301.nodes, grid301.h
    for l, k_steps in ((50, 50), (0, 100)):
        want = 0.04 + sigma2 * k_steps * tgrid.dt
        got = field_variance(path[l], x, h)
        assert got == pytest.approx(want, abs=5e-3)


def test_backward_sweep_first_order_in_dt(grid301):
    # self-convergence: halving dt halves the error, spatial part cancels
    sigma = np.sqrt(0.2)
    terminal = gaussian_density(grid301.nodes, 0.3, 0.05)
    slices = {}
    for n_t in (64, 128, 256):
        ops, no_decay = drift_free(sigma, grid301, TimeGrid(n_t))
        slices[n_t] = integrate_backward(terminal, no_decay, ops)[0]
    coarse = np.max(np.abs(slices[64] - slices[128]))
    fine = np.max(np.abs(slices[128] - slices[256]))
    assert 1.7 <= coarse / fine <= 2.4


def test_forward_sweep_first_order_in_dt(grid301):
    sigma = np.sqrt(0.3)
    initial = gaussian_density(grid301.nodes, -0.2, 0.06)
    slices = {}
    for n_t in (64, 128, 256):
        tgrid = TimeGrid(n_t)
        b = np.tile(np.sin(grid301.nodes), (n_t + 1, 1))
        ops = TransportOperators(b, sigma, grid301, tgrid)
        no_decay = np.ones((n_t + 1, 301))
        slices[n_t] = integrate_forward(initial, no_decay, ops)[-1]
    coarse = np.max(np.abs(slices[64] - slices[128]))
    fine = np.max(np.abs(slices[128] - slices[256]))
    assert 1.7 <= coarse / fine <= 2.4


def test_transport_operators_match_direct_solves(grid64, rng):
    tgrid = TimeGrid(8)
    sigma = 0.6
    b_path = rng.normal(size=(9, grid64.n_x))
    q_path = np.abs(rng.normal(size=(9, grid64.n_x)))
    decay = np.exp(-tgrid.dt * sigma * sigma * q_path)
    start = np.exp(rng.normal(size=grid64.n_x))
    ops = TransportOperators(b_path, sigma, grid64, tgrid)
    for backward, sweep in ((True, integrate_backward), (False, integrate_forward)):
        direct = direct_sweep(
            start, b_path, q_path, sigma, grid64.h, tgrid.dt, backward
        )
        np.testing.assert_allclose(sweep(start, decay, ops), direct, rtol=1e-11)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_factored_solves_give_the_bits_of_gtsv(name, request):
    # gttrf does not pivot on these M-matrices, so a gttrs with the kept
    # factors gives the bits of one gtsv on the same bands; the data files
    # rely on it. A band change that made LAPACK pivot would fail here
    sol, _ = request.getfixturevalue(f"{name}_run")
    cfg = sol.config
    table, dt = cfg.kernel_table, cfg.tgrid.dt
    ops = freeze_problem(
        sol.p, sol.pair, table, sol.p_in, sol.p_fin, cfg.sigma, cfg.sgrid, cfg.tgrid
    ).ops
    low, diag, up = build_generator(
        mean_field_drift_path(table, sol.p), cfg.sigma, cfg.sgrid
    )
    no_pivots = np.arange(1, cfg.n_x + 1)  # LAPACK counts rows from 1
    for l in range(cfg.n_t + 1):
        np.testing.assert_array_equal(ops._factors[l][4], no_pivots)
        for rhs in (sol.pair.phi[l], sol.pair.phihat[l], sol.p[l]):
            x = dgtsv(-dt * low[l], 1.0 - dt * diag[l], -dt * up[l], rhs)[3]
            np.testing.assert_array_equal(ops.solve(l, rhs), x)


def test_sweeps_raise_on_nonpositive_boundary(grid64):
    ops, no_decay = drift_free(0.5, grid64, TimeGrid(4))
    with pytest.raises(PositivityError):
        integrate_backward(np.zeros(grid64.n_x), no_decay, ops)


def test_propagate_pure_diffusion_widens_gaussian(grid301):
    # defaults-scale heat check: Gaussian(0, 0.04) -> Gaussian(0, 0.04 + sigma^2)
    sigma2 = 0.2
    tgrid = TimeGrid(100)
    u = np.zeros((101, 301))
    p0 = gaussian_density(grid301.nodes, 0.0, 0.04)
    path, _ = propagate_density(
        p0, u, eval_potential(PotentialSpec(kind="zero"), grid301), np.sqrt(sigma2),
        grid301, tgrid,
    )
    want = gaussian_density(grid301.nodes, 0.0, 0.04 + sigma2)
    err = integrate(np.abs(path[-1] - want), grid301)
    assert err <= 2e-2


def test_propagate_conserves_mass_and_positivity(grid301, rng):
    tgrid = TimeGrid(50)
    u = np.tile(np.sin(grid301.nodes), (51, 1))
    p0 = gaussian_density(grid301.nodes, 0.2, 0.05)
    path, report = propagate_density(
        p0,
        u,
        eval_potential(
            PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3), grid301
        ),
        1.0,
        grid301,
        tgrid,
    )
    assert report["mass_drift_max"] <= 1e-10
    assert report["min_density"] >= 0.0
    assert np.all(np.isfinite(path))
    masses = [integrate(path[l], grid301) for l in range(0, 51, 10)]
    np.testing.assert_allclose(masses, 1.0, rtol=1e-12)


def test_propagate_keeps_even_symmetry(grid301):
    # even initial data, even kernel, no control: the path stays even
    tgrid = TimeGrid(40)
    u = np.zeros((41, 301))
    p0 = gaussian_density(grid301.nodes, 0.0, 0.05)
    table = eval_potential(
        PotentialSpec(kind="gaussian_attractive", a=0.8, s=0.3), grid301
    )
    path, _ = propagate_density(p0, u, table, 0.8, grid301, tgrid)
    assert np.max(np.abs(path - path[:, ::-1])) <= 1e-10


def test_propagate_preserves_uniform_density(grid64):
    # zero drift and flat data: all interface fluxes vanish identically
    tgrid = TimeGrid(10)
    u = np.zeros((11, grid64.n_x))
    p0 = np.full(grid64.n_x, 0.25)
    no_kernel = eval_potential(PotentialSpec(kind="zero"), grid64)
    path, _ = propagate_density(p0, u, no_kernel, 0.5, grid64, tgrid)
    np.testing.assert_allclose(path, 0.25, rtol=1e-13)


def test_propagate_reports_its_largest_advective_cfl(grid301):
    # a uniform control and no kernel: every interface moves at sigma u, so
    # the report's CFL number is sigma u dt / h, here far above one
    tgrid = TimeGrid(10)
    u = np.full((11, 301), 40.0)
    p0 = gaussian_density(grid301.nodes, 0.0, 0.05)
    no_kernel = eval_potential(PotentialSpec(kind="zero"), grid301)
    _, report = propagate_density(p0, u, no_kernel, 1.0, grid301, tgrid)
    assert report["cfl_max"] == pytest.approx(40.0 * tgrid.dt / grid301.h, rel=1e-14)
    assert report["cfl_max"] > 1.0


def test_propagate_matches_the_dense_oracle(grid301):
    # example-sized run under a nonzero control and example1's kernel; the
    # oracle evaluates B(z) and B(-z) each directly and solves densely
    tgrid = TimeGrid(100)
    x, t = grid301.nodes, tgrid.times[:, None]
    u = -1.5 * (1.0 - t) * x + 0.8 * t * np.sin(2.0 * x)
    p0 = 0.5 * gaussian_density(x, 0.5, 0.04) + 0.5 * gaussian_density(x, -0.4, 0.04)
    table = eval_potential(
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=0.01), grid301
    )
    path, _ = propagate_density(p0, u, table, 0.447, grid301, tgrid)
    want = direct_propagation(p0, u, table.grad_w, 0.447, -2.0, 2.0)
    np.testing.assert_allclose(path, want, rtol=1e-12, atol=0.0)


def test_propagate_steep_control_keeps_the_band_signs(grid301, monkeypatch):
    # v = -K x pulls the mass to the centre: |z| = |v| h / D runs from 0 past
    # the overflow of e^|z| (about 709.8) on both signs, so both fitted
    # weights meet their cancelling and their overflowing side, and the tails
    # fall through the subnormal range
    tgrid = TimeGrid(100)
    x, sigma = grid301.nodes, 0.447
    u = np.tile(-3e4 * x / sigma, (tgrid.n_t + 1, 1))
    v_if = sigma * 0.5 * (u[0, :-1] + u[0, 1:])
    z = v_if * grid301.h / (0.5 * sigma * sigma)
    assert z.max() > 710.0 and z.min() < -710.0
    bands, gtsv = [], mfsb.kolmogorov.dgtsv

    def recording_gtsv(low, diag, up, rhs, *flags):
        bands.append((low.copy(), diag.copy(), up.copy()))
        return gtsv(low, diag, up, rhs, *flags)

    monkeypatch.setattr(mfsb.kolmogorov, "dgtsv", recording_gtsv)
    p0 = 0.5 * gaussian_density(x, 0.5, 0.04) + 0.5 * gaussian_density(x, -0.4, 0.04)
    no_kernel = eval_potential(PotentialSpec(kind="zero"), grid301)
    path, _ = propagate_density(p0, u, no_kernel, sigma, grid301, tgrid)
    assert len(bands) == tgrid.n_t
    for low, diag, up in bands:
        # -a_k on the sub-diagonal and -c_k on the super-diagonal: an M-matrix
        assert low.max() <= 0.0 and up.max() <= 0.0 and diag.min() > 0.0
    assert path.min() >= 0.0
    masses = [integrate(slice_, grid301) for slice_ in path]
    np.testing.assert_allclose(masses, 1.0, rtol=1e-14)
    # where the oracle is a normal float the two agree to round-off; below,
    # both are at most subnormal
    want = direct_propagation(p0, u, no_kernel.grad_w, sigma, -2.0, 2.0)
    normal = want >= np.finfo(float).tiny
    np.testing.assert_allclose(path[normal], want[normal], rtol=1e-12, atol=0.0)
    assert (~normal).any() and path[~normal].max() < np.finfo(float).tiny


def test_propagate_rejects_negative_initial_density(grid64):
    tgrid = TimeGrid(4)
    u = np.zeros((5, grid64.n_x))
    p0 = np.ones(grid64.n_x)
    p0[3] = -0.1
    no_kernel = eval_potential(PotentialSpec(kind="zero"), grid64)
    with pytest.raises(PositivityError):
        propagate_density(p0, u, no_kernel, 0.5, grid64, tgrid)
    # a density with no mass cannot be normalized
    with pytest.raises(PositivityError, match="nonpositive mass"):
        propagate_density(0.0 * p0, u, no_kernel, 0.5, grid64, tgrid)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_propagate_rejects_bad_sigma(grid64, sigma):
    # sigma = -1 used to run silently with the control's sign flipped
    tgrid = TimeGrid(4)
    u = np.zeros((5, grid64.n_x))
    p0 = gaussian_density(grid64.nodes, 0.0, 0.05)
    no_kernel = eval_potential(PotentialSpec(kind="zero"), grid64)
    with pytest.raises(DomainError, match="sigma"):
        propagate_density(p0, u, no_kernel, sigma, grid64, tgrid)


def test_propagate_rejects_non_finite_control(grid64):
    tgrid = TimeGrid(4)
    u = np.zeros((5, grid64.n_x))
    u[2, 10] = np.nan
    p0 = gaussian_density(grid64.nodes, 0.0, 0.05)
    no_kernel = eval_potential(PotentialSpec(kind="zero"), grid64)
    with pytest.raises(DomainError, match="control"):
        propagate_density(p0, u, no_kernel, 0.5, grid64, tgrid)
    # a finite control near the float range overflows in the step's midpoint
    # (sigma = 0.447) or interface (sigma = 2) sums: the positivity check
    # reports it, and no numpy overflow warning comes first
    for sigma, value in ((0.447, 1e308), (2.0, 8e307)):
        with pytest.raises(PositivityError, match="lost positivity at step 0"):
            propagate_density(p0, np.full_like(u, value), no_kernel, sigma,
                              grid64, tgrid)
