"""Interaction kernels: tables, symmetry, convolution, drift, reaction."""

import numpy as np
import pytest

from mfsb import (
    DomainError,
    PositivityError,
    PotentialSpec,
    ShapeError,
    SpatialGrid,
    convolve,
    eval_potential,
    gradient,
    mean_field_drift,
    reaction_term_path,
)
from mfsb.potentials import displacement_grid, load_tabulated_potential
from conftest import positive_field
from oracles import (
    HAND_POWER_KERNEL_AT_ZERO,
    direct_convolution,
    direct_reaction,
    gaussian_density,
)


@pytest.fixture()
def power_table(grid64):
    return eval_potential(
        PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=1e-2), grid64
    )


@pytest.fixture()
def gauss_table(grid64):
    return eval_potential(PotentialSpec.gaussian_attractive(a=1.0, s=0.3), grid64)


def test_power_kernel_value_at_zero(grid301):
    # hand value: 2.5 * (1e-4)^(-0.1), see oracles.py
    table = eval_potential(
        PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=1e-2), grid301
    )
    center = grid301.n_x - 1
    assert table.w[center] == pytest.approx(HAND_POWER_KERNEL_AT_ZERO, rel=1e-12)
    assert table.grad_w[center] == 0.0


def test_gaussian_kernel_value_at_zero(grid301):
    table = eval_potential(PotentialSpec.gaussian_attractive(a=1.0, s=0.3), grid301)
    center = grid301.n_x - 1
    assert table.w[center] == pytest.approx(-1.0, rel=1e-14)
    assert table.grad_w[center] == 0.0


def test_zero_potential_tables_vanish(grid64):
    table = eval_potential(PotentialSpec.zero(), grid64)
    assert not table.w.any()
    assert not table.grad_w.any()


@pytest.mark.parametrize(
    "spec",
    [
        PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=1e-2),
        PotentialSpec.gaussian_attractive(a=0.7, s=0.4),
    ],
)
def test_table_parity(spec, grid64):
    # even kernel and odd gradient, exactly
    table = eval_potential(spec, grid64)
    np.testing.assert_array_equal(table.w, table.w[::-1])
    np.testing.assert_array_equal(table.grad_w, -table.grad_w[::-1])


def test_displacement_grid_span(grid64):
    d = displacement_grid(grid64)
    assert d.n_x == 2 * grid64.n_x - 1
    span = grid64.x_max - grid64.x_min
    assert d.x_min == pytest.approx(-span)
    assert d.x_max == pytest.approx(span)
    assert d.h == pytest.approx(grid64.h, rel=1e-12)


def test_gradient_table_consistent_with_kernel(gauss_table, grid64):
    # analytic derivative tables should track a numerical derivative closely
    d = displacement_grid(grid64)
    numeric = gradient(gauss_table.w, d)
    assert np.max(np.abs(numeric - gauss_table.grad_w)) <= 5.0 * d.h**2


def test_tabulated_potential_roundtrip(tmp_path, grid64):
    d = displacement_grid(grid64)
    r = np.linspace(0.0, d.x_max * 1.05, 4001)
    vals = -np.exp(-(r**2) / 0.3)
    f = tmp_path / "kernel.txt"
    np.savetxt(f, np.column_stack([r, vals]))
    spec = load_tabulated_potential(f)
    table = eval_potential(spec, grid64)
    exact = eval_potential(PotentialSpec.gaussian_attractive(a=1.0, s=0.3), grid64)
    np.testing.assert_allclose(table.w, exact.w, atol=1e-8)
    np.testing.assert_allclose(table.grad_w, exact.grad_w, atol=1e-5)


def test_tabulated_potential_must_cover_domain(tmp_path, grid64):
    r = np.linspace(0.0, 1.0, 101)  # domain needs displacements up to 4
    f = tmp_path / "short.txt"
    np.savetxt(f, np.column_stack([r, np.exp(-r)]))
    spec = load_tabulated_potential(f)
    with pytest.raises(DomainError):
        eval_potential(spec, grid64)


def test_convolve_delta_identity(power_table, grid64):
    # grid delta of unit plain-sum mass picks out one kernel translate
    i0 = 20
    f = np.zeros(grid64.n_x)
    f[i0] = 1.0 / grid64.h
    out = convolve(power_table.w, f, grid64)
    n = grid64.n_x
    expected = power_table.w[np.arange(n) - i0 + n - 1]
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_convolve_constant_kernel_returns_mass(grid64):
    from mfsb import normalize

    p = normalize(gaussian_density(grid64.nodes, 0.1, 0.04), grid64)
    kernel = np.ones(2 * grid64.n_x - 1)
    out = convolve(kernel, p, grid64)
    np.testing.assert_allclose(out, np.ones(grid64.n_x), atol=1e-10)


def test_convolve_matches_direct_sum(grid64, rng):
    f = rng.normal(size=grid64.n_x)
    kernel = rng.normal(size=2 * grid64.n_x - 1)
    fast = convolve(kernel, f, grid64)
    direct = direct_convolution(kernel, f, grid64.h)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(fast - direct)) / scale <= 1e-10


def test_convolve_rejects_bad_kernel_length(grid64):
    with pytest.raises(ShapeError):
        convolve(np.ones(2 * grid64.n_x), np.ones(grid64.n_x), grid64)


def test_drift_zero_potential(grid64, rng):
    table = eval_potential(PotentialSpec.zero(), grid64)
    p = positive_field(rng, grid64.n_x, spread=1.0)
    assert not mean_field_drift(table, p, grid64).any()


def test_drift_is_odd_for_symmetric_density(gauss_table, grid64):
    p = gaussian_density(grid64.nodes, 0.0, 0.1)
    b = mean_field_drift(gauss_table, p, grid64)
    np.testing.assert_allclose(b, -b[::-1], atol=1e-10)


def test_drift_of_delta_is_shifted_kernel_gradient(gauss_table, grid64):
    i0 = 40
    p = np.zeros(grid64.n_x)
    p[i0] = 1.0 / grid64.h
    b = mean_field_drift(gauss_table, p, grid64)
    n = grid64.n_x
    expected = -gauss_table.grad_w[np.arange(n) - i0 + n - 1]
    np.testing.assert_allclose(b, expected, rtol=1e-12, atol=1e-12)


def reaction_row(table, xi, p, grid):
    """One-slice reaction profile: reaction_term_path on a one-row path."""
    rows = reaction_term_path(table, np.asarray(xi)[None], np.asarray(p)[None], grid)
    return rows[0]


def test_reaction_constant_xi_is_zero(gauss_table, grid64, rng):
    # the one-sided edge stencil leaves ~1e-16 of cancellation noise, so the
    # profile is zero only to floating-point accuracy
    p = positive_field(rng, grid64.n_x, spread=1.0)
    q = reaction_row(gauss_table, np.full(grid64.n_x, 3.7), p, grid64)
    assert np.abs(q).max() <= 1e-14


def test_reaction_zero_potential_is_zero(grid64, rng):
    table = eval_potential(PotentialSpec.zero(), grid64)
    xi = positive_field(rng, grid64.n_x)
    q = reaction_row(table, xi, np.ones(grid64.n_x), grid64)
    assert not q.any()


def test_reaction_matches_direct_quadrature(gauss_table, grid64, rng):
    xi = positive_field(rng, grid64.n_x)
    p = positive_field(rng, grid64.n_x, spread=1.0)
    fast = reaction_row(gauss_table, xi, p, grid64)
    direct = direct_reaction(gauss_table.grad_w, xi, p, grid64.h)
    np.testing.assert_allclose(fast, direct, atol=1e-8)


def test_reaction_rejects_nonpositive_xi(gauss_table, grid64):
    xi = np.ones(grid64.n_x)
    xi[5] = 0.0
    with pytest.raises(PositivityError):
        reaction_row(gauss_table, xi, np.ones(grid64.n_x), grid64)


def test_reaction_invariant_under_xi_rescaling(gauss_table, grid64, rng):
    xi = positive_field(rng, grid64.n_x)
    p = positive_field(rng, grid64.n_x, spread=1.0)
    base = reaction_row(gauss_table, xi, p, grid64)
    scaled = reaction_row(gauss_table, 17.0 * xi, p, grid64)
    np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-12)


def test_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec.power_repulsive(c=5.0, alpha=1.2, epsilon=1e-2)
    with pytest.raises(DomainError):
        PotentialSpec.power_repulsive(c=5.0, alpha=0.2, epsilon=0.0)
    with pytest.raises(DomainError):
        PotentialSpec.gaussian_attractive(a=-1.0, s=0.3)
    with pytest.raises(DomainError):
        PotentialSpec.gaussian_attractive(a=1.0, s=0.0)
