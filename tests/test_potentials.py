"""Interaction kernels: tables, symmetry, convolution, drift, reaction."""

import numpy as np
import pytest

from mfsb import (
    DomainError,
    PositivityError,
    PotentialSpec,
    PotentialTable,
    ShapeError,
    SpatialGrid,
)
from mfsb.grid import gradient, normalize
from mfsb.potentials import (
    convolve,
    convolve_path,
    displacement_grid,
    eval_potential,
    load_tabulated_potential,
    mean_field_drift,
    reaction_term_path,
)
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
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=1e-2), grid64
    )


@pytest.fixture()
def gauss_table(grid64):
    return eval_potential(
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3), grid64
    )


def test_power_kernel_value_at_zero(grid301):
    # hand value: 2.5 * (1e-4)^(-0.1), see oracles.py
    table = eval_potential(
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=1e-2), grid301
    )
    center = grid301.n_x - 1
    assert table.w[center] == pytest.approx(HAND_POWER_KERNEL_AT_ZERO, rel=1e-12)
    assert table.grad_w[center] == 0.0


def test_gaussian_kernel_value_at_zero(grid301):
    table = eval_potential(
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3), grid301
    )
    center = grid301.n_x - 1
    assert table.w[center] == pytest.approx(-1.0, rel=1e-14)
    assert table.grad_w[center] == 0.0


def test_zero_potential_tables_vanish(grid64):
    table = eval_potential(PotentialSpec(kind="zero"), grid64)
    assert not table.w.any()
    assert not table.grad_w.any()


@pytest.mark.parametrize(
    "spec",
    [
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=1e-2),
        PotentialSpec(kind="gaussian_attractive", a=0.7, s=0.4),
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
    exact = eval_potential(
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3), grid64
    )
    np.testing.assert_allclose(table.w, exact.w, atol=1e-8)
    np.testing.assert_allclose(table.grad_w, exact.grad_w, atol=1e-5)


def test_tabulated_potential_must_cover_domain(tmp_path, grid64):
    r = np.linspace(0.0, 1.0, 101)  # domain needs displacements up to 4
    f = tmp_path / "short.txt"
    np.savetxt(f, np.column_stack([r, np.exp(-r)]))
    spec = load_tabulated_potential(f)
    with pytest.raises(DomainError):
        eval_potential(spec, grid64)


@pytest.mark.parametrize("column, value", [(1, np.nan), (0, np.inf)])
def test_generic_tabulated_spec_rejects_non_finite_samples(column, value):
    # samples given as tuples or as arrays are checked alike, and the
    # message names the sample by its given index
    r = np.linspace(-5.0, 5.0, 101)
    samples = [r, np.exp(-r * r)]
    samples[column][40] = value
    r, w = tuple(samples[0]), tuple(samples[1])
    with pytest.raises(DomainError, match=r"must be finite: \(r, W\)\[40\]"):
        PotentialSpec(kind="tabulated", table_r=r, table_w=w)
    with pytest.raises(DomainError, match=r"must be finite: \(r, W\)\[40\]"):
        PotentialSpec(kind="tabulated", table_r=samples[0], table_w=samples[1])


def test_generic_tabulated_spec_is_stored_sorted():
    r = np.linspace(-5.0, 5.0, 101)
    w = np.exp(-r * r)
    spec = PotentialSpec(
        kind="tabulated", table_r=tuple(r[::-1]), table_w=tuple(w[::-1])
    )
    assert spec == PotentialSpec(kind="tabulated", table_r=r, table_w=w)
    assert spec.table_r == tuple(r)


def w_table(kernel, grid):
    """A table whose W samples are ``kernel`` on the displacement grid of
    ``grid``; its W' is zero."""
    return PotentialTable(displacement_grid(grid), kernel, np.zeros_like(kernel))


def test_convolve_delta_identity(power_table, grid64):
    # grid delta of unit plain-sum mass picks out one kernel translate
    i0 = 20
    f = np.zeros(grid64.n_x)
    f[i0] = 1.0 / grid64.h
    out = convolve(power_table, f)
    n = grid64.n_x
    expected = power_table.w[np.arange(n) - i0 + n - 1]
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_convolve_constant_kernel_returns_mass(grid64):
    p = normalize(gaussian_density(grid64.nodes, 0.1, 0.04), grid64)
    table = w_table(np.ones(2 * grid64.n_x - 1), grid64)
    out = convolve(table, p)
    np.testing.assert_allclose(out, np.ones(grid64.n_x), atol=1e-10)


def _round_off_bound(kernel, f, h):
    """Entrywise bound on |convolve - direct_convolution| for one row.

    Each side is a dot product of n terms h K f, with one rounding in every
    product (the library rounds h K, the oracle h times the sum) and n - 1 in
    the sum, so each is within gamma_{n+1} ~ (n + 1) eps of the exact sum of
    |terms| (Higham 2002, §3.1); the difference is within twice that.
    """
    n = f.shape[0]
    terms = direct_convolution(np.abs(kernel), np.abs(f), h)
    return 2.0 * (n + 1) * np.finfo(float).eps * terms


def test_convolve_matches_direct_sum(grid64, rng):
    # three tables of one shape, used in turn: each convolves with its own
    # samples, to within the round-off of the two summation orders
    kernels = [rng.normal(size=2 * grid64.n_x - 1) for _ in range(3)]
    tables = [w_table(kernel, grid64) for kernel in kernels]
    f = rng.normal(size=grid64.n_x)
    for _ in range(2):
        for kernel, table in zip(kernels, tables):
            fast = convolve(table, f)
            direct = direct_convolution(kernel, f, grid64.h)
            assert np.all(
                np.abs(fast - direct) <= _round_off_bound(kernel, f, grid64.h)
            )


def test_convolve_scales_with_the_grid_spacing(rng):
    # the same samples on a grid of half the spacing: h is exactly halved, so
    # every term and partial sum is too, and the results agree bit for bit
    wide = SpatialGrid(-2.0, 2.0, 64)
    narrow = SpatialGrid(-1.0, 1.0, 64)
    assert narrow.h == 0.5 * wide.h
    kernel = rng.normal(size=2 * wide.n_x - 1)
    f = rng.normal(size=wide.n_x)
    np.testing.assert_array_equal(
        convolve(w_table(kernel, narrow), f), 0.5 * convolve(w_table(kernel, wide), f)
    )


def test_table_samples_and_matrices_are_read_only(grid64, rng):
    kernel = rng.normal(size=2 * grid64.n_x - 1)
    table = PotentialTable(displacement_grid(grid64), kernel, -kernel)
    original = kernel.copy()
    kernel[0] += 1.0  # the table holds its own copy
    np.testing.assert_array_equal(table.w, original)
    for matrix in (table.w_matrix, table.grad_w_matrix):
        assert matrix.shape == (grid64.n_x, grid64.n_x)
    for array in (table.w, table.grad_w, table.w_matrix, table.grad_w_matrix):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_convolve_rejects_bad_kernel_length(grid64):
    # a kernel of 2 n samples for a grid of n nodes: refused when its table
    # is built, before any convolution
    with pytest.raises(ShapeError):
        w_table(np.ones(2 * grid64.n_x), grid64)


@pytest.mark.parametrize("samples", ["w", "grad_w"])
@pytest.mark.parametrize("shape", [(126,), (128,), (1, 127)])
def test_table_rejects_bad_sample_length(grid64, samples, shape):
    # the kernel check runs once, when the table is built
    dgrid = displacement_grid(grid64)
    assert dgrid.n_x == 127
    arrays = {"w": np.ones(dgrid.n_x), "grad_w": np.ones(dgrid.n_x)}
    arrays[samples] = np.ones(shape)
    with pytest.raises(ShapeError, match=samples):
        PotentialTable(dgrid, **arrays)


def test_table_rejects_an_even_displacement_grid():
    dgrid = SpatialGrid(-4.0, 4.0, 128)
    with pytest.raises(ShapeError, match="odd"):
        PotentialTable(dgrid, np.ones(128), np.ones(128))


def test_convolve_path_of_an_asymmetric_kernel(grid64, rng):
    # an odd-plus-even kernel fixes the orientation of every row of M, and a
    # path of 5 rows (not n_x) checks the product's row axis
    r = displacement_grid(grid64).nodes
    kernel = np.exp(-r * r) + r
    path = rng.normal(size=(5, grid64.n_x))
    fast = convolve_path(w_table(kernel, grid64), path)
    assert fast.shape == path.shape
    for row, out in zip(path, fast):
        direct = direct_convolution(kernel, row, grid64.h)
        assert np.all(np.abs(out - direct) <= _round_off_bound(kernel, row, grid64.h))


@pytest.mark.parametrize("shape", [(65,), (63,), (1, 64), ()])
def test_convolve_rejects_a_field_of_another_shape(gauss_table, shape):
    with pytest.raises(ShapeError):
        convolve(gauss_table, np.ones(shape))
    with pytest.raises(ShapeError):
        mean_field_drift(gauss_table, np.ones(shape))


@pytest.mark.parametrize("shape", [(3, 65), (64,), (2, 3, 64)])
def test_convolve_path_rejects_rows_of_another_shape(gauss_table, shape):
    with pytest.raises(ShapeError):
        convolve_path(gauss_table, np.ones(shape))


def test_drift_zero_potential(grid64, rng):
    table = eval_potential(PotentialSpec(kind="zero"), grid64)
    p = positive_field(rng, grid64.n_x, spread=1.0)
    assert not mean_field_drift(table, p).any()


def test_drift_is_odd_for_symmetric_density(gauss_table, grid64):
    p = gaussian_density(grid64.nodes, 0.0, 0.1)
    b = mean_field_drift(gauss_table, p)
    np.testing.assert_allclose(b, -b[::-1], atol=1e-10)


def test_drift_of_delta_is_shifted_kernel_gradient(gauss_table, grid64):
    i0 = 40
    p = np.zeros(grid64.n_x)
    p[i0] = 1.0 / grid64.h
    b = mean_field_drift(gauss_table, p)
    n = grid64.n_x
    expected = -gauss_table.grad_w[np.arange(n) - i0 + n - 1]
    np.testing.assert_allclose(b, expected, rtol=1e-12, atol=1e-12)


def reaction_row(table, xi, p):
    """One-slice reaction profile: reaction_term_path on a one-row path."""
    return reaction_term_path(table, np.asarray(xi)[None], np.asarray(p)[None])[0]


def test_reaction_constant_xi_is_zero(gauss_table, grid64, rng):
    # the one-sided edge stencil leaves ~1e-16 of cancellation noise, so the
    # profile is zero only to floating-point accuracy
    p = positive_field(rng, grid64.n_x, spread=1.0)
    q = reaction_row(gauss_table, np.full(grid64.n_x, 3.7), p)
    assert np.abs(q).max() <= 1e-14


def test_reaction_zero_potential_is_zero(grid64, rng):
    table = eval_potential(PotentialSpec(kind="zero"), grid64)
    xi = positive_field(rng, grid64.n_x)
    q = reaction_row(table, xi, np.ones(grid64.n_x))
    assert not q.any()


def test_reaction_matches_direct_quadrature(gauss_table, grid64, rng):
    xi = positive_field(rng, grid64.n_x)
    p = positive_field(rng, grid64.n_x, spread=1.0)
    fast = reaction_row(gauss_table, xi, p)
    direct = direct_reaction(gauss_table.grad_w, xi, p, grid64.h)
    np.testing.assert_allclose(fast, direct, atol=1e-8)


def test_reaction_rejects_nonpositive_xi(gauss_table, grid64):
    xi = np.ones(grid64.n_x)
    xi[5] = 0.0
    with pytest.raises(PositivityError):
        reaction_row(gauss_table, xi, np.ones(grid64.n_x))


@pytest.mark.parametrize(
    "xi_shape, p_shape",
    [((3, 64), (1, 64)), ((3, 64), (64,)), ((3, 64), (2, 64)), ((64,), (64,)),
     ((3, 65), (3, 65))],
)
def test_reaction_rejects_xi_and_p_of_other_shapes(gauss_table, xi_shape, p_shape):
    # a one-row p used to broadcast silently over a three-row xi
    with pytest.raises(ShapeError):
        reaction_term_path(gauss_table, np.ones(xi_shape), np.ones(p_shape))


def test_reaction_invariant_under_xi_rescaling(gauss_table, grid64, rng):
    xi = positive_field(rng, grid64.n_x)
    p = positive_field(rng, grid64.n_x, spread=1.0)
    base = reaction_row(gauss_table, xi, p)
    scaled = reaction_row(gauss_table, 17.0 * xi, p)
    np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-12)


def test_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=1.2, epsilon=1e-2)
    with pytest.raises(DomainError):
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=0.0)
    with pytest.raises(DomainError):
        PotentialSpec(kind="gaussian_attractive", a=-1.0, s=0.3)
    with pytest.raises(DomainError):
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.0)
    # a nan or inf kernel parameter used to pass: s = inf gave a constant
    # kernel, epsilon = inf a zero one, and c = nan or a = inf a sweep's
    # PositivityError later; each is refused by name
    for kind, params in (
        ("power_repulsive", {"c": 5.0, "alpha": 0.2, "epsilon": 0.01}),
        ("gaussian_attractive", {"a": 1.0, "s": 0.3}),
    ):
        PotentialSpec(kind=kind, **params)
        for name in set(params) - {"alpha"}:
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(DomainError, match=f"finite {name} > 0"):
                    PotentialSpec(kind=kind, **{**params, name: value})
    # a value of the wrong type escaped as numpy's bare TypeError
    for kind, params, name in (
        ("gaussian_attractive", {"a": "1", "s": 0.3}, "a"),
        ("gaussian_attractive", {"a": 1.0, "s": 0.3, "beta": "x"}, "beta"),
        ("power_repulsive", {"c": 5.0, "alpha": 0.2, "epsilon": None}, "epsilon"),
    ):
        with pytest.raises(DomainError, match=f"PotentialSpec {name} must be real"):
            PotentialSpec(kind=kind, **params)
    # an unknown kind, a kernel strength that is not finite, and tabulated
    # samples of unequal lengths
    with pytest.raises(DomainError, match="unknown potential kind 'bogus'"):
        PotentialSpec(kind="bogus")
    for beta in (np.nan, np.inf):
        with pytest.raises(DomainError, match="beta must be finite"):
            PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3, beta=beta)
    with pytest.raises(DomainError, match="two equal 1-d arrays"):
        PotentialSpec(kind="tabulated", table_r=np.arange(5.0), table_w=np.ones(4))
