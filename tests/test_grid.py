"""Grid construction, quadrature, differentiation, and field validation."""

import math

import numpy as np
import pytest

from mfsb import (
    DomainError,
    ShapeError,
    SpatialGrid,
    TimeGrid,
    ZeroMassError,
    gradient,
    integrate,
    normalize,
)
from mfsb.grid import check_field, check_path


def test_spatial_grid_spacing_and_nodes():
    g = SpatialGrid(-2.0, 2.0, 301)
    assert g.h == pytest.approx(4.0 / 300.0, rel=1e-15)
    assert g.nodes[0] == -2.0 and g.nodes[-1] == 2.0
    assert g.weights.shape == (301,)
    assert g.weights[0] == pytest.approx(0.5 * g.h)
    assert g.weights[150] == pytest.approx(g.h)


def test_spatial_grid_rejects_bad_parameters():
    with pytest.raises(DomainError):
        SpatialGrid(-2.0, 2.0, 7)
    with pytest.raises(DomainError):
        SpatialGrid(2.0, -2.0, 64)


def test_time_grid_spacing():
    t = TimeGrid(100)
    assert t.dt == pytest.approx(0.01, rel=1e-15)
    assert t.times[0] == 0.0 and t.times[-1] == 1.0
    with pytest.raises(DomainError):
        TimeGrid(1)


def test_gradient_matches_analytic_derivative():
    # sin' = cos; second-order stencil, so halving h cuts the error ~4x
    g1 = SpatialGrid(-2.0, 2.0, 401)
    g2 = SpatialGrid(-2.0, 2.0, 801)
    e1 = np.max(np.abs(gradient(np.sin(g1.nodes), g1) - np.cos(g1.nodes)))
    e2 = np.max(np.abs(gradient(np.sin(g2.nodes), g2) - np.cos(g2.nodes)))
    assert e1 <= 5.0 * g1.h**2
    assert 3.2 <= e1 / e2 <= 4.8


def test_gradient_exact_on_affine_fields():
    g = SpatialGrid(-2.0, 2.0, 64)
    np.testing.assert_allclose(gradient(3.0 * g.nodes + 1.0, g), 3.0, atol=1e-12)


def test_gradient_path_is_slicewise(rng):
    g = SpatialGrid(-2.0, 2.0, 64)
    path = rng.normal(size=(5, 64))
    out = gradient(path, g)
    assert out.shape == (5, 64)
    for l in range(5):
        np.testing.assert_array_equal(out[l], gradient(path[l], g))
    with pytest.raises(ShapeError):
        gradient(np.ones((5, 65)), g)


def test_integrate_zero_field_is_zero():
    g = SpatialGrid(-2.0, 2.0, 64)
    assert integrate(np.zeros(64), g) == 0.0


def test_integrate_truncated_gaussian_mass():
    # exp(-x^2/0.08) has analytic mass sqrt(0.08 pi) erf(2/sqrt(0.08));
    # tails vanish at the boundary so trapezoid quadrature is spectrally good
    g = SpatialGrid(-2.0, 2.0, 301)
    z = math.sqrt(0.08 * math.pi) * math.erf(2.0 / math.sqrt(0.08))
    f = np.exp(-g.nodes**2 / 0.08) / z
    assert integrate(f, g) == pytest.approx(1.0, abs=1e-6)


def test_normalize_returns_unit_mass(rng):
    g = SpatialGrid(-2.0, 2.0, 64)
    f = np.abs(rng.normal(size=64)) + 0.1
    out = normalize(f, g)
    assert integrate(out, g) == pytest.approx(1.0, rel=1e-12)
    ratio = f / out
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_normalize_zero_field_raises():
    g = SpatialGrid(-2.0, 2.0, 64)
    with pytest.raises(ZeroMassError):
        normalize(np.zeros(64), g)


def test_normalize_path_each_slice(rng):
    g = SpatialGrid(-2.0, 2.0, 64)
    path = np.abs(rng.normal(size=(4, 64))) + 0.1
    out = normalize(path, g)
    for l in range(4):
        assert integrate(out[l], g) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_array_equal(out[l], normalize(path[l], g))
    path[2] = 0.0  # one massless slice fails the whole path
    with pytest.raises(ZeroMassError, match="slice 2"):
        normalize(path, g)


def test_check_field_and_path_shapes(rng):
    g = SpatialGrid(-2.0, 2.0, 64)
    t = TimeGrid(10)
    with pytest.raises(ShapeError):
        check_field(np.ones(65), g)
    with pytest.raises(ShapeError):
        check_path(np.ones((10, 64)), g, t)
    check_field(np.ones(64), g)
    check_path(np.ones((11, 64)), g, t)
