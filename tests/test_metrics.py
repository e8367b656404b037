"""Projective metric on positive fields, its path/pair extensions, L1 norm."""

import numpy as np
import pytest

from mfsb import (
    PairPath,
    PositivityError,
    ShapeError,
    SpatialGrid,
)
from mfsb.metrics import hilbert_distance, l1_distance, pair_distance, path_distance
from conftest import positive_field
from oracles import HAND_TWO_NODE_HILBERT, direct_l1


def test_two_node_hand_value():
    d = hilbert_distance(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    assert d == pytest.approx(HAND_TWO_NODE_HILBERT, rel=1e-12)


def test_proportional_fields_have_zero_distance(rng):
    f = positive_field(rng, 64)
    assert hilbert_distance(f, f) == 0.0
    assert hilbert_distance(3.0 * f, f) <= 1e-12


def test_distance_spans_extremal_ratio_nodes():
    # log-ratios (0, -log 2, log 4, 0): the extremes sit at nodes 2 and 1
    f = np.array([1.0, 1.0, 4.0, 1.0])
    g = np.array([1.0, 2.0, 1.0, 1.0])
    assert hilbert_distance(f, g) == pytest.approx(np.log(8.0), rel=1e-14)


def test_nonpositive_entry_rejected():
    f = np.ones(8)
    f[3] = 0.0
    with pytest.raises(PositivityError):
        hilbert_distance(f, np.ones(8))
    with pytest.raises(PositivityError):
        hilbert_distance(np.ones(8), f)


@pytest.mark.parametrize("f, g, error, message", [
    (np.ones(3), np.ones(4), ShapeError, "shape mismatch"),
    (np.ones(0), np.ones(0), ShapeError, "empty input"),
    (np.array([1.0, np.inf]), np.ones(2), PositivityError, "must be finite"),
    (np.ones(2), np.array([np.nan, 1.0]), PositivityError, "must be finite"),
], ids=["mismatched", "empty", "inf", "nan"])
def test_hilbert_distance_rejects_malformed_input(f, g, error, message):
    with pytest.raises(error, match=message):
        hilbert_distance(f, g)


def test_huge_dynamic_range_stays_finite():
    # log-space evaluation; plain ratios would overflow
    f = np.exp(np.linspace(-600.0, 600.0, 32))
    g = np.exp(np.linspace(600.0, -600.0, 32))
    d = hilbert_distance(f, g)
    assert np.isfinite(d)
    assert d == pytest.approx(2400.0, rel=1e-12)


def test_path_distance_identical_is_zero(rng):
    p = np.abs(rng.normal(size=(6, 32))) + 0.5
    assert path_distance(p, p) == 0.0


def test_path_distance_is_sup_over_slices(rng):
    p = np.abs(rng.normal(size=(6, 32))) + 0.5
    q = p.copy()
    x = np.linspace(-2.0, 2.0, 32)
    q[3] = q[3] * np.exp(x / 10.0)
    q[3] /= q[3].sum()
    per_slice = max(hilbert_distance(p[l], q[l]) for l in range(6))
    assert path_distance(p, q) == pytest.approx(per_slice, rel=1e-14)
    assert path_distance(p, q) == pytest.approx(
        hilbert_distance(p[3], q[3]), rel=1e-14
    )


def test_path_distance_shape_mismatch():
    with pytest.raises(ShapeError):
        path_distance(np.ones((4, 16)), np.ones((4, 17)))


def test_pair_distance_identical_and_scaled(rng):
    phi = np.abs(rng.normal(size=(5, 16))) + 0.5
    phihat = np.abs(rng.normal(size=(5, 16))) + 0.5
    a = PairPath(phi=phi, phihat=phihat)
    assert pair_distance(a, a) == 0.0
    b = PairPath(phi=2.5 * phi, phihat=0.3 * phihat)
    assert pair_distance(a, b) <= 1e-12


def test_pair_distance_tracks_perturbed_leg(rng):
    phi = np.abs(rng.normal(size=(5, 16))) + 0.5
    phihat = np.abs(rng.normal(size=(5, 16))) + 0.5
    a = PairPath(phi=phi, phihat=phihat)
    bumped = phihat.copy()
    bumped[2] *= np.exp(rng.normal(size=16) / 20.0)
    b = PairPath(phi=phi.copy(), phihat=bumped)
    assert pair_distance(a, b) == pytest.approx(
        path_distance(phihat, bumped), rel=1e-14
    )


def test_l1_identical_is_zero(rng):
    g = SpatialGrid(-2.0, 2.0, 64)
    f = rng.normal(size=64)
    assert l1_distance(f, f, g) == 0.0


def test_l1_bump_mass():
    g = SpatialGrid(-2.0, 2.0, 64)
    f = np.zeros(64)
    f[10:20] = 2.0
    # ten interior nodes, each carrying full trapezoid weight h
    assert l1_distance(f, np.zeros(64), g) == pytest.approx(
        2.0 * 10 * g.h, rel=1e-12
    )


def test_l1_matches_direct_quadrature(rng):
    g = SpatialGrid(-2.0, 2.0, 64)
    f1 = positive_field(rng, 64, spread=1.0)
    f2 = positive_field(rng, 64, spread=1.0)
    assert l1_distance(f1, f2, g) == pytest.approx(
        direct_l1(f1, f2, g.h), rel=1e-12
    )


def test_metric_properties_small_sample(rng):
    # the full 1000-trial suite runs in the acceptance module
    for _ in range(100):
        n = int(rng.integers(8, 64))
        f = positive_field(rng, n)
        g = positive_field(rng, n)
        k = positive_field(rng, n)
        d_fg = hilbert_distance(f, g)
        d_gf = hilbert_distance(g, f)
        assert abs(d_fg - d_gf) <= 1e-10
        assert hilbert_distance(float(rng.uniform(0.1, 10.0)) * f, f) <= 1e-10
        d_fk = hilbert_distance(f, k)
        d_kg = hilbert_distance(k, g)
        assert d_fg <= d_fk + d_kg + 1e-10
