import math

import numpy as np
import pytest

from spikeot import (
    DimensionMismatch,
    DomainError,
    InvalidSample,
    PointCloud,
    SpikeSeed,
    project,
    sliced_w1,
    w1_general,
    make_uniform_empirical,
)


def test_point_cloud_validation():
    with pytest.raises(DomainError):
        PointCloud(np.zeros((3,)))
    with pytest.raises(DomainError):
        PointCloud(np.zeros((3, 1)))
    with pytest.raises(InvalidSample):
        PointCloud(np.array([[0.0, np.inf]]))
    cloud = PointCloud(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert cloud.dimension == 2
    assert len(cloud) == 2


def test_project_axis_direction():
    cloud = PointCloud(np.array([[3.0, 9.0], [1.0, 7.0], [2.0, 8.0]]))
    np.testing.assert_array_equal(project(cloud, [1.0, 0.0]).values, [1.0, 2.0, 3.0])


def test_project_diagonal_direction():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
    s = project(cloud, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    np.testing.assert_allclose(s.values, [0.0, math.sqrt(2.0)], atol=1e-15)


def test_project_reflection_leaves_w1_invariant():
    rng = np.random.default_rng(0)
    a = PointCloud(rng.normal(size=(20, 3)))
    b = PointCloud(rng.normal(size=(25, 3)))
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    w_pos = w1_general(
        make_uniform_empirical(project(a, d).values),
        make_uniform_empirical(project(b, d).values),
    )
    w_neg = w1_general(
        make_uniform_empirical(project(a, -d).values),
        make_uniform_empirical(project(b, -d).values),
    )
    assert w_pos == pytest.approx(w_neg, rel=1e-12)


def test_project_rejects_non_unit_direction():
    cloud = PointCloud(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        project(cloud, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        project(cloud, [1.0, 0.0, 0.0])


def test_sliced_identical_clouds():
    cloud = PointCloud(np.random.default_rng(1).normal(size=(30, 2)))
    est = sliced_w1(cloud, cloud, 50, SpikeSeed(2))
    assert est.mean == 0.0
    assert est.std_error == 0.0
    assert est.trials == 50


def test_sliced_translation_law_2d():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(64, 2)))
    shifted = cloud.translate([0.6, -0.8])  # unit-norm translation
    est = sliced_w1(cloud, shifted, 2000, SpikeSeed(4))
    assert abs(est.mean - 2.0 / math.pi) < 3.0 * est.std_error
    assert est.mean <= 1.0 + 1e-12  # bounded by the translation norm


def test_sliced_symmetric_and_deterministic():
    rng = np.random.default_rng(5)
    a = PointCloud(rng.normal(size=(10, 2)))
    b = PointCloud(rng.normal(size=(14, 2)))  # unequal sizes
    e1 = sliced_w1(a, b, 64, SpikeSeed(6))
    e2 = sliced_w1(b, a, 64, SpikeSeed(6))
    e3 = sliced_w1(a, b, 64, SpikeSeed(6))
    assert e1.mean == e2.mean
    assert e1 == e3
    assert sliced_w1(a, b, 64, SpikeSeed(7)).mean != e1.mean


def test_sliced_rotation_equivariance():
    rng = np.random.default_rng(8)
    a = PointCloud(rng.normal(size=(12, 2)))
    b = PointCloud(rng.normal(size=(12, 2)))
    theta = 0.77
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    dirs = rng.normal(size=(40, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = sliced_w1(a, b, 40, SpikeSeed(9), directions=dirs)
    rotated = sliced_w1(
        PointCloud(a.points @ rot.T), PointCloud(b.points @ rot.T),
        40, SpikeSeed(9), directions=dirs @ rot.T,
    )
    assert rotated.mean == pytest.approx(base.mean, rel=1e-12)
    assert rotated.std_error == pytest.approx(base.std_error, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("n, m", [(1, 1), (12, 12), (10, 14), (49, 98), (300, 200), (1, 37)])
def test_sliced_matches_per_direction_w1(n, m):
    # second route: one w1_general per direction on freshly built measures
    rng = np.random.default_rng(n * 1000 + m)
    a = PointCloud(rng.normal(size=(n, 2)))
    b = PointCloud(rng.normal(size=(m, 2)) + [0.3, 0.0])
    dirs = rng.normal(size=(25, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    per_direction = [
        w1_general(make_uniform_empirical(project(a, d).values),
                   make_uniform_empirical(project(b, d).values))
        for d in dirs
    ]
    est = sliced_w1(a, b, 25, SpikeSeed(0), directions=dirs)
    assert est.mean == pytest.approx(np.mean(per_direction), rel=1e-12)
    assert est.std_error == pytest.approx(np.std(per_direction, ddof=1) / 5.0, rel=1e-9)


def test_sliced_validation():
    a = PointCloud(np.zeros((2, 2)))
    b = PointCloud(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        sliced_w1(a, b, 10, SpikeSeed(0))
    with pytest.raises(DomainError):
        sliced_w1(a, a, 0, SpikeSeed(0))
    with pytest.raises(DimensionMismatch):
        sliced_w1(a, a, 4, SpikeSeed(0), directions=np.eye(2))
