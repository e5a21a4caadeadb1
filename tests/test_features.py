import math

import numpy as np
import pytest

from spikeot import (
    DomainError,
    EmpiricalMeasure,
    SortedSamples,
    classwise_transport_cost_features,
    hausdorff_features,
    js_bin_features,
    make_uniform_empirical,
    partial_transport_cost,
    standardize_features,
    transport_cost_features,
    w1_general,
)


def test_transport_cost_zero_against_self():
    m = make_uniform_empirical([0.1, 0.5, 0.9])
    fv = transport_cost_features(m, m, bands=10)
    assert fv.kind == "transport_cost"
    assert len(fv) == 10
    assert np.all(fv.values == 0.0)


def test_transport_cost_constant_shift_rows():
    m = make_uniform_empirical(np.linspace(0, 1, 7))
    s = 4.25
    fv = transport_cost_features(m, m.shift(s), bands=10)
    np.testing.assert_allclose(fv.values, 0.1 * s, rtol=1e-12)


def test_transport_cost_sums_to_w1():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = make_uniform_empirical(rng.normal(size=rng.integers(1, 40)))
        b = make_uniform_empirical(rng.normal(size=rng.integers(1, 40)))
        for bands in (1, 7, 10, 200):
            fv = transport_cost_features(a, b, bands=bands)
            assert np.all(fv.values >= 0.0)
            assert math.fsum(fv.values) == pytest.approx(w1_general(a, b), abs=1e-10)


def per_band_costs(a, ref, bands):
    """Second route: one partial_transport_cost call per band (k-1)/D to k/D."""
    return np.array([partial_transport_cost(a, ref, (k - 1) / bands, k / bands)
                     for k in range(1, bands + 1)])


@pytest.mark.parametrize("n, m, bands", [
    (1, 1, 3), (7, 7, 10), (11, 17, 10), (49, 98, 7), (40, 25, 200), (5000, 3000, 100),
    (3000, 5000, 1), (997, 1009, 100),
])
def test_transport_cost_matches_per_band_oracle(n, m, bands):
    rng = np.random.default_rng(n * 7919 + m)
    a = make_uniform_empirical(rng.exponential(size=n))
    b = make_uniform_empirical(1.1 * rng.exponential(size=m))
    np.testing.assert_allclose(transport_cost_features(a, b, bands=bands).values,
                               per_band_costs(a, b, bands), rtol=1e-12, atol=0.0)


def test_transport_cost_matches_per_band_oracle_weighted():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, m = rng.integers(1, 30, size=2)
        a = EmpiricalMeasure(rng.normal(size=n), rng.dirichlet(np.ones(n)))
        b = EmpiricalMeasure(rng.normal(size=m), rng.dirichlet(np.ones(m)))
        np.testing.assert_allclose(transport_cost_features(a, b, bands=9).values,
                                   per_band_costs(a, b, 9), rtol=1e-12, atol=1e-15)


def test_transport_cost_translation_covariance():
    rng = np.random.default_rng(15)
    a = make_uniform_empirical(rng.normal(size=12))
    b = make_uniform_empirical(rng.normal(size=9))
    base = transport_cost_features(a, b, bands=10).values
    moved = transport_cost_features(a.shift(2.0), b.shift(2.0), bands=10).values
    np.testing.assert_allclose(moved, base, atol=1e-12)


def test_transport_cost_symmetry_bandwise():
    rng = np.random.default_rng(16)
    a = make_uniform_empirical(rng.normal(size=11))
    b = make_uniform_empirical(rng.normal(size=17))
    ab = transport_cost_features(a, b, bands=10).values
    ba = transport_cost_features(b, a, bands=10).values
    np.testing.assert_allclose(ab, ba, atol=1e-14)


def test_transport_cost_band_validation():
    m = make_uniform_empirical([0.0])
    with pytest.raises(DomainError):
        transport_cost_features(m, m, bands=0)


def test_classwise_features():
    a = make_uniform_empirical([0.0, 1.0])
    with pytest.raises(DomainError):
        classwise_transport_cost_features(a, [], bands=4)
    same = classwise_transport_cost_features(a, [a], bands=4)
    assert len(same) == 1
    assert np.all(same[0].values == 0.0)
    ref = make_uniform_empirical([0.5, 2.0])
    twice = classwise_transport_cost_features(a, [ref, ref], bands=4)
    np.testing.assert_array_equal(twice[0].values, twice[1].values)
    refs = [ref, make_uniform_empirical([3.0])]
    for fv, r in zip(classwise_transport_cost_features(a, refs, bands=10), refs):
        assert math.fsum(fv.values) == pytest.approx(w1_general(a, r), abs=1e-10)


def test_js_bin_features():
    x = SortedSamples([0.1, 0.2, 0.9])
    zeros = js_bin_features(x, x, bins=10)
    assert zeros.kind == "js_bins"
    assert np.all(zeros.values == 0.0)
    y = SortedSamples([5.0, 6.0])
    sat = js_bin_features(x, y, bins=10)
    assert np.all(sat.values >= 0.0)
    assert sat.values.sum() == pytest.approx(math.log(2.0), rel=1e-12)


def test_hausdorff_features():
    x = SortedSamples([0, 1])
    y = SortedSamples([0, 1, 2])
    fv = hausdorff_features(x, y)
    np.testing.assert_array_equal(fv.values, [0.0, 1.0])
    assert fv.kind == "hausdorff_pair"
    same = hausdorff_features(x, x)
    np.testing.assert_array_equal(same.values, [0.0, 0.0])
    # max of the pair is the symmetrized Hausdorff distance
    assert max(fv.values) == 1.0


def test_log1p_flag():
    m = make_uniform_empirical(np.linspace(0, 1, 5))
    s = 3.0
    raw = transport_cost_features(m, m.shift(s), bands=10)
    logged = transport_cost_features(m, m.shift(s), bands=10, log1p=True)
    np.testing.assert_allclose(logged.values, np.log1p(raw.values), rtol=1e-15)
    assert logged.metadata["log1p"] is True


def test_standardize_features():
    m = make_uniform_empirical([0.0, 1.0])
    fvs = [transport_cost_features(m, m.shift(s), bands=5) for s in (1.0, 2.0, 3.0)]
    mat = standardize_features(fvs)
    np.testing.assert_allclose(mat.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(mat.std(axis=0), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        standardize_features([])
