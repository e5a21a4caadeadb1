import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from spikeot import (
    DomainError,
    EmpiricalMeasure,
    SizeMismatch,
    SortedSamples,
    make_uniform_empirical,
    northwest_corner_plan,
    partial_transport_cost,
    w1_equal_size,
    w1_general,
    w1_uniform_uniform,
)


def lp_transport_minimum(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Independent oracle: exact LP over all feasible couplings."""
    n, m = len(a), len(b)
    cost = np.abs(a.values[:, None] - b.values[None, :]).ravel()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([a.masses, b.masses])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def random_measure(rng, max_size=6, random_masses=True) -> EmpiricalMeasure:
    n = int(rng.integers(1, max_size + 1))
    values = rng.uniform(-1.0, 1.0, size=n)
    if random_masses:
        masses = rng.dirichlet(np.ones(n))
        if np.all(masses > 0):
            return EmpiricalMeasure(values, masses)
    return make_uniform_empirical(values)


def test_w1_equal_size_constant_shift():
    x = SortedSamples([1, 2, 3])
    y = SortedSamples([1.5, 2.5, 3.5])
    assert w1_equal_size(x, y) == pytest.approx(0.5, abs=1e-15)


def test_w1_equal_size_identity_and_mismatch():
    x = SortedSamples([0.3, 0.7])
    assert w1_equal_size(x, x) == 0.0
    with pytest.raises(SizeMismatch):
        w1_equal_size(x, SortedSamples([1.0]))


def test_w1_equal_size_two_points_vs_lp():
    # brute-force LP on N=2 confirms the sorted matching is optimal
    a = make_uniform_empirical([0, 1])
    b = make_uniform_empirical([0, 3])
    assert w1_equal_size(a.samples, b.samples) == pytest.approx(1.0, abs=1e-12)
    assert lp_transport_minimum(a, b) == pytest.approx(1.0, abs=1e-9)


def test_northwest_corner_spec_example():
    a = make_uniform_empirical([0, 1])
    b = make_uniform_empirical([0, 1, 2])
    entries = northwest_corner_plan(a, b).entries()
    expected = [(0, 0, 1 / 3), (0, 1, 1 / 6), (1, 1, 1 / 6), (1, 2, 1 / 3)]
    assert len(entries) == len(expected)
    for (i, j, g), (ei, ej, eg) in zip(entries, expected):
        assert (i, j) == (ei, ej)
        assert g == pytest.approx(eg, abs=1e-15)
    assert lp_transport_minimum(a, b) == pytest.approx(w1_general(a, b), abs=1e-9)


def test_northwest_corner_identical_measures_is_diagonal():
    m = make_uniform_empirical([0.0, 0.5, 2.0])
    plan = northwest_corner_plan(m, m)
    assert plan.entries() == [(0, 0, pytest.approx(1 / 3)), (1, 1, pytest.approx(1 / 3)),
                              (2, 2, pytest.approx(1 / 3))]
    assert plan.cost(m, m) == 0.0


def test_northwest_corner_equal_size_uniform_is_scaled_identity():
    a = make_uniform_empirical([0, 3, 7, 9])
    b = make_uniform_empirical([1, 2, 5, 8])
    entries = northwest_corner_plan(a, b).entries()
    assert [(i, j) for i, j, _ in entries] == [(k, k) for k in range(4)]
    assert all(g == pytest.approx(0.25, abs=1e-15) for _, _, g in entries)


def test_plan_marginals_and_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_measure(rng, max_size=9)
        b = random_measure(rng, max_size=9)
        plan = northwest_corner_plan(a, b)
        rows = np.zeros(len(a))
        cols = np.zeros(len(b))
        for i, j, g in plan.entries():
            assert g > 0.0
            rows[i] += g
            cols[j] += g
        np.testing.assert_allclose(rows, a.masses, atol=1e-12)
        np.testing.assert_allclose(cols, b.masses, atol=1e-12)
        pairs = [(i, j) for i, j, _ in plan.entries()]
        assert pairs == sorted(pairs)
        for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
            assert not (i1 < i2 and j1 > j2)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 200), m=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_uniform_plan_has_no_slivers(n, m, seed):
    # k/n and j/m tie exactly when equal as rationals: the merged ladder has
    # n + m - gcd breakpoints, and every band is a multiple of 1/lcm(n, m)
    rng = np.random.default_rng(seed)
    a = make_uniform_empirical(rng.normal(size=n))
    b = make_uniform_empirical(rng.normal(size=m))
    plan = northwest_corner_plan(a, b)
    assert len(plan) == n + m - math.gcd(n, m)
    assert plan.mass.min() >= (1.0 - 1e-9) / math.lcm(n, m)
    rows = np.bincount(plan.source_index, weights=plan.mass, minlength=n)
    cols = np.bincount(plan.target_index, weights=plan.mass, minlength=m)
    assert np.max(np.abs(rows - a.masses)) <= 1e-15
    assert np.max(np.abs(cols - b.masses)) <= 1e-15
    assert plan.cost(a, b) == w1_general(a, b)


def test_uniform_plan_49_against_98_atoms():
    # a float cumsum of 1/49 and 1/98 missed 42 of the 49 shared breakpoints
    a = make_uniform_empirical(np.arange(49.0))
    b = make_uniform_empirical(np.arange(98.0) / 2.0)
    plan = northwest_corner_plan(a, b)
    assert len(plan) == 98
    np.testing.assert_array_equal(plan.source_index, np.arange(98) // 2)
    np.testing.assert_array_equal(plan.target_index, np.arange(98))
    np.testing.assert_allclose(plan.mass, 1 / 98, rtol=1e-12)


def test_w1_general_is_exact_on_the_lcm_grid():
    # 5000 vs 3000 atoms: the exact rational quantile integral on the grid of
    # lcm(n, m), each value taken as the exact rational of its float
    rng = np.random.default_rng(21)
    x, y = np.sort(rng.exponential(size=5000)), np.sort(1.1 * rng.exponential(size=3000))
    n, m = x.size, y.size
    lcm = math.lcm(n, m)
    cuts = np.union1d(np.arange(1, n + 1) * (lcm // n), np.arange(1, m + 1) * (lcm // m))
    lo = np.concatenate(([0], cuts[:-1]))
    exact = sum(
        Fraction(int(c - l), lcm) * abs(Fraction(x[l // (lcm // n)]) - Fraction(y[l // (lcm // m)]))
        for l, c in zip(lo, cuts)
    )
    w = w1_general(make_uniform_empirical(x), make_uniform_empirical(y))
    assert abs(Fraction(w) - exact) <= Fraction(1, 10**15) * exact


def test_w1_general_spec_values():
    a = make_uniform_empirical([0, 1])
    b = make_uniform_empirical([0, 1, 2])
    assert w1_general(a, b) == pytest.approx(0.5, abs=1e-15)
    assert w1_general(a, a) == 0.0


def test_w1_general_matches_equal_size_path():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        a = make_uniform_empirical(rng.normal(size=n))
        b = make_uniform_empirical(rng.normal(size=n))
        assert w1_general(a, b) == pytest.approx(
            w1_equal_size(a.samples, b.samples), rel=1e-12, abs=1e-15
        )


def test_plan_cost_equals_quantile_integral():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = random_measure(rng, max_size=40)
        b = random_measure(rng, max_size=40)
        plan = northwest_corner_plan(a, b)
        w = w1_general(a, b)
        assert plan.cost(a, b) == pytest.approx(w, rel=1e-12, abs=1e-15)


def test_w1_general_matches_lp_oracle():
    rng = np.random.default_rng(8)
    for _ in range(40):
        a = random_measure(rng)
        b = random_measure(rng)
        assert w1_general(a, b) == pytest.approx(lp_transport_minimum(a, b), abs=1e-9)


def test_metric_properties_on_random_triples():
    rng = np.random.default_rng(9)
    for _ in range(25):
        ms = [make_uniform_empirical(rng.normal(size=rng.integers(1, 21)))
              for _ in range(3)]
        a, b, c = ms
        dab = w1_general(a, b)
        dba = w1_general(b, a)
        assert dab == pytest.approx(dba, rel=1e-12, abs=1e-15)
        assert dab >= 0.0
        assert w1_general(a, c) <= w1_general(a, b) + w1_general(b, c) + 1e-12
    m = make_uniform_empirical([0.1, 0.9])
    assert w1_general(m, m) == 0.0


def test_translation_identity():
    m = make_uniform_empirical([0.0, 1.0, 4.0])
    assert w1_general(m, m.shift(3.0)) == 3.0
    rng = np.random.default_rng(10)
    a = make_uniform_empirical(rng.normal(size=15))
    s = 0.8375
    assert w1_general(a, a.shift(s)) == pytest.approx(s, rel=1e-14)


def test_partial_cost_zero_band_and_shift_band():
    a = make_uniform_empirical([0.2, 0.4, 0.9])
    assert partial_transport_cost(a, a, 0.3, 0.6) == 0.0
    s = 2.5
    assert partial_transport_cost(a, a.shift(s), 0.2, 0.3) == pytest.approx(0.1 * s, rel=1e-12)


def test_partial_cost_spec_band():
    a = make_uniform_empirical([0, 1])
    b = make_uniform_empirical([0, 1, 2])
    assert partial_transport_cost(a, b, 0.0, 0.5) == pytest.approx(1 / 6, abs=1e-15)


def test_partial_cost_partition_additivity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_measure(rng, max_size=25)
        b = random_measure(rng, max_size=25)
        cuts = np.sort(rng.uniform(0, 1, size=6))
        edges = np.concatenate(([0.0], cuts, [1.0]))
        total = math.fsum(
            partial_transport_cost(a, b, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        )
        assert total == pytest.approx(w1_general(a, b), abs=1e-12)


def test_partial_cost_rejects_bad_bands():
    a = make_uniform_empirical([0, 1])
    for lo, hi in [(0.5, 0.5), (0.7, 0.2), (-0.1, 0.5), (0.5, 1.1)]:
        with pytest.raises(DomainError):
            partial_transport_cost(a, a, lo, hi)


def test_w1_uniform_uniform():
    assert w1_uniform_uniform(1.0, 2.0) == pytest.approx(0.25)
    assert w1_uniform_uniform(3.0, 3.0) == 0.0
    assert w1_uniform_uniform(0.5, 1.0) == pytest.approx(0.5)
    assert w1_uniform_uniform(2.0, 1.0) == w1_uniform_uniform(1.0, 2.0)
    for bad in (0.0, -1.0, np.inf):
        with pytest.raises(DomainError):
            w1_uniform_uniform(bad, 1.0)
