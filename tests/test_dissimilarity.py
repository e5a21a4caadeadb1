import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeot import (
    BinnedPMF,
    ChannelMismatch,
    DomainError,
    EmptyTrain,
    MultiChannelTrain,
    SortedSamples,
    binned_js_divergence,
    composite_wasserstein,
    directed_hausdorff,
    kfs_distance,
    spike_count_distance,
    victor_purpura,
)

try:
    import mpmath
except ImportError:  # the `test` extra installs it
    mpmath = None


def vp_matching_oracle(xs, ys, q):
    """Exhaustive Victor-Purpura oracle: minimum over all partial matchings."""
    n, m = len(xs), len(ys)
    best = float(n + m)
    for size in range(1, min(n, m) + 1):
        for xi in itertools.combinations(range(n), size):
            for yj in itertools.permutations(range(m), size):
                cost = (n - size) + (m - size) + q * sum(
                    abs(xs[i] - ys[j]) for i, j in zip(xi, yj)
                )
                best = min(best, cost)
    return best


def vp_double_loop(xs, ys, q):
    """The Victor-Purpura recurrence cell by cell: the route the row-wise
    cumulative minimum replaced, kept as its oracle."""
    n, m = len(xs), len(ys)
    if n == 0 or m == 0:
        return float(n + m)
    prev = np.arange(m + 1, dtype=float)
    for i in range(1, n + 1):
        cur = np.empty(m + 1)
        cur[0] = i
        shift_costs = prev[:-1] + q * np.abs(xs[i - 1] - ys)
        for j in range(1, m + 1):
            cur[j] = min(prev[j] + 1.0, cur[j - 1] + 1.0, shift_costs[j - 1])
        prev = cur
    return float(prev[m])


def kfs_gram(xs, ys, tau):
    """Radicand and total kernel mass of the kernel distance by three numpy
    Gram sums: the route the signed sweep replaced, kept as its oracle."""
    def gram_sum(a, b):
        return float(np.exp(-np.abs(a[:, None] - b[None, :]) / tau).sum())

    kxx, kxy, kyy = gram_sum(xs, xs), gram_sum(xs, ys), gram_sum(ys, ys)
    return kxx - 2.0 * kxy + kyy, kxx + 2.0 * kxy + kyy


def train(values):
    return SortedSamples(values)


def test_directed_hausdorff_subset_asymmetry():
    x = train([0, 1])
    y = train([0, 1, 2])
    assert directed_hausdorff(x, y) == 0.0
    assert directed_hausdorff(y, x) == 1.0


def test_directed_hausdorff_identity_and_singletons():
    x = train([0.5, 1.5])
    assert directed_hausdorff(x, x) == 0.0
    assert directed_hausdorff(train([0]), train([5])) == 5.0
    assert directed_hausdorff(train([5]), train([0])) == 5.0


def test_directed_hausdorff_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.normal(size=rng.integers(1, 15))
        y = rng.normal(size=rng.integers(1, 15))
        brute = max(min(abs(a - b) for b in y) for a in x)
        assert directed_hausdorff(train(x), train(y)) == pytest.approx(brute, rel=1e-15)


def test_directed_hausdorff_empty():
    with pytest.raises(EmptyTrain):
        directed_hausdorff(train([]), train([1]))
    with pytest.raises(EmptyTrain):
        directed_hausdorff(train([1]), train([]))


def test_js_identical_trains():
    x = train([0.1, 0.4, 0.9])
    total, per_bin = binned_js_divergence(x, x, 10)
    assert total == 0.0
    assert np.all(per_bin == 0.0)


def test_js_disjoint_supports_saturate():
    x = train(np.linspace(0.0, 1.0, 40))
    y = train(np.linspace(2.0, 3.0, 55))
    total, _ = binned_js_divergence(x, y, 10)
    assert total == pytest.approx(math.log(2.0), rel=1e-12)


def test_js_half_overlap_formula():
    # bin masses P = (1, 0), Q = (1/2, 1/2) over two equal bins
    x = train([0.1, 0.2, 0.3, 0.4])
    y = train([0.0, 1.0])
    total, per_bin = binned_js_divergence(x, y, 2)
    m1, m2 = 0.75, 0.25
    v1 = 0.5 * (1.0 * math.log(1.0 / m1) + 0.5 * math.log(0.5 / m1))
    v2 = 0.5 * (0.5 * math.log(0.5 / m2))
    assert per_bin[0] == pytest.approx(v1, rel=1e-12)
    assert per_bin[1] == pytest.approx(v2, rel=1e-12)
    assert total == pytest.approx(v1 + v2, rel=1e-12)


def test_js_degenerate_range_single_bin():
    total, per_bin = binned_js_divergence(train([2.0, 2.0]), train([2.0]), 10)
    assert total == 0.0
    assert per_bin.shape == (1,)


def test_js_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = train(rng.normal(size=rng.integers(1, 30)))
        y = train(rng.normal(size=rng.integers(1, 30)))
        t_xy, _ = binned_js_divergence(x, y, 10)
        t_yx, _ = binned_js_divergence(y, x, 10)
        assert t_xy == pytest.approx(t_yx, rel=1e-12, abs=1e-15)
        assert -1e-12 <= t_xy <= math.log(2.0) + 1e-12


def test_js_validation():
    with pytest.raises(EmptyTrain):
        binned_js_divergence(train([]), train([1.0]), 10)
    with pytest.raises(DomainError):
        binned_js_divergence(train([1.0]), train([2.0]), 0)


def test_binned_pmf_empty_flag():
    pmf = BinnedPMF.from_samples(train([]), [0.0, 1.0])
    assert pmf.empty
    assert np.all(pmf.masses == 0.0)
    full = BinnedPMF.from_samples(train([0.2, 0.8]), [0.0, 0.5, 1.0])
    assert not full.empty
    assert full.masses.sum() == pytest.approx(1.0)


def test_vp_zero_cost_is_count_difference():
    x = train([0.0, 1.0, 2.0])
    y = train([5.0])
    assert victor_purpura(x, y, 0.0) == 2.0
    assert victor_purpura(y, x, 0.0) == 2.0


def test_vp_spec_example():
    assert victor_purpura(train([1, 2]), train([1.1]), 1.0) == pytest.approx(1.1)


def test_vp_identity_and_empty():
    x = train([0.5, 0.6])
    assert victor_purpura(x, x, 3.0) == 0.0
    assert victor_purpura(train([]), x, 1.0) == 2.0
    assert victor_purpura(x, train([]), 1.0) == 2.0
    assert victor_purpura(train([]), train([]), 1.0) == 0.0


def test_vp_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        xs = np.sort(rng.uniform(0, 3, size=rng.integers(0, 5)))
        ys = np.sort(rng.uniform(0, 3, size=rng.integers(0, 5)))
        q = float(rng.uniform(0, 3))
        ours = victor_purpura(train(xs), train(ys), q)
        assert ours == pytest.approx(vp_matching_oracle(xs, ys, q), rel=1e-12, abs=1e-12)


def test_vp_symmetry_triangle_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(40):
        trains = [train(np.sort(rng.uniform(0, 2, size=rng.integers(0, 9))))
                  for _ in range(3)]
        q = float(rng.uniform(0, 2))
        a, b, c = trains
        dab = victor_purpura(a, b, q)
        assert dab == pytest.approx(victor_purpura(b, a, q), abs=1e-12)
        assert dab <= len(a) + len(b) + 1e-12
        assert victor_purpura(a, c, q) <= dab + victor_purpura(b, c, q) + 1e-9
    x = train([0.0, 1.0])
    y = train([0.2, 1.4])
    q = 0.7
    sorted_match = q * (0.2 + 0.4)
    assert victor_purpura(x, y, q) <= sorted_match + 1e-12


# A few grid values make duplicates within a train and ties across trains.
_spike_times = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0]), st.floats(0.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(_spike_times, max_size=40), ys=st.lists(_spike_times, max_size=40),
       q=st.one_of(st.sampled_from([0.0, 1e-9, 1e6]), st.floats(0.0, 10.0)))
def test_vp_rows_match_double_loop(xs, ys, q):
    x, y = train(xs), train(ys)
    oracle = vp_double_loop(x.values, y.values, q)
    xy, yx = victor_purpura(x, y, q), victor_purpura(y, x, q)
    assert abs(xy - oracle) <= 1e-12 * oracle
    assert abs(yx - xy) <= 1e-12 * xy
    if q == 0.0:
        assert xy == abs(len(xs) - len(ys))


@pytest.mark.parametrize("n, m", [(1, 40), (40, 3), (0, 40), (7, 300)])
def test_vp_rows_match_double_loop_lopsided(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    for q in (0.0, 1e-9, 0.7, 1e6):
        x = train(rng.uniform(0, 3, n))
        tied = min(n, m) // 2
        y = train(np.concatenate((x.values[:tied], rng.uniform(0, 3, m - tied))))
        oracle = vp_double_loop(x.values, y.values, q)
        assert abs(victor_purpura(x, y, q) - oracle) <= 1e-12 * oracle
        assert abs(victor_purpura(y, x, q) - oracle) <= 1e-12 * oracle


def test_vp_domain():
    with pytest.raises(DomainError):
        victor_purpura(train([1.0]), train([2.0]), -0.1)


def test_kfs_identity_and_pair():
    x = train([0.0, 1.0])
    assert kfs_distance(x, x, 1.0) == 0.0
    d, tau = 0.7, 0.9
    expected = math.sqrt(2.0 * (1.0 - math.exp(-d / tau)))
    assert kfs_distance(train([0.0]), train([d]), tau) == pytest.approx(expected, rel=1e-12)


def test_kfs_large_bandwidth_is_count_difference():
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = train(rng.uniform(0, 1, size=rng.integers(1, 25)))
        y = train(rng.uniform(0, 1, size=rng.integers(1, 25)))
        target = abs(len(x) - len(y))
        assert kfs_distance(x, y, 1e8) == pytest.approx(target, abs=1e-3)


def test_kfs_matches_gram_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        xs = rng.uniform(0, 5, size=rng.integers(1, 51))
        ys = rng.uniform(0, 5, size=rng.integers(1, 51))
        tau = float(rng.uniform(0.1, 3.0))
        kxx = sum(math.exp(-abs(a - b) / tau) for a in xs for b in xs)
        kxy = sum(math.exp(-abs(a - b) / tau) for a in xs for b in ys)
        kyy = sum(math.exp(-abs(a - b) / tau) for a in ys for b in ys)
        oracle = math.sqrt(max(kxx - 2 * kxy + kyy, 0.0))
        assert kfs_distance(train(xs), train(ys), tau) == pytest.approx(
            oracle, rel=1e-9, abs=1e-9
        )
        assert kfs_distance(train(ys), train(xs), tau) == pytest.approx(
            kfs_distance(train(xs), train(ys), tau), rel=1e-12, abs=1e-12
        )


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(_spike_times, min_size=1, max_size=40),
       ys=st.lists(_spike_times, min_size=1, max_size=40),
       shared=st.integers(0, 40), log_scale=st.floats(-6.0, 8.0))
def test_kfs_sweep_matches_gram_oracle(xs, ys, shared, log_scale):
    # tau from 1e-6 to 1e8 spans: far below 1/600 of the span, the sweep
    # needs many blocks, and no exp may overflow or underflow on the way
    x, y = train(xs), train(ys + xs[:shared])
    span = max(x.values[-1], y.values[-1]) - min(x.values[0], y.values[0])
    tau = (span or 1.0) * 10.0**log_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = kfs_distance(x, y, tau)
        assert kfs_distance(x, x, tau) == 0.0
    radicand, mass = kfs_gram(x.values, y.values, tau)
    # the Gram sums carry rounding of order 1e-16 of the total kernel mass
    assert abs(ours * ours - radicand) <= 1e-12 * mass
    if radicand >= 0.01 * mass:
        assert ours == pytest.approx(math.sqrt(radicand), rel=1e-12)


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
def test_kfs_against_mpmath_at_wide_bandwidth():
    # at tau = 1e8 the radicand is (n - m)^2 less O(span / tau): three Gram
    # totals of order n^2 cancel down to it (1.1e-14 relative off here), the
    # signed sweep cancels only small masses
    rng = np.random.default_rng(1)
    xs, ys = np.sort(rng.uniform(0, 10, 200)), np.sort(rng.uniform(0, 10, 180))
    tau = 1e8
    with mpmath.workdps(60):
        z = [mpmath.mpf(float(v)) for v in np.concatenate((xs, ys))]
        w = [1] * xs.size + [-1] * ys.size
        cross = mpmath.fsum(w[i] * w[j] * mpmath.exp(-abs(z[i] - z[j]) / tau)
                            for i in range(len(z)) for j in range(i))
        exact = float(mpmath.sqrt(len(z) + 2 * cross))
    assert abs(kfs_distance(train(xs), train(ys), tau) - exact) <= 1e-14 * exact


def test_kfs_sweep_at_tiny_bandwidth():
    # at tau = 1e-6 over 10 s almost every event is its own block: at most
    # n + m blocks, each O(1), and no slower than the n * m Gram sums
    rng = np.random.default_rng(12)
    xs, ys = np.sort(rng.uniform(0, 10, 2000)), np.sort(rng.uniform(0, 10, 1800))
    x, y = train(xs), train(ys)

    def best_of_three(f):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            value = f()
            times.append(time.perf_counter() - start)
        return min(times), value

    sweep_s, ours = best_of_three(lambda: kfs_distance(x, y, 1e-6))
    gram_s, (radicand, mass) = best_of_three(lambda: kfs_gram(xs, ys, 1e-6))
    assert abs(ours * ours - radicand) <= 1e-12 * mass
    assert sweep_s <= gram_s
    # at the smallest positive tau every cross term underflows to exactly 0
    assert kfs_distance(x, y, 5e-324) == math.sqrt(xs.size + ys.size)


def test_kfs_validation():
    with pytest.raises(DomainError):
        kfs_distance(train([1.0]), train([2.0]), 0.0)
    with pytest.raises(EmptyTrain):
        kfs_distance(train([]), train([2.0]), 1.0)


def test_spike_count_distance():
    a = MultiChannelTrain(tuple(train(np.zeros(c)) for c in (3, 3, 3, 3)))
    b = MultiChannelTrain(tuple(train(np.zeros(c)) for c in (3, 3, 3, 7)))
    assert spike_count_distance(a, a) == 0.0
    assert spike_count_distance(a, b) == 4.0
    c1 = MultiChannelTrain((train(np.zeros(1)), train(np.zeros(2))))
    c2 = MultiChannelTrain((train(np.zeros(4)), train(np.zeros(6))))
    assert spike_count_distance(c1, c2) == 5.0
    with pytest.raises(ChannelMismatch):
        spike_count_distance(a, c1)


def test_composite_wasserstein():
    a = MultiChannelTrain((train([0.0]), train([0.0])))
    b = MultiChannelTrain((train([3.0]), train([4.0])))
    assert composite_wasserstein(a, a) == 0.0
    assert composite_wasserstein(a, b) == pytest.approx(5.0)
    single_a = MultiChannelTrain((train([0.0, 1.0]),))
    single_b = MultiChannelTrain((train([0.5, 2.0]),))
    from spikeot import make_uniform_empirical, w1_general

    expected = w1_general(
        make_uniform_empirical([0.0, 1.0]), make_uniform_empirical([0.5, 2.0])
    )
    assert composite_wasserstein(single_a, single_b) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(EmptyTrain):
        composite_wasserstein(a, MultiChannelTrain((train([]), train([1.0]))))
    with pytest.raises(ChannelMismatch):
        composite_wasserstein(a, single_a)


def test_distances_vanish_iff_equal():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = train(rng.uniform(0, 1, size=rng.integers(1, 10)))
        y = train(np.concatenate([x.values, [2.0]]))
        assert directed_hausdorff(y, x) > 0.0
        assert victor_purpura(x, y, 1.0) > 0.0
        assert kfs_distance(x, y, 1.0) > 0.0
