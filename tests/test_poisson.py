import math

import numpy as np
import pytest
from scipy import integrate, stats

from spikeot import (
    DomainError,
    IntensityExhausted,
    RateFunction,
    SpikeSeed,
    sample_kth_arrival,
    simulate_process,
)


def quad_cumulative(rate_fn, x):
    """Adaptive-quadrature oracle for the cumulative intensity."""
    pts = [t for t in getattr(rate_fn, "breakpoints", []) if 0.0 < t < x]
    val, _ = integrate.quad(rate_fn.rate, 0.0, x, points=pts or None, limit=200)
    return val


def two_segment_rate(ratio, base_rate=100.0):
    """Concentrated-then-sparse rate with expected total mass = base_rate."""
    knee = 1.0 / (ratio + 1.0)
    return RateFunction.piecewise_constant(
        [0.0, knee, 1.0], [ratio * base_rate, base_rate / ratio]
    )


def test_constant_cumulative_and_inverse():
    r = RateFunction.constant(2.0)
    assert r.cumulative(3.0) == 6.0
    assert r.inverse_cumulative(6.0) == 3.0
    assert r.total_intensity == math.inf


def test_saturating_cumulative():
    r = RateFunction.piecewise_constant([0, 1], [1.0])
    assert r.cumulative(5.0) == 1.0
    assert r.total_intensity == 1.0


def test_two_segment_cumulative_matches_quadrature():
    r = two_segment_rate(math.e)
    knee = 1.0 / (math.e + 1.0)
    assert r.cumulative(knee) == pytest.approx(
        math.e * 100.0 * knee, rel=1e-14
    )
    for x in [0.1, knee, 0.5, 0.93, 1.0, 2.0]:
        assert r.cumulative(x) == pytest.approx(
            quad_cumulative(r, x), rel=1e-10
        )


def test_piecewise_linear_cumulative_matches_quadrature():
    r = RateFunction.piecewise_linear([0.0, 1.0, 3.0, 4.5], [0.0, 2.0, 2.0, 5.0])
    for x in [0.2, 1.0, 1.7, 3.2, 4.5, 9.0]:
        assert r.cumulative(x) == pytest.approx(quad_cumulative(r, x), rel=1e-10)


def test_cumulative_domain_errors():
    r = RateFunction.constant(1.0)
    with pytest.raises(DomainError):
        r.cumulative(-0.5)
    with pytest.raises(DomainError):
        r.inverse_cumulative(-1e-9)


def test_inverse_round_trip_on_random_rate_functions():
    rng = np.random.default_rng(21)
    for trial in range(25):
        bps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, size=4))))
        if trial % 2 == 0:
            levels = rng.uniform(0.0, 3.0, size=4)
            levels[rng.integers(0, 4)] = 0.0  # force a plateau
            r = RateFunction.piecewise_constant(bps, levels)
        else:
            r = RateFunction.piecewise_linear(bps, rng.uniform(0.0, 3.0, size=5))
        total = r.total_intensity
        if total == 0.0:
            continue
        us = rng.uniform(0.0, total, size=50)
        us = us[us < total]
        back = r.cumulative(r.inverse_cumulative(us))
        np.testing.assert_allclose(back, us, atol=1e-10, rtol=1e-10)


def test_inverse_square_root_segment_form():
    # rate 2t on [0, 10]: cumulative t^2, inverse sqrt(u)
    r = RateFunction.piecewise_linear([0.0, 10.0], [0.0, 20.0])
    u = np.linspace(0.0, 99.9, 500)
    np.testing.assert_allclose(r.inverse_cumulative(u), np.sqrt(u), atol=1e-12)
    np.testing.assert_allclose(r.cumulative(r.inverse_cumulative(u)), u, atol=1e-10)


def test_inverse_plateau_returns_left_endpoint():
    r = RateFunction.piecewise_constant([0, 1, 2, 3], [1.0, 0.0, 2.0])
    assert r.inverse_cumulative(1.0) == 1.0
    assert r.inverse_cumulative(1.5) == pytest.approx(2.25)
    assert r.inverse_cumulative(0.0) == 0.0


def test_inverse_exhaustion():
    r = RateFunction.piecewise_constant([0, 1], [2.0])
    with pytest.raises(IntensityExhausted):
        r.inverse_cumulative(2.0)
    with pytest.raises(IntensityExhausted):
        r.inverse_cumulative(5.0)


def test_rate_function_validation():
    with pytest.raises(DomainError):
        RateFunction.piecewise_constant([1, 0], [1.0])
    with pytest.raises(DomainError):
        RateFunction.piecewise_constant([-1, 1], [1.0])
    with pytest.raises(DomainError):
        RateFunction.piecewise_constant([0, 1], [-0.5])
    with pytest.raises(DomainError):
        RateFunction.piecewise_linear([0, 1], [1.0, -1.0])
    with pytest.raises(DomainError):
        RateFunction.constant(-1.0)


def test_simulation_count_law():
    # Poisson(100) count over 10,000 trials: mean, dispersion, and a chi^2
    # goodness-of-fit against the Poisson pmf, all at the 1% level
    r = RateFunction.constant(100.0)
    trials = 10_000
    counts = np.array([
        len(simulate_process(r, 1.0, SpikeSeed(404, stream=i))) for i in range(trials)
    ])
    mean = counts.mean()
    assert abs(mean - 100.0) < 4.0 * math.sqrt(100.0 / trials)
    dispersion = (trials - 1) * counts.var(ddof=1) / mean
    lo, hi = stats.chi2.ppf([0.005, 0.995], df=trials - 1)
    assert lo < dispersion < hi

    ks = np.arange(60, 141)
    pmf = stats.poisson.pmf(ks, 100.0)
    expected = trials * np.concatenate(([stats.poisson.cdf(59, 100.0)], pmf,
                                        [stats.poisson.sf(140, 100.0)]))
    observed = np.concatenate((
        [(counts < 60).sum()],
        [(counts == k).sum() for k in ks],
        [(counts > 140).sum()],
    ))
    gof = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert gof.pvalue > 0.01


def test_simulation_zero_rate_is_empty():
    r = RateFunction.piecewise_constant([0, 1], [0.0])
    assert len(simulate_process(r, 1.0, SpikeSeed(1))) == 0


def test_simulation_time_rescaling():
    # pushing simulated nonhomogeneous spikes through m gives a unit-rate
    # process; pooled normalized points are U(0,1) (KS at the 1% level)
    r = RateFunction.piecewise_linear([0.0, 0.5, 2.0], [4.0, 1.0, 3.0])
    total = r.cumulative(2.0)
    pooled = []
    for i in range(10_000):
        spikes = simulate_process(r, 2.0, SpikeSeed(77, stream=i))
        if len(spikes):
            pooled.append(r.cumulative(spikes.values) / total)
    pooled = np.concatenate(pooled)
    assert stats.kstest(pooled, "uniform").pvalue > 0.01


def test_simulation_output_within_support():
    r = RateFunction.piecewise_constant([0.5, 1.5], [30.0])
    spikes = simulate_process(r, 2.0, SpikeSeed(9))
    assert np.all(spikes.values >= 0.5)
    assert np.all(spikes.values <= 1.5)
    assert np.all(np.diff(spikes.values) >= 0.0)


def test_simulation_respects_horizon():
    r = RateFunction.piecewise_constant([0.0, 2.0], [50.0])
    spikes = simulate_process(r, 1.0, SpikeSeed(10))
    assert len(spikes) > 0
    assert np.all(spikes.values <= 1.0)


def test_simulation_determinism():
    r = RateFunction.piecewise_linear([0.0, 1.0], [10.0, 50.0])
    a = simulate_process(r, 1.0, SpikeSeed(3, stream=2))
    b = simulate_process(r, 1.0, SpikeSeed(3, stream=2))
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_process(r, 1.0, SpikeSeed(3, stream=3))
    assert len(a) != len(c) or not np.array_equal(a.values, c.values)


def test_simulation_domain():
    with pytest.raises(DomainError):
        simulate_process(RateFunction.constant(1.0), 0.0, SpikeSeed(0))


def test_erlang_moments():
    lam, k = 2.0, 3
    draws = np.array([
        sample_kth_arrival(lam, k, SpikeSeed(505, stream=i)) for i in range(100_000)
    ])
    target_mean = k / lam
    target_var = k / lam**2
    se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target_mean) < 4.0 * se_mean
    m4 = np.mean((draws - draws.mean()) ** 4)
    se_var = math.sqrt(m4 - draws.var() ** 2) / math.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - target_var) < 4.0 * se_var


def test_erlang_k1_is_exponential():
    lam = 0.7
    draws = np.array([
        sample_kth_arrival(lam, 1, SpikeSeed(606, stream=i)) for i in range(10_000)
    ])
    assert stats.kstest(draws, "expon", args=(0, 1 / lam)).pvalue > 0.01


def test_erlang_domain():
    with pytest.raises(DomainError):
        sample_kth_arrival(0.0, 1, SpikeSeed(0))
    with pytest.raises(DomainError):
        sample_kth_arrival(1.0, 0, SpikeSeed(0))
    with pytest.raises(DomainError):
        sample_kth_arrival(1.0, 1.5, SpikeSeed(0))


def test_spike_seed_validation():
    with pytest.raises(DomainError):
        SpikeSeed(-1)
    with pytest.raises(DomainError):
        SpikeSeed(0, stream=-2)
