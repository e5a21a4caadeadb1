import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from spikeot import (
    DegenerateLimit,
    DomainError,
    IntensityExhausted,
    RateFunction,
    SpikeSeed,
    expected_distance,
    expected_distance_time_varying,
    expected_wasserstein,
    leading_order_wasserstein,
    limiting_normalized_distance,
    shifted_expected_distance,
)
from spikeot.closed_form import GAMMA_TAIL, _binom_mad

try:
    import mpmath
except ImportError:  # the `test` extra installs it
    mpmath = None


def gap_mean_series_form(rate1, rate2, k, l):
    """Independent route to E|x_k - y_l|: alternating-series representation.

    sum_{i<k} C(l-1+i, i) 2(k-i) r1^(i-1) r2^l / (r1+r2)^(l+i) - k/r1 + l/r2.
    """
    total = 0.0
    for i in range(k):
        total += (
            math.comb(l - 1 + i, i)
            * 2.0
            * (k - i)
            * rate1 ** (i - 1)
            * rate2**l
            / (rate1 + rate2) ** (l + i)
        )
    return total - k / rate1 + l / rate2


def gap_mean_quadrature(rate1, rate2, k, l):
    """Independent route: numerical double integral over the Erlang densities."""

    def erlang_pdf(z, shape, rate):
        return rate**shape * z ** (shape - 1) * np.exp(-rate * z) / math.factorial(shape - 1)

    hi1 = special.gammainccinv(k, 1e-12) / rate1
    hi2 = special.gammainccinv(l, 1e-12) / rate2

    def inner(y):
        val, _ = integrate.quad(
            lambda x: abs(x - y) * erlang_pdf(x, k, rate1), 0.0, hi1,
            points=[y] if 0 < y < hi1 else None, limit=200,
        )
        return val * erlang_pdf(y, l, rate2)

    val, _ = integrate.quad(inner, 0.0, hi2, limit=200)
    return val


def binom_abs_expectation(n, p, center):
    """Oracle for ``_binom_mad``: the term-by-term sum of |center - i| under Bin(n, p).

    Each probability is exponentiated from log-gamma binomial coefficients.
    """
    i = np.arange(n + 1)
    log_pmf = (
        special.gammaln(n + 1)
        - special.gammaln(i + 1)
        - special.gammaln(n - i + 1)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )
    return float(np.sum(np.exp(log_pmf) * np.abs(center - i)))


def mp_gap_mean(rate1, rate2, k):
    """E|x_k - y_k| at 30 digits: the Bin(2k, p) MAD summed over mean +- 40 sd."""
    with mpmath.workdps(30):
        r1, r2 = mpmath.mpf(rate1), mpmath.mpf(rate2)
        p = r1 / (r1 + r2)
        n = 2 * k
        sd = mpmath.sqrt(n * p * (1 - p))
        lo = max(0, int(n * p - 40 * sd))
        hi = min(n, int(n * p + 40 * sd) + 1)
        pmf = mpmath.binomial(n, lo) * p**lo * (1 - p) ** (n - lo)
        total = mpmath.mpf(0)
        for i in range(lo, hi + 1):
            total += pmf * abs(k - i)
            pmf *= (n - i) / mpmath.mpf(i + 1) * p / (1 - p)
        return (r1 + r2) / (r1 * r2) * total


def test_binom_abs_expectation_enumerated():
    assert binom_abs_expectation(2, 0.5, 1) == pytest.approx(0.5)
    assert binom_abs_expectation(2, 1 / 3, 1) == pytest.approx(5 / 9)
    assert _binom_mad(1, 2, 0.5, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert _binom_mad(1, 2, 1 / 3, 2 / 3) == pytest.approx(5 / 9, rel=1e-15)


def test_binom_abs_expectation_symmetry():
    for k in (1, 3, 7):
        a = binom_abs_expectation(2 * k, 0.3, k)
        b = binom_abs_expectation(2 * k, 0.7, k)
        assert a == pytest.approx(b, rel=1e-13)
        assert _binom_mad(k, 2 * k, 0.3, 0.7) == pytest.approx(a, rel=1e-13)
        assert _binom_mad(k, 2 * k, 0.7, 0.3) == pytest.approx(a, rel=1e-13)


def test_binom_abs_expectation_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        center = int(rng.integers(1, n))
        p = float(rng.uniform(0.05, 0.95))
        brute = sum(
            math.comb(n, i) * p**i * (1 - p) ** (n - i) * abs(center - i)
            for i in range(n + 1)
        )
        assert binom_abs_expectation(n, p, center) == pytest.approx(brute, rel=1e-12)
        assert _binom_mad(center, n, p, 1 - p) == pytest.approx(brute, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 400), data=st.data(),
       p=st.sampled_from([0.5, 0.5 + 1e-9, 0.5 - 1e-9]) | st.floats(0.01, 0.99))
def test_binom_mad_matches_log_pmf_sum(n, data, p):
    # de Moivre's O(1) form against the O(n) sum, over every centre the gap
    # formula reaches (1 <= c < n), p = 1/2 and next to it included
    c = data.draw(st.integers(1, n - 1))
    assert _binom_mad(c, n, p, 1 - p) == pytest.approx(binom_abs_expectation(n, p, c), rel=1e-12)


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@pytest.mark.parametrize("rate1, rate2, k", [
    (1.0, 1.0, 10**6), (1.0, 1.001, 10**4), (1.0, 1.001, 10**5), (1.0, 1.001, 10**6),
    (0.3, 0.8, 10**5),
])
def test_expected_distance_large_k_against_mpmath(rate1, rate2, k):
    if rate1 == rate2:
        # E|X - k| = k C(2k, k) / 4^k for X ~ Bin(2k, 1/2)
        with mpmath.workdps(30):
            ref = 2 / mpmath.mpf(rate1) * k * mpmath.binomial(2 * k, k) / mpmath.mpf(4) ** k
    else:
        ref = mp_gap_mean(rate1, rate2, k)
    assert expected_distance(rate1, rate2, k, k).mean == pytest.approx(float(ref), rel=2e-9)


def test_expected_distance_unit_rates_is_laplace():
    # x - y for unit exponentials is Laplace(1): E|x-y| = 1, E[(x-y)^2] = 2
    moment = expected_distance(1.0, 1.0, 1, 1)
    assert moment.mean == pytest.approx(1.0, rel=1e-14)
    assert moment.variance == pytest.approx(1.0, rel=1e-12)


def test_expected_distance_first_arrivals_identity():
    # independent exponentials: E|x-y| = 1/r1 + 1/r2 - 2/(r1+r2)
    for r1, r2 in [(1.0, 2.0), (0.3, 0.8), (4.0, 0.25)]:
        target = 1 / r1 + 1 / r2 - 2 / (r1 + r2)
        assert expected_distance(r1, r2, 1, 1).mean == pytest.approx(target, rel=1e-13)


def test_expected_distance_matches_series_form():
    rng = np.random.default_rng(1)
    for _ in range(30):
        r1, r2 = rng.uniform(0.2, 5.0, size=2)
        k, l = (int(v) for v in rng.integers(1, 25, size=2))
        ours = expected_distance(r1, r2, k, l).mean
        assert ours == pytest.approx(gap_mean_series_form(r1, r2, k, l), rel=1e-8)


def test_expected_distance_matches_quadrature():
    for r1, r2, k, l in [(1.0, 2.0, 1, 1), (0.7, 1.3, 2, 3), (2.5, 0.4, 4, 1)]:
        ours = expected_distance(r1, r2, k, l).mean
        assert ours == pytest.approx(gap_mean_quadrature(r1, r2, k, l), rel=1e-8)


def test_expected_distance_symmetry():
    m1 = expected_distance(0.7, 2.1, 4, 9)
    m2 = expected_distance(2.1, 0.7, 9, 4)
    assert m1.mean == m2.mean
    assert m1.variance == m2.variance


def test_expected_distance_variance_against_mc():
    r1, r2, k, l = 0.9, 1.7, 3, 5
    moment = expected_distance(r1, r2, k, l)
    seed = SpikeSeed(31)
    n = 200_000
    x = seed.generator(0).gamma(k, 1 / r1, n)
    y = seed.generator(1).gamma(l, 1 / r2, n)
    gaps = np.abs(x - y)
    se_mean = gaps.std(ddof=1) / math.sqrt(n)
    assert abs(gaps.mean() - moment.mean) < 4 * se_mean
    m4 = np.mean((gaps - gaps.mean()) ** 4)
    se_var = math.sqrt(m4 - gaps.var() ** 2) / math.sqrt(n)
    assert abs(gaps.var(ddof=1) - moment.variance) < 4 * se_var


def test_prefactor_consistency_at_equal_orders():
    # (r1+r2)/(2 r1 r2) E|2i-2k| matches the general-form mean at k = l
    for r1, r2, k in [(1.0, 2.0, 1), (0.3, 0.8, 5), (2.0, 2.0, 10)]:
        p = r1 / (r1 + r2)
        i = np.arange(2 * k + 1)
        pmf = np.exp(
            special.gammaln(2 * k + 1)
            - special.gammaln(i + 1)
            - special.gammaln(2 * k - i + 1)
            + i * math.log(p)
            + (2 * k - i) * math.log1p(-p)
        )
        doubled = float(np.sum(pmf * np.abs(2 * i - 2 * k)))
        via_eq5 = (r1 + r2) / (2 * r1 * r2) * doubled
        assert expected_distance(r1, r2, k, k).mean == pytest.approx(via_eq5, rel=1e-12)


def test_harmonic_mean_sweep_minimum_at_equal_rates():
    for c in (1.0, 2.5):
        for k in (1, 6):
            t = c * np.exp(np.linspace(-0.6, 0.6, 101))
            partner = c * t / (2 * t - c)
            vals = [expected_distance(a, b, k, k).mean for a, b in zip(t, partner)]
            assert int(np.argmin(vals)) == 50


def test_expected_distance_domain():
    for bad in [(0.0, 1.0, 1, 1), (1.0, -1.0, 1, 1), (1.0, 1.0, 0, 1), (1.0, 1.0, 1, 1.5)]:
        with pytest.raises(DomainError):
            expected_distance(*bad)


def test_expected_wasserstein_single_sample():
    assert expected_wasserstein(2.0, 2.0, 1) == pytest.approx(1 / 2.0, rel=1e-13)
    assert expected_wasserstein(1.0, 1.0, 1) == pytest.approx(1.0, rel=1e-13)


def test_expected_wasserstein_matches_mc():
    r1, r2, n_samples = 1.0, 2.0, 20
    closed = expected_wasserstein(r1, r2, n_samples)
    seed = SpikeSeed(17)
    trials = 20_000
    x = np.cumsum(seed.generator(0).standard_exponential((trials, n_samples)), axis=1) / r1
    y = np.cumsum(seed.generator(1).standard_exponential((trials, n_samples)), axis=1) / r2
    w = np.abs(x - y).mean(axis=1)
    se = w.std(ddof=1) / math.sqrt(trials)
    assert abs(w.mean() - closed) < 3 * se


def test_shifted_reduces_to_unshifted_exactly():
    for r1, r2, k, l in [(1.0, 2.0, 1, 1), (0.3, 0.8, 3, 2)]:
        assert shifted_expected_distance(r1, r2, k, l, 0.0) == expected_distance(r1, r2, k, l)


def test_shifted_continuous_at_zero():
    base = expected_distance(0.5, 1.5, 2, 4).mean
    eps = shifted_expected_distance(0.5, 1.5, 2, 4, 1e-9).mean
    assert eps == pytest.approx(base, abs=1e-8)


def test_shifted_large_shift_approaches_drift():
    moment = shifted_expected_distance(1.0, 2.0, 1, 1, 10.0)
    assert moment.mean == pytest.approx(10.0 + 1.0 - 0.5, rel=1e-9)


def test_shifted_hand_evaluated_unit_case():
    assert shifted_expected_distance(1.0, 1.0, 1, 1, 0.0).mean == pytest.approx(1.0)


def test_shifted_matches_mc_both_signs():
    seed = SpikeSeed(23)
    n = 200_000
    for r1, r2, k, l, dt in [(0.3, 0.8, 1, 1, -10.0), (0.3, 0.8, 1, 1, 2.5),
                             (1.2, 0.6, 3, 2, 1.0), (1.2, 0.6, 2, 5, -0.7)]:
        moment = shifted_expected_distance(r1, r2, k, l, dt)
        x = seed.generator(0, int(dt * 10) & 0xFF).gamma(k, 1 / r1, n)
        y = seed.generator(1, int(dt * 10) & 0xFF).gamma(l, 1 / r2, n)
        gaps = np.abs(x + dt - y)
        se_mean = gaps.std(ddof=1) / math.sqrt(n)
        assert abs(gaps.mean() - moment.mean) < 4 * se_mean
        m4 = np.mean((gaps - gaps.mean()) ** 4)
        se_var = math.sqrt(max(m4 - gaps.var() ** 2, 0.0)) / math.sqrt(n)
        assert abs(gaps.var(ddof=1) - moment.variance) < 4 * se_var


def shifted_mean_double_sum(rate1, rate2, k, l, shift):
    """Oracle for the shifted mean: the k x l double sum over (i, j) of

    C(i+j, i) pois(l-1-j; r2 dt) (k-i) r1^(i-1) r2^(j+1) / (r1+r2)^(i+j+1),
    plus the drift and boundary terms, each term from log-gamma factors.
    """
    if shift < 0.0:
        rate1, rate2, k, l, shift = rate2, rate1, l, k, -shift
    lam = rate2 * shift
    log_lam = math.log(lam)
    term1 = (k / rate1 - l / rate2 + shift) * (1.0 - 2.0 * special.pdtr(l - 1, lam))
    i = np.arange(k)[:, None]
    j = np.arange(l)[None, :]
    log_terms = (
        special.gammaln(i + j + 1)
        - special.gammaln(i + 1)
        - special.gammaln(j + 1)
        + ((l - 1 - j) * log_lam - lam - special.gammaln(l - j))
        + np.log(k - i)
        + (i - 1) * math.log(rate1)
        + (j + 1) * math.log(rate2)
        - (i + j + 1) * math.log(rate1 + rate2)
    )
    term2 = 2.0 * float(np.sum(np.exp(log_terms)))
    term3 = 2.0 * shift * math.exp((l - 1) * log_lam - lam - special.gammaln(l))
    return term1 + term2 + term3


def test_shifted_matches_double_sum():
    rng = np.random.default_rng(7)
    for _ in range(60):
        r1, r2 = (float(v) for v in rng.uniform(0.1, 5.0, size=2))
        k, l = (int(v) for v in rng.integers(1, 120, size=2))
        shift = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 30.0))
        ours = shifted_expected_distance(r1, r2, k, l, shift).mean
        assert ours == pytest.approx(shifted_mean_double_sum(r1, r2, k, l, shift), rel=1e-10)


def test_shifted_memory_does_not_grow_with_k_times_l():
    # the double sum builds 4e6-element temporaries at k = l = 2000
    tracemalloc.start()
    try:
        shifted_expected_distance(0.3, 0.8, 2000, 2000, 3.0)
        shifted_expected_distance(0.3, 0.8, 2000, 2000, -3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_shifted_rejects_a_window_beyond_ten_million_terms():
    with pytest.raises(DomainError):
        shifted_expected_distance(0.3, 0.8, 10**12, 10**12, 1e12)


def test_shifted_domain():
    with pytest.raises(DomainError):
        shifted_expected_distance(1.0, 1.0, 1, 1, math.inf)
    with pytest.raises(DomainError):
        shifted_expected_distance(-1.0, 1.0, 1, 1, 0.0)


def test_limiting_normalized_distance_values():
    mean, var = limiting_normalized_distance(0.3, 0.8)
    assert mean == pytest.approx(25 / 12)
    assert var == 0.0
    assert limiting_normalized_distance(1.0, 2.0)[0] == pytest.approx(0.5)
    assert limiting_normalized_distance(2.0, 1.0)[0] == pytest.approx(0.5)
    with pytest.raises(DegenerateLimit):
        limiting_normalized_distance(1.0, 1.0)


def test_limiting_distance_mc_convergence():
    limit, _ = limiting_normalized_distance(0.3, 0.8)
    seed = SpikeSeed(29)
    k, trials = 200, 20_000
    x = seed.generator(0).gamma(k, 1 / 0.3, trials)
    y = seed.generator(1).gamma(k, 1 / 0.8, trials)
    s_k = np.abs(x - y) / k
    assert abs(s_k.mean() - limit) / limit < 0.02


def test_leading_order_values():
    assert leading_order_wasserstein(1.0, 2.0, 20) == pytest.approx(5.25)
    assert leading_order_wasserstein(2.0, 1.0, 20) == pytest.approx(5.25)
    assert leading_order_wasserstein(3.0, 3.0, 7) == 0.0
    with pytest.raises(DomainError):
        leading_order_wasserstein(1.0, 2.0, 0)


def test_leading_order_approximates_exact_sum():
    exact = expected_wasserstein(1.0, 2.0, 100)
    approx = leading_order_wasserstein(1.0, 2.0, 100)
    assert abs(exact - approx) / approx < 0.10


def test_time_varying_reduces_to_constant():
    mu = RateFunction.constant(1.0)
    nu = RateFunction.constant(2.0)
    for k, l in [(1, 1), (2, 1), (3, 4)]:
        closed = expected_distance(1.0, 2.0, k, l).mean
        quad = expected_distance_time_varying(mu, nu, k, l, power=1)
        assert quad == pytest.approx(closed, rel=1e-5)


def test_time_varying_power_two_constant_case():
    # E[(x_1 - y_1)^2] = 1/r1^2 + 1/r2^2 + (1/r1 - 1/r2)^2 for exponentials
    mu = RateFunction.constant(1.0)
    nu = RateFunction.constant(2.0)
    target = 1.0 + 0.25 + 0.25
    assert expected_distance_time_varying(mu, nu, 1, 1, power=2) == pytest.approx(
        target, rel=1e-5
    )


def test_time_varying_piecewise_linear_vs_mc():
    mu = RateFunction.piecewise_linear([0.0, 2.0, 6.0], [5.0, 30.0, 40.0])
    nu = RateFunction.piecewise_linear([0.5, 3.0, 8.0], [10.0, 20.0, 0.0])
    quad = expected_distance_time_varying(mu, nu, 2, 3, power=2)
    seed = SpikeSeed(41)
    n = 400_000
    x = mu.inverse_cumulative(seed.generator(0).gamma(2, 1.0, n))
    y = nu.inverse_cumulative(seed.generator(1).gamma(3, 1.0, n))
    d2 = (x - y) ** 2
    se = d2.std(ddof=1) / math.sqrt(n)
    assert abs(quad - d2.mean()) < 3 * se


def time_varying_2d(mu, nu, k, l, power=1, rel_tol=1e-6):
    """Oracle for the 1D time-varying route: 2D adaptive quadrature.

    Substituting u = m(x), v = n(y) maps the arrivals to unit-rate Gamma
    variables, so the target is the Gamma(k) x Gamma(l) weighted integral of
    |m^-1(u) - n^-1(v)|^power over the same truncated domain.
    """
    u_hi = float(special.gammainccinv(k, GAMMA_TAIL))
    v_hi = float(special.gammainccinv(l, GAMMA_TAIL))

    def interior_cuts(rate_fn, upper):
        if rate_fn.kind == "constant":
            return []
        cuts = rate_fn.cumulative(np.maximum(rate_fn.breakpoints, 0.0))
        return sorted({float(c) for c in cuts if 0.0 < c < upper})

    u_cuts = interior_cuts(mu, u_hi)
    v_cuts = interior_cuts(nu, v_hi)

    def inner(v):
        y = nu.inverse_cumulative(v)

        def f(u):
            gap = mu.inverse_cumulative(u) - y
            w = abs(gap) if power == 1 else gap * gap
            return w * math.exp((k - 1) * math.log(u) - u - special.gammaln(k)) if u > 0 else 0.0

        pts = list(u_cuts)
        if power == 1:
            # kink where the integrand's absolute value switches sign
            kink = mu.cumulative(y) if y >= 0.0 else 0.0
            if 0.0 < kink < u_hi:
                pts.append(kink)
        val, _ = integrate.quad(f, 0.0, u_hi, points=sorted(pts) or None, limit=200,
                                epsabs=1e-14, epsrel=rel_tol / 10.0)
        return val

    def outer(v):
        return inner(v) * math.exp((l - 1) * math.log(v) - v - special.gammaln(l)) if v > 0 else 0.0

    val, _ = integrate.quad(outer, 0.0, v_hi, points=v_cuts or None, limit=200,
                            epsabs=1e-14, epsrel=rel_tol)
    return val


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("mu, nu", [
    (RateFunction.constant(0.3), RateFunction.constant(0.8)),
    (RateFunction.piecewise_constant([0.0, 5.0, 15.0, 60.0], [0.5, 0.2, 0.6]),
     RateFunction.piecewise_constant([0.0, 10.0, 100.0], [1.0, 0.4])),
    (RateFunction.piecewise_linear([0.0, 10.0, 30.0, 80.0], [0.2, 1.0, 0.3, 0.6]),
     RateFunction.piecewise_linear([0.0, 20.0, 120.0], [0.9, 0.2, 0.5])),
], ids=["constant", "piecewise_constant", "piecewise_linear"])
def test_time_varying_matches_2d_quadrature(mu, nu, power):
    ours = expected_distance_time_varying(mu, nu, 3, 5, power)
    assert ours == pytest.approx(time_varying_2d(mu, nu, 3, 5, power), rel=1e-6)


def test_time_varying_power_two_holds_rel_tol_under_cancellation():
    # k = l = 200 at equal rates: EX^2 + EY^2 is 200 times E(X - Y)^2
    mu = nu = RateFunction.constant(1.0)
    exact = expected_distance_time_varying(mu, nu, 200, 200, power=2, rel_tol=1e-11)
    assert expected_distance_time_varying(mu, nu, 200, 200, power=2) == pytest.approx(
        exact, rel=1e-6)
    assert exact == pytest.approx(400.0, rel=1e-7)


def test_time_varying_exhaustion_and_domain():
    short = RateFunction.piecewise_constant([0, 1], [2.0])
    nu = RateFunction.constant(1.0)
    with pytest.raises(IntensityExhausted):
        expected_distance_time_varying(short, nu, 1, 1)
    with pytest.raises(DomainError):
        expected_distance_time_varying(nu, nu, 1, 1, power=3)
    with pytest.raises(DomainError):
        expected_distance_time_varying(nu, nu, 0, 1)
