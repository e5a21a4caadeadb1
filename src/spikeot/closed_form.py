"""Closed-form moments of order-statistic gaps between two Poisson processes.

The k-th arrival of a homogeneous process with rate r is Erlang(k, r).  For
two independent processes the expected absolute gap between the k-th and l-th
arrivals reduces to a binomial mean absolute deviation:

    E|x_k - y_l| = (r1 + r2) / (r1 r2) * E_{i ~ Bin(k+l, p)} |k - i|,
    p = r1 / (r1 + r2),

and the second moment is elementary, giving the variance.  A rigid support
shift dt adds Poisson-weighted correction terms that decay like exp(-r2 * dt)
for dt > 0; for dt < 0 the two processes swap roles and the terms decay like
exp(-r1 * |dt|).
For time-varying rates no closed form is attempted: the substitution
u = m(x), v = n(y) turns the expectation into a Gamma-weighted double
integral over the inverse cumulative intensities, evaluated by adaptive
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateLimit, DomainError, IntensityExhausted
from .poisson import RateFunction

__all__ = [
    "ClosedFormMoment",
    "BinomialAbsDeviation",
    "binom_abs_expectation",
    "expected_distance",
    "expected_wasserstein",
    "shifted_expected_distance",
    "limiting_normalized_distance",
    "leading_order_wasserstein",
    "expected_distance_time_varying",
]

GAMMA_TAIL = 1e-10


@dataclass(frozen=True)
class ClosedFormMoment:
    """Mean and variance of a nonnegative analytic expectation."""

    mean: float
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class BinomialAbsDeviation:
    """E_{i ~ Bin(n, p)} |center - i|, the combinatorial core of the gap formulas."""

    n: int
    p: float
    center: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError("n must be an integer >= 1")
        if not (0.0 < self.p < 1.0):
            raise DomainError("p must lie strictly inside (0, 1)")
        if int(self.center) != self.center or not (1 <= self.center <= self.n):
            raise DomainError("center must be an integer in [1, n]")


def binom_abs_expectation(b: BinomialAbsDeviation) -> float:
    """Exact term-by-term sum of |center - i| under Bin(n, p).

    Each probability is exponentiated from log-gamma binomial coefficients,
    so the sum is deterministic and accurate for n well beyond 10^4.
    """
    i = np.arange(b.n + 1)
    log_pmf = (
        special.gammaln(b.n + 1)
        - special.gammaln(i + 1)
        - special.gammaln(b.n - i + 1)
        + i * math.log(b.p)
        + (b.n - i) * math.log1p(-b.p)
    )
    return float(np.sum(np.exp(log_pmf) * np.abs(b.center - i)))


def _check_rates_orders(rate1, rate2, k, l):
    for r in (rate1, rate2):
        if not (r > 0.0) or not np.isfinite(r):
            raise DomainError("rates must be positive and finite")
    for order in (k, l):
        if int(order) != order or order < 1:
            raise DomainError("arrival orders must be integers >= 1")


def expected_distance(rate1: float, rate2: float, k: int, l: int) -> ClosedFormMoment:
    """Moments of |x_k - y_l| for independent Erlang arrivals with the given rates.

    mean = (r1+r2)/(r1 r2) * E_{i~Bin(k+l, r1/(r1+r2))} |k - i|;
    variance = k/r1^2 + l/r2^2 + (k/r1 - l/r2)^2 - mean^2.
    Symmetric under swapping (rate1, k) with (rate2, l).
    """
    _check_rates_orders(rate1, rate2, k, l)
    k = int(k)
    l = int(l)
    if (rate1, k) > (rate2, l):
        # canonical argument order makes the symmetry bitwise exact
        rate1, rate2, k, l = rate2, rate1, l, k
    p = rate1 / (rate1 + rate2)
    mean = (rate1 + rate2) / (rate1 * rate2) * binom_abs_expectation(
        BinomialAbsDeviation(n=k + l, p=p, center=k)
    )
    second = k / rate1**2 + l / rate2**2 + (k / rate1 - l / rate2) ** 2
    return ClosedFormMoment(mean=mean, variance=max(second - mean * mean, 0.0))


def expected_wasserstein(rate1: float, rate2: float, n_samples: int) -> float:
    """Expected W1 between N-sample empirical measures of the two processes.

    Equals the average over k <= N of the expected k-th order-statistic gaps.
    """
    if int(n_samples) != n_samples or n_samples < 1:
        raise DomainError("sample count must be an integer >= 1")
    n_samples = int(n_samples)
    terms = [expected_distance(rate1, rate2, k, k).mean for k in range(1, n_samples + 1)]
    return math.fsum(terms) / n_samples


def shifted_expected_distance(
    rate1: float, rate2: float, k: int, l: int, shift: float
) -> ClosedFormMoment:
    """Moments of |x_k + shift - y_l| under a rigid support shift.

    For shift >= 0 the mean is

        (k/r1 - l/r2 + dt) * (1 - 2 P[Pois(r2 dt) <= l-1])
        + 2 sum_{i<k} sum_{j<l} C(i+j, i) pois(l-1-j; r2 dt)
              (k-i) r1^(i-1) r2^(j+1) / (r1+r2)^(i+j+1)
        + 2 dt pois(l-1; r2 dt),

    and a negative shift swaps (rate1, k) with (rate2, l).  At shift = 0 this
    reduces exactly to ``expected_distance``.  For k = l = 1, memorylessness
    gives the gap to the linear asymptote exactly:

        E|x_1 + dt - y_1| = dt + 1/r1 - 1/r2 + 2 r1 / (r2 (r1+r2)) exp(-r2 dt),
                            dt > 0,
        E|x_1 + dt - y_1| = |dt| - 1/r1 + 1/r2 + 2 r2 / (r1 (r1+r2)) exp(-r1 |dt|),
                            dt < 0.
    """
    _check_rates_orders(rate1, rate2, k, l)
    if not np.isfinite(shift):
        raise DomainError("shift must be finite")
    k = int(k)
    l = int(l)
    if shift == 0.0:
        return expected_distance(rate1, rate2, k, l)
    if shift < 0.0:
        rate1, rate2, k, l, shift = rate2, rate1, l, k, -shift

    lam = rate2 * shift
    log_lam = math.log(lam)

    def pois_pmf(j):
        j = np.asarray(j)
        return np.exp(j * log_lam - lam - special.gammaln(j + 1))

    drift = k / rate1 - l / rate2 + shift
    term1 = drift * (1.0 - 2.0 * special.pdtr(l - 1, lam))

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
    term3 = 2.0 * shift * float(pois_pmf(l - 1))

    mean = term1 + term2 + term3
    second = (
        k / rate1**2
        + l / rate2**2
        + (k / rate1 - l / rate2) ** 2
        + shift * shift
        + 2.0 * shift * (k / rate1 - l / rate2)
    )
    return ClosedFormMoment(mean=mean, variance=max(second - mean * mean, 0.0))


def limiting_normalized_distance(rate1: float, rate2: float) -> tuple[float, float]:
    """Large-k limit of E and Var of |x_k - y_k| / k: (|1/r1 - 1/r2|, 0).

    Requires distinct rates; the convergence argument breaks down at r1 = r2,
    so that case is refused rather than silently extrapolated.
    """
    _check_rates_orders(rate1, rate2, 1, 1)
    if rate1 == rate2:
        raise DegenerateLimit("the normalized-gap limit requires distinct rates")
    return abs(1.0 / rate1 - 1.0 / rate2), 0.0


def leading_order_wasserstein(rate1: float, rate2: float, n_samples: int) -> float:
    """Leading-order expected W1 for large N: (N+1)/2 * |1/r1 - 1/r2|."""
    _check_rates_orders(rate1, rate2, 1, 1)
    if int(n_samples) != n_samples or n_samples < 1:
        raise DomainError("sample count must be an integer >= 1")
    return (n_samples + 1) / 2.0 * abs(1.0 / rate1 - 1.0 / rate2)


def expected_distance_time_varying(
    mu: RateFunction,
    nu: RateFunction,
    k: int,
    l: int,
    power: int = 1,
    rel_tol: float = 1e-6,
) -> float:
    """E|x_k - y_l|^power for nonhomogeneous processes, by 2D adaptive quadrature.

    Substituting u = m(x), v = n(y) maps the arrivals to unit-rate Gamma
    variables, so the target is the Gamma(k) x Gamma(l) weighted integral of
    |m^-1(u) - n^-1(v)|^power.  The domain is truncated where the Gamma tails
    drop below GAMMA_TAIL; a rate function whose total intensity ends inside
    that effective mass cannot be inverted far enough and is rejected.
    Reduces to ``expected_distance`` for constant rates and power = 1.
    """
    if int(k) != k or int(l) != l or k < 1 or l < 1:
        raise DomainError("arrival orders must be integers >= 1")
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    # the only user of scipy.integrate: importing it here keeps it out of `import spikeot`
    from scipy import integrate

    k = int(k)
    l = int(l)

    u_hi = float(special.gammainccinv(k, GAMMA_TAIL))
    v_hi = float(special.gammainccinv(l, GAMMA_TAIL))
    for rate_fn, bound, name in ((mu, u_hi, "mu"), (nu, v_hi, "nu")):
        if rate_fn.total_intensity < bound:
            raise IntensityExhausted(
                f"{name} has total intensity {rate_fn.total_intensity!r}, below the "
                f"effective Gamma mass bound {bound!r}"
            )

    def interior_cuts(rate_fn, upper):
        if rate_fn.kind == "constant":
            return []
        cuts = rate_fn.cumulative(np.maximum(rate_fn.breakpoints, 0.0))
        return sorted({float(c) for c in cuts if 0.0 < c < upper})

    u_cuts = interior_cuts(mu, u_hi)
    v_cuts = interior_cuts(nu, v_hi)

    def inner(v: float) -> float:
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
        val, _ = integrate.quad(
            f, 0.0, u_hi, points=sorted(pts) or None, limit=200,
            epsabs=1e-14, epsrel=rel_tol / 10.0,
        )
        return val

    def outer(v):
        return inner(v) * math.exp((l - 1) * math.log(v) - v - special.gammaln(l)) if v > 0 else 0.0

    val, _ = integrate.quad(
        outer, 0.0, v_hi, points=v_cuts or None, limit=200,
        epsabs=1e-14, epsrel=rel_tol,
    )
    return float(val)
