"""Closed-form moments of order-statistic gaps between two Poisson processes.

The k-th arrival of a homogeneous process with rate r is Erlang(k, r).  For
two independent processes the expected absolute gap between the k-th and l-th
arrivals reduces to a binomial mean absolute deviation (MAD):

    E|x_k - y_l| = (r1 + r2) / (r1 r2) * E_{i ~ Bin(k+l, p)} |k - i|,
    p = r1 / (r1 + r2),

which de Moivre's form (Diaconis & Zabell 1991) gives in O(1) for any k, l.
The second moment is elementary, giving the variance.  A rigid support shift
dt adds Poisson-weighted negative-binomial terms that decay like
exp(-r2 * dt) for dt > 0; for dt < 0 the processes swap roles and the terms
decay like exp(-r1 * |dt|).  For time-varying rates the k-th arrival has CDF
gammainc(k, m(t)), and the moments are 1D integrals over these CDFs
(Szekely & Rizzo, Energy statistics, 2013), by adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLimit, DomainError, IntensityExhausted
from .poisson import RateFunction

__all__ = [
    "ClosedFormMoment",
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


def _stirlerr(n):
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for n >= 1 (Loader 2000)."""
    from scipy import special

    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    # below 16 the series' first omitted term exceeds 1e-16
    direct = special.gammaln(n + 1.0) - (n + 0.5) * np.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    return np.where(n < 16.0, direct, series)


def _bd0(x, m):
    """x log(x/m) + m - x, without cancellation near x = m (Loader 2000)."""
    d = x - m
    v = d / (x + m)
    near, term, v2 = d * v, 2.0 * x * v, v * v
    for j in range(3, 27, 2):  # used where |v| < 0.1: each term 100x below the last
        term = term * v2
        near = near + term / j
    return np.where(np.abs(v) < 0.1, near, x * np.log(x / m) - d)


def _binom_mad(c, n, p, q, excess=False):
    """E|X - c| for X ~ Bin(n, p), elementwise, integers 0 < c < n, q = 1 - p.

    de Moivre: (c - np)(2 P[X < c] - 1) + 2 c q b(c; n, p), with P[X < c] =
    I_q(n - c + 1, c) and Loader's saddle-point pmf b: about 1e-14 relative at
    n = 2e6, where ``bdtr`` and a log-gamma pmf lose up to 1e-9.  ``excess``:
    E|X - c| - |c - np| = 2cq b - 2|c - np| T, T the tail beyond c away from np.
    """
    from scipy import special

    c, rest = np.asarray(c, dtype=float), np.asarray(n - c, dtype=float)
    n = c + rest
    log_pmf = _stirlerr(n) - _stirlerr(c) - _stirlerr(rest) - _bd0(c, n * p) - _bd0(rest, n * q)
    pmf = np.exp(log_pmf) / np.sqrt(2.0 * math.pi * c * rest / n)
    d = c - n * p
    if excess:
        tail = np.where(d > 0, special.betainc(c, rest + 1.0, p), special.betainc(rest + 1.0, c, q))
        return 2.0 * c * q * pmf - 2.0 * np.abs(d) * tail
    return d * (2.0 * special.betainc(rest + 1.0, c, q) - 1.0) + 2.0 * c * q * pmf


def _gap_mean(rate1, rate2, k, l, excess=False):
    """E|x_k - y_l| (``excess``: minus |E(x_k - y_l)|) elementwise, each element in the
    order (rate1, k) <= (rate2, l), so that swapping the processes is bitwise the same."""
    rate1, rate2, k, l = np.broadcast_arrays(rate1, rate2, k, l)
    swap = (rate1 > rate2) | ((rate1 == rate2) & (k > l))
    r1, r2 = np.where(swap, rate2, rate1), np.where(swap, rate1, rate2)
    k, l = np.where(swap, l, k), np.where(swap, k, l)
    s = r1 + r2
    return s / (r1 * r2) * _binom_mad(k, k + l, r1 / s, r2 / s, excess)


def _gap_moments(rate1, rate2, k, l):
    """Mean and variance of |x_k - y_l| elementwise; see ``expected_distance``."""
    e = _gap_mean(rate1, rate2, k, l, excess=True)
    variance = k / rate1**2 + l / rate2**2 - e * (2.0 * np.abs(k / rate1 - l / rate2) + e)
    return _gap_mean(rate1, rate2, k, l), np.maximum(variance, 0.0)


def _check_rates_orders(rate1, rate2, k, l):
    for r in (rate1, rate2):
        if not (r > 0.0) or not np.isfinite(r):
            raise DomainError("rates must be positive and finite")
    for order in (k, l):
        if int(order) != order or not 1 <= order <= 2**53:
            raise DomainError("arrival orders must be integers from 1 to 2^53, exact as floats")


def expected_distance(rate1: float, rate2: float, k: int, l: int) -> ClosedFormMoment:
    """Moments of |x_k - y_l| for independent Erlang arrivals with the given rates.

    mean = (r1+r2)/(r1 r2) * E_{i~Bin(k+l, r1/(r1+r2))} |k - i|;
    variance = k/r1^2 + l/r2^2 - e (2|mu| + e), mu = k/r1 - l/r2, with the excess
    e = mean - |mu| in its own closed form, so nothing cancels when |mu| >> std.
    Symmetric under swapping (rate1, k) with (rate2, l).
    """
    _check_rates_orders(rate1, rate2, k, l)
    mean, variance = _gap_moments(float(rate1), float(rate2), int(k), int(l))
    return ClosedFormMoment(mean=float(mean), variance=float(variance))


def expected_wasserstein(rate1: float, rate2: float, n_samples: int) -> float:
    """Expected W1 between N-sample empirical measures of the two processes.

    Equals the average over k <= N of the expected k-th order-statistic gaps.
    """
    if int(n_samples) != n_samples or n_samples < 1:
        raise DomainError("sample count must be an integer >= 1")
    _check_rates_orders(rate1, rate2, 1, 1)
    k = np.arange(1, int(n_samples) + 1)
    return math.fsum(_gap_mean(float(rate1), float(rate2), k, k)) / int(n_samples)


def shifted_expected_distance(
    rate1: float, rate2: float, k: int, l: int, shift: float
) -> ClosedFormMoment:
    """Moments of |x_k + shift - y_l| under a rigid support shift.

    As in ``expected_distance``, the mean is |mu| + e and the variance
    k/r1^2 + l/r2^2 - e (2|mu| + e), mu = k/r1 - l/r2 + dt, with the excess
    e = mean - |mu| summed from tails, so nothing cancels when |mu| >> std.
    For dt > 0, with p = r1/(r1+r2), q = 1 - p, lam = r2 dt and F_j the
    failures before the (j+1)-th success at odds q (P[F_j < i] = I_q(j+1, i)),

        e = 2/r1 sum_{j<l} pois(l-1-j; lam) E(F_j - k)^+,            mu >= 0,
        e = 2/r1 sum_{j<l} pois(l-1-j; lam) E(k - F_j)^+
            + 2 dt pois(l-1; lam) - 2|mu| P[Pois(lam) >= l],          mu < 0,

    E(F_j - k)^+ = (j+1)(p/q) I_p(k-1, j+2) - k I_p(k, j+1) and
    E(k - F_j)^+ = k I_q(j+1, k) - (j+1)(p/q) I_q(j+2, k-1).  The sums skip
    the j whose Poisson weight is below e^-800 (l-1-j beyond lam +-
    (40 sqrt(lam) + 10)).  A negative shift swaps (rate1, k) with (rate2, l).
    At shift = 0 this reduces exactly to ``expected_distance``.  For k = l = 1,
    memorylessness gives the gap to the linear asymptote exactly:

        E|x_1 + dt - y_1| = dt + 1/r1 - 1/r2 + 2 r1 / (r2 (r1+r2)) exp(-r2 dt),
                            dt > 0,
        E|x_1 + dt - y_1| = |dt| - 1/r1 + 1/r2 + 2 r2 / (r1 (r1+r2)) exp(-r1 |dt|),
                            dt < 0.
    """
    _check_rates_orders(rate1, rate2, k, l)
    if not np.isfinite(shift):
        raise DomainError("shift must be finite")
    k, l = int(k), int(l)
    if shift == 0.0:
        return expected_distance(rate1, rate2, k, l)
    from scipy import special

    if shift < 0.0:
        rate1, rate2, k, l, shift = rate2, rate1, l, k, -shift

    lam, mu = rate2 * shift, k / rate1 - l / rate2 + shift

    def pois_pmf(m):
        return np.exp(special.xlogy(m, lam) - lam - special.gammaln(m + 1.0))

    reach = 40.0 * math.sqrt(lam) + 10.0
    lo, hi = max(0, math.ceil(lam - reach)), min(l - 1, math.floor(lam + reach))
    if hi - lo >= 10**7:
        raise DomainError(f"shift {shift!r} needs {hi - lo + 1} Poisson terms, over 10^7")
    j = l - 1 - np.arange(lo, hi + 1)
    p, q = rate1 / (rate1 + rate2), rate2 / (rate1 + rate2)
    mean_f = (j + 1) * (p / q)
    if mu >= 0.0:
        tails = mean_f * special.betainc(k - 1.0, j + 2.0, p) - k * special.betainc(k, j + 1.0, p)
        e = 0.0
    else:
        tails = k * special.betainc(j + 1.0, k, q) - mean_f * special.betainc(j + 2.0, k - 1.0, q)
        e = 2.0 * shift * float(pois_pmf(l - 1)) - 2.0 * abs(mu) * float(special.pdtrc(l - 1, lam))
    e += 2.0 * math.fsum(pois_pmf(l - 1 - j) * tails) / rate1
    variance = k / rate1**2 + l / rate2**2 - e * (2.0 * abs(mu) + e)
    return ClosedFormMoment(mean=abs(mu) + e, variance=max(variance, 0.0))


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
    """E|x_k - y_l|^power for nonhomogeneous processes, by 1D adaptive quadrature.

    The k-th arrival X has CDF F(t) = P(Gamma(k) <= m(t)) = gammainc(k, m(t)).
    For independent X and Y, E|X - Y| = integral of F(1 - G) + G(1 - F) dt and
    E(X - Y)^2 = EX^2 + EY^2 - 2 EX EY.  Gamma(k) is cut off where its tail
    drops below GAMMA_TAIL; a rate function whose total intensity ends inside
    that mass is rejected.  The integrals break at the rate breakpoints and
    both cutoffs; the result is within ``rel_tol`` relative.  Reduces to
    ``expected_distance`` for constant rates and power = 1.
    """
    if int(k) != k or int(l) != l or k < 1 or l < 1:
        raise DomainError("arrival orders must be integers >= 1")
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    # imported per call, not at `import spikeot`; the integrands bind these local names
    from scipy import integrate, special

    k, l = int(k), int(l)
    u_hi, v_hi = (float(special.gammainccinv(n, GAMMA_TAIL)) for n in (k, l))
    for rate_fn, bound, name in ((mu, u_hi, "mu"), (nu, v_hi, "nu")):
        if rate_fn.total_intensity < bound:
            raise IntensityExhausted(
                f"{name} has total intensity {rate_fn.total_intensity!r}, below the "
                f"effective Gamma mass bound {bound!r}"
            )
    tx, ty = float(mu.inverse_cumulative(u_hi)), float(nu.inverse_cumulative(v_hi))
    fa, gb = float(special.gammainc(k, u_hi)), float(special.gammainc(l, v_hi))
    cuts = {tx, ty}.union(*(f.breakpoints.tolist() for f in (mu, nu) if f.kind != "constant"))

    def cdf(rate_fn, n, u):
        return lambda t: float(special.gammainc(n, min(rate_fn.cumulative(t), u)))

    def quad(f, hi, tol):
        inner = sorted(c for c in cuts if 0.0 < c < hi)
        return integrate.quad(f, 0.0, hi, points=inner or None, limit=200,
                              epsabs=1e-14, epsrel=tol)[0]

    cdf_x, cdf_y = cdf(mu, k, u_hi), cdf(nu, l, v_hi)
    tol = rel_tol / 10.0
    if power == 1:
        def gap_density(t):
            a, b = cdf_x(t), cdf_y(t)
            return a * (gb - b) + b * (fa - a)
        return float(quad(gap_density, max(tx, ty), tol))
    while True:
        ex = quad(lambda t: fa - cdf_x(t), tx, tol)
        ey = quad(lambda t: gb - cdf_y(t), ty, tol)
        ex2 = quad(lambda t: 2.0 * t * (fa - cdf_x(t)), tx, tol)
        ey2 = quad(lambda t: 2.0 * t * (gb - cdf_y(t)), ty, tol)
        bulk = ex2 * gb + ey2 * fa
        value = bulk - 2.0 * ex * ey
        # the terms cancel by the factor bulk / value: tighten their tolerance
        # until their joint error is within rel_tol of the value
        if 2.0 * tol * bulk <= rel_tol * value or tol <= 1e-13:
            return float(value)
        tol = max(rel_tol * value / (4.0 * bulk), 1e-13)
