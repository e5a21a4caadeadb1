"""Second routes the benchmark checks the library's outputs against.

Each function here reaches a quantity the library also computes, by a
different algorithm: a high-precision binomial sum, a 1D CDF integral in
place of the library's 2D quadrature, the Victor-Purpura recurrence by rows,
kernel sums by a linear sweep, W1 on an integer mass ladder, a brute-force
Hausdorff scan, and a replay of one fig3 generator cell through the public
per-trial functions.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, special

from spikeot import (
    binned_js_divergence,
    directed_hausdorff,
    make_uniform_empirical,
    w1_general,
)

# Gamma tail mass the library's time-varying quadrature drops on each side;
# the 1D route drops the same mass so both compute the same truncated moment.
GAMMA_TAIL = 1e-10


def binomial_mad(n: int, p, center: int, dps: int = 40) -> mpmath.mpf:
    """E|center - X| for X ~ Bin(n, p), summed at ``dps`` digits.

    ``p`` may be an mpf.  Terms further than 40 standard deviations (plus a
    margin) from the mean are dropped; their total weight is below e^-800.
    """
    with mpmath.workdps(dps):
        p = mpmath.mpf(p)
        q = 1 - p
        mean = n * p
        sd = mpmath.sqrt(n * p * q)
        lo = max(0, int(mpmath.floor(mean - 40 * sd)) - 10)
        hi = min(n, int(mpmath.ceil(mean + 40 * sd)) + 10)
        pmf = mpmath.exp(
            mpmath.loggamma(n + 1) - mpmath.loggamma(lo + 1) - mpmath.loggamma(n - lo + 1)
            + lo * mpmath.log(p) + (n - lo) * mpmath.log(q)
        )
        ratio = p / q
        total = mpmath.mpf(0)
        for i in range(lo, hi + 1):
            total += pmf * abs(center - i)
            pmf = pmf * (n - i) / (i + 1) * ratio
        return +total


def expected_gap_mp(rate1: float, rate2: float, k: int, dps: int = 40) -> mpmath.mpf:
    """E|x_k - y_k| for Erlang(k, rate1) and Erlang(k, rate2), at ``dps`` digits."""
    with mpmath.workdps(dps):
        r1, r2 = mpmath.mpf(rate1), mpmath.mpf(rate2)
        return (r1 + r2) / (r1 * r2) * binomial_mad(2 * k, r1 / (r1 + r2), k, dps)


def _quad(f, lo, hi, points):
    inner = sorted({p for p in points if lo < p < hi})
    val, _ = integrate.quad(f, lo, hi, points=inner or None, limit=500,
                            epsabs=0.0, epsrel=1e-12)
    return val


def time_varying_moment(mu, nu, k: int, l: int, power: int) -> float:
    """E[|x_k - y_l|^power] by 1D integrals over the arrival CDFs.

    The k-th arrival X has P(X <= t) = P(Gamma(k) <= m(t)), the regularized
    lower incomplete gamma of the cumulative intensity.  For independent X
    and Y, E|X - Y| = integral of F(1 - G) + G(1 - F), and
    E(X - Y)^2 = EX^2 + EY^2 - 2 EX EY.  Like the library, only the event
    {Gamma(k) <= u_hi} with tail mass GAMMA_TAIL beyond u_hi is kept.
    """
    u_hi = float(special.gammainccinv(k, GAMMA_TAIL))
    v_hi = float(special.gammainccinv(l, GAMMA_TAIL))
    tx = float(mu.inverse_cumulative(u_hi))
    ty = float(nu.inverse_cumulative(v_hi))
    fa = float(special.gammainc(k, u_hi))
    gb = float(special.gammainc(l, v_hi))

    def cdf_x(t):
        return float(special.gammainc(k, min(mu.cumulative(t), u_hi)))

    def cdf_y(t):
        return float(special.gammainc(l, min(nu.cumulative(t), v_hi)))

    points = [tx, ty] + [
        float(b) for f in (mu, nu) if f.kind != "constant" for b in f.breakpoints
    ]
    if power == 1:
        return _quad(
            lambda t: cdf_x(t) * (gb - cdf_y(t)) + cdf_y(t) * (fa - cdf_x(t)),
            0.0, max(tx, ty), points,
        )
    ex = _quad(lambda t: fa - cdf_x(t), 0.0, tx, points)
    ey = _quad(lambda t: gb - cdf_y(t), 0.0, ty, points)
    ex2 = _quad(lambda t: 2.0 * t * (fa - cdf_x(t)), 0.0, tx, points)
    ey2 = _quad(lambda t: 2.0 * t * (gb - cdf_y(t)), 0.0, ty, points)
    return ex2 * gb + ey2 * fa - 2.0 * ex * ey


def shifted_gap_mean(rate1: float, rate2: float, k: int, l: int, shift: float) -> float:
    """E|x_k + shift - y_l| for Erlang arrivals, by the 1D CDF integral."""

    def cdf_x(t):
        return float(special.gammainc(k, rate1 * (t - shift))) if t > shift else 0.0

    def cdf_y(t):
        return float(special.gammainc(l, rate2 * t)) if t > 0.0 else 0.0

    lo = min(shift, 0.0)
    hi = max(shift + float(special.gammainccinv(k, 1e-17)) / rate1,
             float(special.gammainccinv(l, 1e-17)) / rate2)
    return _quad(lambda t: cdf_x(t) * (1.0 - cdf_y(t)) + cdf_y(t) * (1.0 - cdf_x(t)),
                 lo, hi, [shift, 0.0])


def victor_purpura_rows(x: np.ndarray, y: np.ndarray, q: float) -> float:
    """Victor-Purpura distance with each DP row as one cumulative minimum.

    cur[j] = min(base[j], cur[j-1] + 1) unrolls to
    min over j' <= j of base[j'] + (j - j'), with
    base[j] = min(prev[j] + 1, prev[j-1] + q |x_i - y_j|).
    """
    n, m = x.size, y.size
    if n == 0 or m == 0:
        return float(n + m)
    j = np.arange(m + 1, dtype=float)
    prev = j.copy()
    base = np.empty(m + 1)
    for i in range(1, n + 1):
        base[0] = i
        np.minimum(prev[1:] + 1.0, prev[:-1] + q * np.abs(x[i - 1] - y), out=base[1:])
        prev = np.minimum.accumulate(base - j) + j
    return float(prev[m])


def exp_kernel_sum(a: np.ndarray, b: np.ndarray, tau: float) -> float:
    """Sum over all pairs of exp(-|a_i - b_j| / tau), for sorted a and b.

    One sweep up and one down the merged order, each carrying the kernel mass
    of the b points already passed, decayed by the gap to the next point:
    O(n + m) steps instead of the n * m Gram matrix.
    """
    total = 0.0
    for sign in (1.0, -1.0):
        # Upward sweep counts b_j <= a_i, downward counts b_j > a_i: at a
        # tie, b comes first going up and last going down.
        events = sorted([(sign * v, 0 if sign > 0 else 1) for v in b]
                        + [(sign * v, 1 if sign > 0 else 0) for v in a])
        mass, prev = 0.0, None
        for t, kind in events:
            if prev is not None:
                mass *= math.exp(-(t - prev) / tau)
            prev = t
            if (kind == 0) == (sign > 0):
                mass += 1.0
            else:
                total += mass
    return total


def kfs_reference(x: np.ndarray, y: np.ndarray, tau: float) -> float:
    """Kernel feature-space distance from three O(n + m) kernel sums."""
    radicand = exp_kernel_sum(x, x, tau) - 2.0 * exp_kernel_sum(x, y, tau) + exp_kernel_sum(
        y, y, tau)
    return math.sqrt(max(radicand, 0.0))


def sliced_w1_reference(a: np.ndarray, b: np.ndarray, directions: np.ndarray) -> float:
    """Mean over directions of the exact W1 between uniform projected clouds.

    The mass ladders i/n and j/m are put on the integer grid of their least
    common multiple, so tied breakpoints merge exactly and every band width
    is an exact ratio.
    """
    n, m = len(a), len(b)
    lcm = n * m // math.gcd(n, m)
    cuts = np.union1d(np.arange(1, n + 1) * (lcm // n), np.arange(1, m + 1) * (lcm // m))
    lo = np.concatenate(([0], cuts[:-1]))
    i = lo // (lcm // n)
    j = lo // (lcm // m)
    dirs = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    proj_a = np.sort(a @ dirs.T, axis=0)
    proj_b = np.sort(b @ dirs.T, axis=0)
    widths = (cuts - lo) / lcm
    return float(np.mean(widths @ np.abs(proj_a[i] - proj_b[j])))


def hausdorff_brute(x: np.ndarray, y: np.ndarray, block: int = 256) -> float:
    """Directed Hausdorff distance by scanning every pair, a block of x at a time."""
    worst = 0.0
    for start in range(0, x.size, block):
        chunk = x[start:start + block, None]
        worst = max(worst, float(np.abs(chunk - y[None, :]).min(axis=1).max()))
    return worst


def replay_fig3_cell(rate_ratio, shift, trials, seed, base_rate, bins, order_stat, call):
    """Recompute one fig3 cell's four means through the public per-trial functions.

    Follows the generator and substream layout ``run_fig3_experiment`` uses
    for cell index 0 of ``seed``.  ``call(name, fn, *args)`` invokes each
    library function, so a tracer can record it.  Returns
    (mean_w1, mean_hausdorff, mean_js_total, mean_order_gap, used_trials).
    """
    r = float(rate_ratio)
    knee = 1.0 / (r + 1.0)
    mass1 = r * base_rate * knee
    mass2 = (base_rate / r) * (1.0 - knee)
    gen = seed.generator
    counts_x = call("poisson.SpikeSeed.generator", gen, 0, 0).poisson(base_rate, size=trials)
    unis_x = call("poisson.SpikeSeed.generator", gen, 0, 1).random(int(counts_x.sum()))
    counts_y = call("poisson.SpikeSeed.generator", gen, 0, 2).poisson(
        lam=np.broadcast_to([mass1, mass2], (trials, 2))
    )
    unis_y = call("poisson.SpikeSeed.generator", gen, 0, 3).random(int(counts_y.sum()))
    x_off = np.concatenate(([0], np.cumsum(counts_x)))
    y_off = np.concatenate(([0], np.cumsum(counts_y.sum(axis=1))))

    w1s, hausdorffs, js_totals, order_gaps = [], [], [], []
    for t in range(trials):
        xs = np.sort(unis_x[x_off[t]:x_off[t + 1]])
        raw = unis_y[y_off[t]:y_off[t + 1]]
        n1 = counts_y[t, 0]
        ys = np.sort(np.concatenate((raw[:n1] * knee, knee + raw[n1:] * (1.0 - knee)))) + shift
        if xs.size == 0 or ys.size == 0:
            continue
        mx = call("measures.make_uniform_empirical", make_uniform_empirical, xs)
        my = call("measures.make_uniform_empirical", make_uniform_empirical, ys)
        sx, sy = mx.samples, my.samples
        w1s.append(call("transport.w1_general", w1_general, mx, my))
        hausdorffs.append(max(
            call("dissimilarity.directed_hausdorff", directed_hausdorff, sx, sy),
            call("dissimilarity.directed_hausdorff", directed_hausdorff, sy, sx),
        ))
        js_totals.append(
            call("dissimilarity.binned_js_divergence", binned_js_divergence, sx, sy, bins)[0]
        )
        if xs.size >= order_stat and ys.size >= order_stat:
            order_gaps.append(abs(xs[order_stat - 1] - ys[order_stat - 1]))

    def mean(values):
        return float(np.mean(values)) if values else math.nan

    return mean(w1s), mean(hausdorffs), mean(js_totals), mean(order_gaps), len(w1s)
