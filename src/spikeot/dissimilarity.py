"""Spike-train comparison measures: Hausdorff, binned JS, Victor-Purpura,
kernel feature-space, spike-count, and composite multi-channel Wasserstein."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, DomainError, EmptyTrain, NumericalError
from .measures import SortedSamples, make_uniform_empirical
from .transport import w1_general

__all__ = [
    "BinnedPMF",
    "MultiChannelTrain",
    "directed_hausdorff",
    "binned_js_divergence",
    "victor_purpura",
    "kfs_distance",
    "spike_count_distance",
    "composite_wasserstein",
]


@dataclass(frozen=True)
class BinnedPMF:
    """Probability masses of a train over shared bin edges.

    ``masses`` sums to 1 for a nonempty train and is all-zero (flagged by
    ``empty``) otherwise.
    """

    edges: np.ndarray
    masses: np.ndarray
    empty: bool

    @classmethod
    def from_samples(cls, train: SortedSamples, edges) -> "BinnedPMF":
        edges = np.asarray(edges, dtype=float)
        if edges.size < 2 or np.any(np.diff(edges) < 0.0):
            raise DomainError("bin edges must be nondecreasing with >= 1 bin")
        if len(train) == 0:
            return cls(edges=edges, masses=np.zeros(edges.size - 1), empty=True)
        counts, _ = np.histogram(train.values, bins=edges)
        return cls(edges=edges, masses=counts / len(train), empty=False)


@dataclass(frozen=True)
class MultiChannelTrain:
    """A fixed-length tuple of per-channel spike trains (lengths may differ)."""

    channels: tuple[SortedSamples, ...]

    def __post_init__(self):
        if len(self.channels) < 1:
            raise ChannelMismatch("a multi-channel train needs at least one channel")

    def __len__(self) -> int:
        return len(self.channels)

    def counts(self) -> np.ndarray:
        return np.array([len(c) for c in self.channels], dtype=float)


def directed_hausdorff(x: SortedSamples, y: SortedSamples) -> float:
    """sup over x-events of the distance to the nearest y-event (asymmetric)."""
    if len(x) == 0 or len(y) == 0:
        raise EmptyTrain("directed Hausdorff needs nonempty trains")
    yv = y.values
    idx = np.searchsorted(yv, x.values)
    left = np.abs(x.values - yv[np.clip(idx - 1, 0, yv.size - 1)])
    right = np.abs(x.values - yv[np.clip(idx, 0, yv.size - 1)])
    return float(np.max(np.minimum(left, right)))


def _hausdorff_rows(z: np.ndarray, from_y: np.ndarray) -> np.ndarray:
    """Row-wise max of both ``directed_hausdorff`` directions, from ``_merge_rows`` output.

    An event's nearest other-train events are the ones just outside its run
    of same-train events; the distance is the largest such gap of any event.
    """
    switch = from_y[:, 1:] != from_y[:, :-1]
    nearest = np.full_like(z, np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf at the pads, masked below
        nearest[:, 1:] = z[:, 1:] - np.maximum.accumulate(
            np.where(switch, z[:, :-1], -np.inf), axis=1)
        after = np.minimum.accumulate(np.where(switch, z[:, 1:], np.inf)[:, ::-1], axis=1)
        np.minimum(nearest[:, :-1], after[:, ::-1] - z[:, :-1], out=nearest[:, :-1])
    return np.where(np.isfinite(z), nearest, 0.0).max(axis=1)


def binned_js_divergence(
    x: SortedSamples, y: SortedSamples, bins: int
) -> tuple[float, np.ndarray]:
    """Jensen-Shannon divergence between bin PMFs over the combined range.

    Bins are equal-width over [min(x, y), max(x, y)], natural logarithm, so
    the total saturates at ln 2 for disjoint supports.  Returns
    (total, per-bin contributions); a degenerate (single-point) range falls
    back to one bin with zero divergence.
    """
    if len(x) == 0 or len(y) == 0:
        raise EmptyTrain("binned JS divergence needs nonempty trains")
    if int(bins) != bins or bins < 1:
        raise DomainError("bin count must be an integer >= 1")
    lo = min(x.values[0], y.values[0])
    hi = max(x.values[-1], y.values[-1])
    if hi == lo:
        return 0.0, np.zeros(1)
    edges = np.linspace(lo, hi, int(bins) + 1)
    per_bin = _js_terms(BinnedPMF.from_samples(x, edges).masses,
                        BinnedPMF.from_samples(y, edges).masses)
    return float(per_bin.sum()), per_bin


def _js_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-bin Jensen-Shannon contributions of bin masses p and q (last axis)."""
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * (
            np.where(p > 0.0, p * np.log(np.where(p > 0.0, p / m, 1.0)), 0.0)
            + np.where(q > 0.0, q * np.log(np.where(q > 0.0, q / m, 1.0)), 0.0)
        )


def _js_rows(x: np.ndarray, y: np.ndarray, nx: np.ndarray, ny: np.ndarray, bins: int) -> np.ndarray:
    """Row-wise ``binned_js_divergence`` totals of sorted rows padded with +inf.

    Merged behind a row's interior edges at ties, value i lands at position
    i + b, where b = #(edges <= value i) is the ``np.histogram`` bin counting it.
    """
    rows = np.arange(nx.size)
    lo = np.minimum(x[:, 0], y[:, 0])
    hi = np.maximum(x[rows, nx - 1], y[rows, ny - 1])
    live = hi != lo
    inner = np.linspace(lo[live], hi[live], bins + 1, axis=1)[:, 1:-1]
    masses = []
    for v, n in ((x[live], nx[live, None]), (y[live], ny[live, None])):
        order = np.argsort(np.concatenate((inner, v), axis=1), axis=1, kind="stable")
        cols = np.arange(v.shape[1])
        at = np.nonzero(order >= bins - 1)[1].reshape(v.shape) - cols + bins * rows[:len(v), None]
        masses.append(np.bincount(at[cols < n], minlength=len(v) * bins).reshape(-1, bins) / n)
    p, q = masses
    hit = (p > 0.0) | (q > 0.0)  # only these bins contribute
    per_bin = np.zeros_like(p)
    per_bin[hit] = _js_terms(p[hit], q[hit])
    totals = np.zeros(nx.size)
    totals[live] = per_bin.sum(axis=1)
    return totals


def victor_purpura(x: SortedSamples, y: SortedSamples, q: float) -> float:
    """Victor-Purpura spike-train edit distance with time-shift cost q.

    Insertions and deletions cost 1; moving a spike by dt costs q * |dt|.
    Empty trains are legal: the distance is then the other train's length.
    At q = 0 the distance collapses to the spike-count difference.
    """
    q = float(q)
    if q < 0.0 or not np.isfinite(q):
        raise DomainError("time-shift cost q must be finite and >= 0")
    xs = x.values
    ys = y.values
    n, m = xs.size, ys.size
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


def kfs_distance(x: SortedSamples, y: SortedSamples, tau: float) -> float:
    """Kernel feature-space distance with the exponential spike-train kernel.

    k(X, Y) = sum_ij exp(-|x_i - y_j| / tau); the distance is the norm
    sqrt(k(x,x) - 2 k(x,y) + k(y,y)) in the induced feature space.  The
    kernel is positive semidefinite, so a radicand below -1e-9 signals a bug.
    """
    tau = float(tau)
    if not (tau > 0.0) or not np.isfinite(tau):
        raise DomainError("bandwidth tau must be positive and finite")
    if len(x) == 0 or len(y) == 0:
        raise EmptyTrain("kernel feature-space distance needs nonempty trains")

    def gram_sum(a, b):
        return float(np.exp(-np.abs(a[:, None] - b[None, :]) / tau).sum())

    radicand = gram_sum(x.values, x.values) - 2.0 * gram_sum(x.values, y.values) + gram_sum(
        y.values, y.values
    )
    if radicand < -1e-9:
        raise NumericalError(f"kernel distance radicand {radicand!r} below -1e-9")
    return math.sqrt(max(radicand, 0.0))


def spike_count_distance(a: MultiChannelTrain, b: MultiChannelTrain) -> float:
    """Euclidean norm of the per-channel spike-count differences."""
    if len(a) != len(b):
        raise ChannelMismatch(f"channel counts differ: {len(a)} vs {len(b)}")
    return float(np.linalg.norm(a.counts() - b.counts()))


def composite_wasserstein(a: MultiChannelTrain, b: MultiChannelTrain) -> float:
    """Root-sum-square of per-channel W1 distances between empirical measures."""
    if len(a) != len(b):
        raise ChannelMismatch(f"channel counts differ: {len(a)} vs {len(b)}")
    if any(len(c) == 0 for c in a.channels + b.channels):
        raise EmptyTrain("composite Wasserstein needs nonempty channels")
    per_channel = [
        w1_general(make_uniform_empirical(ca.values), make_uniform_empirical(cb.values))
        for ca, cb in zip(a.channels, b.channels)
    ]
    return math.sqrt(math.fsum(w * w for w in per_channel))
