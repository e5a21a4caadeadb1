"""Exact 1D 1-Wasserstein distances and transport plans between empirical measures.

Everything here reduces to one primitive: merging the cumulative-mass
breakpoints of the two measures.  Each merged segment (a quantile band on
which both generalized-inverse CDFs are constant) is simultaneously an entry
of the Northwest-Corner transport plan and a rectangle of the quantile
integral, so the plan cost and the integral are term-for-term identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeMismatch
from .measures import EmpiricalMeasure, SortedSamples

__all__ = [
    "TransportPlan",
    "w1_equal_size",
    "northwest_corner_plan",
    "w1_general",
    "partial_transport_cost",
    "w1_uniform_uniform",
]


@dataclass(frozen=True)
class TransportPlan:
    """A sparse monotone coupling between two sets of sorted atoms.

    Entries are ordered lexicographically by (source, target); row sums equal
    the source masses and column sums the target masses.
    """

    source_index: np.ndarray
    target_index: np.ndarray
    mass: np.ndarray

    def __len__(self) -> int:
        return self.mass.size

    def entries(self) -> list[tuple[int, int, float]]:
        """The plan as (source index, target index, mass) triples."""
        return [
            (int(i), int(j), float(g))
            for i, j, g in zip(self.source_index, self.target_index, self.mass)
        ]

    def cost(self, a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
        """Transport cost of this plan under the |x - y| ground metric."""
        gaps = np.abs(a.values[self.source_index] - b.values[self.target_index])
        return math.fsum(self.mass * gaps)


def _merged_bands(a: EmpiricalMeasure, b: EmpiricalMeasure, extra=()):
    """Split (0, 1] at every cumulative-mass breakpoint of both measures.

    Returns (i, j, lo, hi) arrays: on each band (lo, hi] the source quantile
    function equals atom i of ``a`` and the target quantile function equals
    atom j of ``b``.  Exact ties between breakpoints collapse, so matching
    mass ladders never produce zero-width bands.
    """
    cuts = np.union1d(a.cumulative_masses, b.cumulative_masses)
    if len(extra):
        inner = np.asarray(extra, dtype=float)
        cuts = np.union1d(cuts, inner[(inner > 0.0) & (inner < 1.0)])
    lo = np.concatenate(([0.0], cuts[:-1]))
    i = np.searchsorted(a.cumulative_masses, lo, side="right")
    j = np.searchsorted(b.cumulative_masses, lo, side="right")
    return i, j, lo, cuts


def w1_equal_size(x: SortedSamples, y: SortedSamples) -> float:
    """Average gap between order statistics: (1/N) * sum_k |x_k - y_k|.

    This is the exact W1 between the two uniform empirical measures when the
    sample counts agree.
    """
    if len(x) != len(y):
        raise SizeMismatch(f"equal-size W1 needs |x| == |y|, got {len(x)} and {len(y)}")
    if len(x) == 0:
        raise SizeMismatch("equal-size W1 needs at least one sample per side")
    return math.fsum(np.abs(x.values - y.values)) / len(x)


def northwest_corner_plan(a: EmpiricalMeasure, b: EmpiricalMeasure) -> TransportPlan:
    """Greedy monotone plan walking both mass ladders simultaneously.

    For sorted 1D atoms this plan is optimal for W1.
    """
    i, j, lo, hi = _merged_bands(a, b)
    return TransportPlan(
        source_index=i.astype(np.intp),
        target_index=j.astype(np.intp),
        mass=hi - lo,
    )


def w1_general(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W1 via the quantile-function integral over merged mass breakpoints."""
    i, j, lo, hi = _merged_bands(a, b)
    return math.fsum((hi - lo) * np.abs(a.values[i] - b.values[j]))


def _w1_rows(z: np.ndarray, from_y: np.ndarray, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """Row-wise ``w1_general`` of uniform measures (to rounding), from ``_merge_rows``.

    Integrates the int64 ladder nx*ny*(F - G) over the merged gaps; the +inf
    pads are clamped to the row's last value, so they span nothing.
    """
    last = np.take_along_axis(z, (nx + ny - 1)[:, None], axis=1)
    ladder = np.cumsum(np.where(from_y, -nx[:, None], ny[:, None]), axis=1)[:, :-1]
    return (np.abs(ladder) * np.diff(np.minimum(z, last), axis=1)).sum(axis=1) / (nx * ny)


def partial_transport_cost(
    a: EmpiricalMeasure, b: EmpiricalMeasure, u_lo: float, u_hi: float
) -> float:
    """Quantile-band transport cost: integral of |P^-1(u) - Q^-1(u)| over (u_lo, u_hi].

    Bands partitioning (0, 1] sum exactly to ``w1_general``.
    """
    u_lo = float(u_lo)
    u_hi = float(u_hi)
    if not (0.0 <= u_lo < u_hi <= 1.0):
        raise DomainError(f"quantile band must satisfy 0 <= lo < hi <= 1, got ({u_lo}, {u_hi})")
    i, j, lo, hi = _merged_bands(a, b, extra=(u_lo, u_hi))
    keep = (lo >= u_lo) & (hi <= u_hi)
    gaps = np.abs(a.values[i[keep]] - b.values[j[keep]])
    return math.fsum((hi[keep] - lo[keep]) * gaps)


def w1_uniform_uniform(rate1: float, rate2: float) -> float:
    """W1 between U[0, 1/rate1] and U[0, 1/rate2]: half the inverse-rate gap."""
    rate1 = float(rate1)
    rate2 = float(rate2)
    if not (rate1 > 0.0 and rate2 > 0.0) or not (np.isfinite(rate1) and np.isfinite(rate2)):
        raise DomainError("rates must be positive and finite")
    return 0.5 * abs(1.0 / rate1 - 1.0 / rate2)
