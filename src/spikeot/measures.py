"""Sorted event-time sequences and the empirical measures built on them.

An empirical measure is a finite discrete probability distribution whose
atoms are the (sorted) sample values.  Its CDF and generalized-inverse CDF
(quantile function) are the primitives every 1D transport computation in
this package reduces to.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InvalidMeasure, InvalidSample

__all__ = ["SortedSamples", "EmpiricalMeasure", "make_uniform_empirical"]

MASS_TOL = 1e-12


class SortedSamples:
    """A nondecreasing, finite sequence of real event times.

    Input order is irrelevant: values are sorted on construction.  Duplicate
    values are kept as distinct atoms.  Empty sequences are legal here (some
    spike-train dissimilarities are defined for them); measure construction
    rejects them separately.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.size and not np.all(np.isfinite(arr)):
            raise InvalidSample("sample values must be finite")
        arr = np.sort(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError(f"SortedSamples is immutable, cannot set {name!r}")

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __repr__(self) -> str:
        return f"SortedSamples(n={self.values.size})"

    def shift(self, offset: float) -> "SortedSamples":
        """Return a copy with every event time translated by ``offset``."""
        if not np.isfinite(offset):
            raise DomainError("shift offset must be finite")
        return SortedSamples(self.values + offset)


class EmpiricalMeasure:
    """A discrete probability measure on sorted atoms.

    Masses must be positive and sum to 1 within ``MASS_TOL`` (the sum is then
    renormalized exactly).  The cumulative-mass array is precomputed with its
    final entry pinned to exactly 1.0 so that quantile lookups at u = 1 are
    safe.
    """

    __slots__ = ("samples", "masses", "_cum")

    def __init__(self, values, masses: Sequence[float] | None = None):
        raw = np.asarray(
            values.values if isinstance(values, SortedSamples) else values,
            dtype=float,
        ).reshape(-1)
        if raw.size == 0:
            raise InvalidMeasure("an empirical measure needs at least one atom")
        if not np.all(np.isfinite(raw)):
            raise InvalidSample("sample values must be finite")

        if masses is None:
            m = np.full(raw.size, 1.0 / raw.size)
        else:
            m = np.asarray(masses, dtype=float).reshape(-1)
            if m.size != raw.size:
                raise InvalidMeasure("masses and samples must have equal length")
            if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
                raise InvalidMeasure("masses must be finite and strictly positive")
            total = m.sum()
            if abs(total - 1.0) > MASS_TOL:
                raise InvalidMeasure(
                    f"masses sum to {total!r}, outside tolerance {MASS_TOL}"
                )
            m = m / total

        order = np.argsort(raw, kind="stable")
        srt = raw[order]
        m = m[order]
        cum = np.cumsum(m)
        cum[-1] = 1.0
        for arr in (srt, m, cum):
            arr.setflags(write=False)
        object.__setattr__(self, "samples", _wrap_sorted(srt))
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "_cum", cum)

    def __setattr__(self, name, value):
        raise AttributeError(f"EmpiricalMeasure is immutable, cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return f"EmpiricalMeasure(n={len(self)})"

    @property
    def values(self) -> np.ndarray:
        return self.samples.values

    @property
    def cumulative_masses(self) -> np.ndarray:
        return self._cum

    def quantile(self, u: float) -> float:
        """Generalized inverse CDF: smallest atom whose cumulative mass >= u.

        Defined for u in (0, 1]; right-continuous step convention.
        """
        u = float(u)
        if not (0.0 < u <= 1.0) or np.isnan(u):
            raise DomainError(f"quantile level must lie in (0, 1], got {u!r}")
        idx = int(np.searchsorted(self._cum, u, side="left"))
        return float(self.values[idx])

    def cdf(self, t) -> float | np.ndarray:
        """Total mass of atoms <= t.  Nondecreasing and right-continuous."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(np.isnan(t_arr)):
            raise DomainError("cdf argument must not be NaN")
        counts = np.searchsorted(self.values, t_arr, side="right")
        padded = np.concatenate(([0.0], self._cum))
        out = padded[counts]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def shift(self, offset: float) -> "EmpiricalMeasure":
        """Translate every atom by ``offset``, keeping masses."""
        return EmpiricalMeasure(self.values + float(offset), self.masses)


def _wrap_sorted(sorted_array: np.ndarray) -> SortedSamples:
    """Build SortedSamples from an already-sorted read-only array, no copy."""
    obj = object.__new__(SortedSamples)
    object.__setattr__(obj, "values", sorted_array)
    return obj


def make_uniform_empirical(values) -> EmpiricalMeasure:
    """Empirical measure placing mass 1/N on each of the N given values."""
    return EmpiricalMeasure(values, masses=None)


def _merge_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge +inf-padded sorted rows of x and y, x first at ties; also mark y's entries."""
    both = np.concatenate((x, y), axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    return np.take_along_axis(both, order, axis=1), order >= x.shape[1]
