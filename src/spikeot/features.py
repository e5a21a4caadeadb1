"""Feature extractors built on quantile-band transport costs, bin-wise JS
divergence, and directed Hausdorff distances.

Transport-cost features split (0, 1] into D equal quantile bands and record
the transport cost of each band against a reference measure; the entries are
nonnegative and sum to the full W1 between the measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dissimilarity import binned_js_divergence, directed_hausdorff
from .errors import DomainError
from .measures import EmpiricalMeasure, SortedSamples
from .transport import _merged_bands

__all__ = [
    "FeatureVector",
    "transport_cost_features",
    "classwise_transport_cost_features",
    "js_bin_features",
    "hausdorff_features",
    "standardize_features",
]


@dataclass(frozen=True)
class FeatureVector:
    """A labelled feature row with extraction metadata."""

    values: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.values.size


def transport_cost_features(
    a: EmpiricalMeasure, ref: EmpiricalMeasure, bands: int = 10, log1p: bool = False
) -> FeatureVector:
    """Per-band transport costs c_i over the quantile bands ((i-1)/D, i/D].

    With ``log1p`` the entries pass through log(1 + x) before being returned
    (the standardization used for model ingestion is a separate batch step,
    see ``standardize_features``).
    """
    if int(bands) != bands or bands < 1:
        raise DomainError("band count must be an integer >= 1")
    # one merge with the edges k/D (linspace misses some by an ulp: sliver bands)
    edges = np.arange(int(bands) + 1) / int(bands)
    i, j, lo, hi = _merged_bands(a.cumulative_masses, ref.cumulative_masses, edges[1:-1])
    costs = np.add.reduceat((hi - lo) * np.abs(a.values[i] - ref.values[j]),
                            np.searchsorted(lo, edges[:-1]))
    if log1p:
        costs = np.log1p(costs)
    return FeatureVector(
        values=costs,
        kind="transport_cost",
        metadata={"bands": int(bands), "reference_atoms": len(ref), "log1p": bool(log1p)},
    )


def classwise_transport_cost_features(
    a: EmpiricalMeasure,
    refs: list[EmpiricalMeasure],
    bands: int = 10,
    log1p: bool = False,
) -> list[FeatureVector]:
    """One transport-cost vector per reference measure, order preserved."""
    if not refs:
        raise DomainError("need at least one reference measure")
    return [transport_cost_features(a, ref, bands=bands, log1p=log1p) for ref in refs]


def js_bin_features(
    x: SortedSamples, y: SortedSamples, bins: int = 10, log1p: bool = False
) -> FeatureVector:
    """The per-bin JS-divergence contributions as a feature vector.

    Metadata records the bin placement (equal widths over the union range of
    the two inputs) and that the divergence uses the natural logarithm.
    """
    _, per_bin = binned_js_divergence(x, y, bins)
    values = np.log1p(per_bin) if log1p else per_bin
    lo = min(x.values[0], y.values[0])
    hi = max(x.values[-1], y.values[-1])
    edges = np.linspace(lo, hi, int(bins) + 1) if hi > lo else np.array([lo, lo])
    return FeatureVector(
        values=values,
        kind="js_bins",
        metadata={"bins": int(bins), "edges": edges.tolist(), "log_base": "e",
                  "log1p": bool(log1p)},
    )


def hausdorff_features(x: SortedSamples, y: SortedSamples, log1p: bool = False) -> FeatureVector:
    """The two directed Hausdorff distances (x to y, then y to x)."""
    pair = np.array([directed_hausdorff(x, y), directed_hausdorff(y, x)])
    if log1p:
        pair = np.log1p(pair)
    return FeatureVector(values=pair, kind="hausdorff_pair", metadata={"log1p": bool(log1p)})


def standardize_features(vectors: list[FeatureVector]) -> np.ndarray:
    """Stack feature vectors and z-score each column across the batch.

    Columns with zero spread are left centered at zero.
    """
    if not vectors:
        raise DomainError("need at least one feature vector")
    mat = np.vstack([fv.values for fv in vectors])
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (mat - mean) / std
