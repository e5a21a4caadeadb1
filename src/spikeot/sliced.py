"""Sliced W1 between point clouds: Monte Carlo over random 1D projections.

Each projection direction turns both clouds into sorted 1D samples whose
exact W1 is computed by the quantile integral; the uniform mass ladders do
not depend on the direction, so one merge serves every direction.  The
sliced distance is the mean over directions drawn uniformly on the unit
sphere (normalized Gaussians), reported with its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidSample
from .measures import SortedSamples
from .poisson import MCEstimate, SpikeSeed
from .transport import _merged_bands

__all__ = ["PointCloud", "project", "sliced_w1"]


@dataclass(frozen=True)
class PointCloud:
    """N points in d >= 2 dimensions, each carrying mass 1/N."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 2:
            raise DomainError("points must be an N x d array with N >= 1, d >= 2")
        if not np.all(np.isfinite(pts)):
            raise InvalidSample("point coordinates must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def translate(self, offset) -> "PointCloud":
        return PointCloud(self.points + np.asarray(offset, dtype=float))


def project(cloud: PointCloud, direction) -> SortedSamples:
    """Sorted inner products of the cloud with a unit direction vector."""
    direction = np.asarray(direction, dtype=float).reshape(-1)
    if direction.size != cloud.dimension:
        raise DimensionMismatch(
            f"direction has dimension {direction.size}, cloud has {cloud.dimension}"
        )
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise DomainError("projection direction must be a unit vector")
    return SortedSamples(cloud.points @ direction)


def sliced_w1(
    a: PointCloud,
    b: PointCloud,
    num_directions: int,
    seed: SpikeSeed,
    directions: np.ndarray | None = None,
) -> MCEstimate:
    """Mean exact W1 between projections along random unit directions.

    Deterministic given the seed; ``directions`` (rows normalized) overrides
    the random draw when an explicit direction set is wanted.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"clouds have dimensions {a.dimension} and {b.dimension}")
    if int(num_directions) != num_directions or num_directions < 1:
        raise DomainError("need an integer direction count >= 1")
    num_directions = int(num_directions)

    if directions is None:
        raw = seed.generator().standard_normal((num_directions, a.dimension))
    else:
        raw = np.asarray(directions, dtype=float)
        if raw.shape != (num_directions, a.dimension):
            raise DimensionMismatch(
                f"direction set must have shape {(num_directions, a.dimension)}, got {raw.shape}"
            )
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    proj_a = np.sort(a.points @ dirs.T, axis=0)
    proj_b = np.sort(b.points @ dirs.T, axis=0)
    n, m = len(a), len(b)
    i, j, lo, hi = _merged_bands(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    values = (hi - lo) @ np.abs(proj_a[i] - proj_b[j])
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(num_directions) if num_directions > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, trials=num_directions, seed=seed)
