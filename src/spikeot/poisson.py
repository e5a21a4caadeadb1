"""Rate functions, Poisson-process simulation, and Erlang arrival sampling.

Rate functions are piecewise polynomial of degree <= 1, so the cumulative
intensity m(x) = integral of the rate from 0 to x is piecewise polynomial of
degree <= 2 and both m and its inverse have closed forms per segment.
Simulation uses the conditional-uniform method: draw the event count from
Poisson(m(horizon)), place that many uniforms on [0, m(horizon)], and map
them through the inverse cumulative intensity.  No thinning, no rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntensityExhausted
from .measures import SortedSamples

__all__ = [
    "SpikeSeed",
    "MCEstimate",
    "RateFunction",
    "simulate_process",
    "sample_kth_arrival",
]


@dataclass(frozen=True)
class SpikeSeed:
    """Root of a reproducible random-stream hierarchy.

    The same (seed, stream) always reproduces the same draws.  Derived
    generators take an extra index path, so independent substreams (one per
    trial, per process, per grid cell, ...) never collide and adding new
    consumers never perturbs existing ones.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if int(self.stream) < 0:
            raise DomainError("stream index must be nonnegative")

    def generator(self, *path: int) -> np.random.Generator:
        """A generator for the substream addressed by ``path`` below this seed."""
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream), *map(int, path)))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo estimate: value, standard error, trial count, seed."""

    mean: float
    std_error: float
    trials: int
    seed: SpikeSeed


class RateFunction:
    """Nonnegative intensity, constant / piecewise-constant / piecewise-linear.

    Piecewise kinds are supported on [t_0, t_M] with rate 0 outside; the
    constant kind is supported on [0, inf).  Breakpoints must be strictly
    increasing and start at a nonnegative time, so that m(x) = int_0^x rate
    is well defined for x >= 0.
    """

    __slots__ = ("kind", "breakpoints", "_start_rate", "_slope", "_cum")

    def __init__(self, kind: str, breakpoints, start_rates, slopes):
        bp = np.asarray(breakpoints, dtype=float)
        b0 = np.asarray(start_rates, dtype=float)
        a = np.asarray(slopes, dtype=float)
        if bp.size < 2 or np.any(np.diff(bp) <= 0.0):
            raise DomainError("breakpoints must be strictly increasing, length >= 2")
        if bp[0] < 0.0 or not np.all(np.isfinite(bp)):
            raise DomainError("breakpoints must be finite and start at time >= 0")
        if b0.size != bp.size - 1 or a.size != bp.size - 1:
            raise DomainError("need one (rate, slope) pair per segment")
        widths = np.diff(bp)
        end_rates = b0 + a * widths
        if np.any(b0 < 0.0) or np.any(end_rates < -1e-15):
            raise DomainError("rate must be nonnegative everywhere")
        seg_mass = b0 * widths + 0.5 * a * widths * widths
        cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        for arr in (bp, b0, a, cum):
            arr.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "_start_rate", b0)
        object.__setattr__(self, "_slope", a)
        object.__setattr__(self, "_cum", cum)

    def __setattr__(self, name, value):
        raise AttributeError(f"RateFunction is immutable, cannot set {name!r}")

    @classmethod
    def constant(cls, level: float) -> "RateFunction":
        """Homogeneous rate ``level`` on [0, inf)."""
        level = float(level)
        if not (level >= 0.0) or not np.isfinite(level):
            raise DomainError("constant rate must be finite and nonnegative")
        obj = cls("piecewise_constant", [0.0, 1.0], [level], [0.0])
        object.__setattr__(obj, "kind", "constant")
        return obj

    @classmethod
    def piecewise_constant(cls, breakpoints, levels) -> "RateFunction":
        """Rate ``levels[i]`` on [breakpoints[i], breakpoints[i+1])."""
        levels = np.asarray(levels, dtype=float)
        return cls("piecewise_constant", breakpoints, levels, np.zeros_like(levels))

    @classmethod
    def piecewise_linear(cls, breakpoints, values) -> "RateFunction":
        """Continuous linear interpolation of ``values`` at the breakpoints."""
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if vals.size != bp.size:
            raise DomainError("need one rate value per breakpoint")
        slopes = np.diff(vals) / np.diff(bp)
        return cls("piecewise_linear", bp, vals[:-1], slopes)

    @property
    def total_intensity(self) -> float:
        """m(inf): infinite for the constant kind, segment-sum mass otherwise."""
        if self.kind == "constant":
            return np.inf if self._start_rate[0] > 0.0 else 0.0
        return float(self._cum[-1])

    def rate(self, t):
        """Instantaneous rate at time t (vectorized)."""
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.where(t_arr >= 0.0, self._start_rate[0], 0.0)
        else:
            bp = self.breakpoints
            idx = np.clip(np.searchsorted(bp, t_arr, side="right") - 1, 0, bp.size - 2)
            dt = t_arr - bp[idx]
            inside = (t_arr >= bp[0]) & (t_arr <= bp[-1])
            out = np.where(inside, self._start_rate[idx] + self._slope[idx] * dt, 0.0)
            out = np.maximum(out, 0.0)
        return float(out) if t_arr.ndim == 0 else out

    def cumulative(self, x):
        """m(x) = integral of the rate over [0, x], exact per segment (vectorized)."""
        x_arr = np.asarray(x, dtype=float)
        if np.any(np.isnan(x_arr)) or np.any(x_arr < 0.0):
            raise DomainError("cumulative intensity is defined for x >= 0")
        if self.kind == "constant":
            out = self._start_rate[0] * x_arr
        else:
            bp = self.breakpoints
            clipped = np.clip(x_arr, bp[0], bp[-1])
            idx = np.clip(np.searchsorted(bp, clipped, side="right") - 1, 0, bp.size - 2)
            dt = clipped - bp[idx]
            out = self._cum[idx] + self._start_rate[idx] * dt + 0.5 * self._slope[idx] * dt * dt
        return float(out) if x_arr.ndim == 0 else out

    def inverse_cumulative(self, u):
        """Smallest x with m(x) = u, for 0 <= u < total intensity (vectorized).

        On zero-rate plateaus the left endpoint is returned.
        """
        u_arr = np.asarray(u, dtype=float)
        if np.any(np.isnan(u_arr)) or np.any(u_arr < 0.0):
            raise DomainError("inverse cumulative intensity needs u >= 0")
        if np.any(u_arr >= self.total_intensity):
            raise IntensityExhausted(
                f"requested mass {float(np.max(u_arr))!r} beyond total intensity "
                f"{self.total_intensity!r}"
            )
        if self.kind == "constant":
            out = u_arr / self._start_rate[0]
            return float(out) if u_arr.ndim == 0 else out

        cum = self._cum
        bp = self.breakpoints
        first_geq = np.searchsorted(cum, u_arr, side="left")
        exact = cum[np.minimum(first_geq, cum.size - 1)] == u_arr
        seg = np.clip(np.where(exact, first_geq, first_geq - 1), 0, bp.size - 2)
        du = u_arr - cum[seg]
        b = self._start_rate[seg]
        a = self._slope[seg]
        # stable root of a*dt^2/2 + b*dt = du, valid for either sign of a
        disc = np.sqrt(np.maximum(b * b + 2.0 * a * du, 0.0))
        denom = b + disc
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = np.where(denom > 0.0, 2.0 * du / np.where(denom > 0.0, denom, 1.0), 0.0)
        out = np.where(exact, bp[np.minimum(first_geq, bp.size - 1)], bp[seg] + dt)
        out = np.where(u_arr == 0.0, 0.0, out)
        return float(out) if u_arr.ndim == 0 else out


def simulate_process(rate_fn: RateFunction, horizon: float, seed: SpikeSeed) -> SortedSamples:
    """Sample one path of the (non)homogeneous Poisson process on [0, horizon].

    Conditional-uniform construction: K ~ Poisson(m(horizon)) uniforms on
    [0, m(horizon)] pushed through the inverse cumulative intensity.  An
    exhausted (zero-mass) horizon yields an empty train.
    """
    horizon = float(horizon)
    if not (horizon > 0.0) or not np.isfinite(horizon):
        raise DomainError("horizon must be positive and finite")
    total = rate_fn.cumulative(horizon)
    rng = seed.generator()
    count = int(rng.poisson(total)) if total > 0.0 else 0
    if count == 0:
        return SortedSamples([])
    u = rng.random(count) * total
    times = rate_fn.inverse_cumulative(u)
    return SortedSamples(times)


def sample_kth_arrival(rate: float, k: int, seed: SpikeSeed) -> float:
    """Draw the k-th arrival time of a homogeneous process: Erlang(k, rate).

    Built as the sum of k unit exponentials scaled by 1/rate.
    """
    rate = float(rate)
    if not (rate > 0.0) or not np.isfinite(rate):
        raise DomainError("rate must be positive and finite")
    if int(k) != k or k < 1:
        raise DomainError("arrival order k must be an integer >= 1")
    rng = seed.generator()
    return float(rng.standard_exponential(int(k)).sum() / rate)
