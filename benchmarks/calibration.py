"""Machine-speed calibration: a fixed probe run between the timed ops.

The machine this benchmark was built on is a few cores of a shared host, and
its speed drifts: the same op list ran up to 1.6 times slower in one minute
than in the next, and by 20% between 3-second stretches of one run.  Medians
cannot remove a slow stretch that lasts a whole run, so every run also times
a fixed probe, spread evenly over the run.  Each timing is scaled by the
probe's reference time over the median time of the ``window`` probes nearest
to it, so it reads as it would at the probe's reference speed, whatever the
machine's speed was around it.

The probes call no spikeot code, so a change to the library cannot move
them, and the garbage collector is off while one runs, so the size of the
library's heap cannot either.  Their inputs are fixed, so every probe does
the same work.  A slow stretch does not slow every kind of work alike: many
numpy calls on small arrays slowed about 1.8 times where one sort of a large
array slowed 1.3 times.  So there are two probes, and each workload uses the
one closest to its own work:

- ``calls``: many numpy calls on 100-element arrays, for workloads whose
  time goes to per-call interpreter overhead: fig3's per-trial work and
  long_trains, whose longest op is the Victor-Purpura loop.  Over 3- and
  4-second stretches, fig3 op latency moved 0.93 times as much as this
  probe and Victor-Purpura 0.89 times, against 1.28 and 1.39 times as much
  as ``mixed``.
- ``mixed``: Python-object work (a sorted list and a dict), numpy on an
  array larger than the L2 cache, and some small-array calls, for the bulk
  numpy and quadrature of closed_form_tables (op latency moved 1.04 times
  as much as this probe, 0.66 times as much as small-array calls) and for the
  interpreter start-up of ``setup_s``.
"""

from __future__ import annotations

import gc
import random
import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

# A probe runs after the first op that ends this much measured time after
# the last probe.  At most one probe follows an op: a probe right after
# another runs on warm caches, about 10% faster than one after an op, so
# runs of probes would make the factor depend on how long the ops are.
PROBE_EVERY_S = 0.1
# Probes whose median scales one timing: 2.5 s of a fig3 run, about 10 s of
# a closed_form_tables run, whose ops are longer.
WINDOW = 25

_rng = np.random.default_rng(20251112)
_BIG = _rng.random(200_000)
_SMALL = [_rng.random(100) for _ in range(50)]
_LIST = [random.Random(1).random() for _ in range(20_000)]


def _small_calls(repeats: int) -> float:
    total = 0.0
    for a in _SMALL:
        for _ in range(repeats):
            total += float(np.abs(a - a.mean()).sum())
            total += float(np.searchsorted(np.sort(a), 0.5))
    return total


def calls_probe() -> float:
    """Fixed work of about 5.5 ms; returns a value so nothing is optimized away."""
    return _small_calls(12)


def mixed_probe() -> float:
    """Fixed work of about 8 ms; returns a value so nothing is optimized away."""
    ordered = sorted(_LIST)
    table = {i: v for i, v in enumerate(ordered)}
    big = np.sort(_BIG)
    total = float(np.cumsum(big)[-1]) + float(np.searchsorted(big, _SMALL[0])[0])
    return total + _small_calls(4) + len(table)


# Each probe and its median time on the 2-core VM the benchmark was built
# on, in one of its fast stretches.  The reference only sets the scale the
# timings are reported in.
PROBES = {"calls": (calls_probe, 5.3e-3), "mixed": (mixed_probe, 7.5e-3)}


class SpeedMeter:
    """Probe times over one run, and the factors that rescale its timings."""

    def __init__(self, kind: str, window: int = WINDOW):
        self.kind = kind
        self.probe, self.reference = PROBES[kind]
        self.window = window
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._since = PROBE_EVERY_S

    def run_probe(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self.probe()
            elapsed = perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.stamps.append(start + elapsed / 2)
        self.times.append(elapsed)
        self.spent += elapsed

    def tick(self, measured: float) -> None:
        """Add ``measured`` seconds of timed work; probe if one is due."""
        self._since += measured
        if self._since >= PROBE_EVERY_S:
            self._since = 0.0
            self.run_probe()

    def factor_at(self, stamp: float) -> float:
        """Reference probe time over the median of the probes nearest ``stamp``.

        ``stamp`` is a ``perf_counter`` reading; the window is the
        ``window`` probes centred on it, shifted inward at the run's ends.
        """
        n = len(self.times)
        lo = min(max(bisect_left(self.stamps, stamp) - self.window // 2, 0),
                 max(n - self.window, 0))
        return self.reference / statistics.median(self.times[lo:lo + self.window])

    def scaled(self, start: float, seconds: float) -> float:
        """A timing that began at ``start``, scaled to the reference speed."""
        return seconds * self.factor_at(start + seconds / 2)

    def factor(self) -> float:
        """Reference probe time over this run's median probe time."""
        return self.reference / statistics.median(self.times)

    def describe(self) -> str:
        return (f"whole-run speed factor {self.factor():.4f} from {len(self.times)} "
                f"{self.kind} probes (median {1e3 * statistics.median(self.times):.3f} ms, "
                f"reference {1e3 * self.reference:.3f} ms), {self.spent:.3f} s probing")
