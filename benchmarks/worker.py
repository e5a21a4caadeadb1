"""Run one workload in this process and print its results as one JSON line.

``run.py`` starts this script in a fresh interpreter with the BLAS and
OpenMP thread counts pinned to 1, so the process's peak memory and timings
belong to this workload alone.  Passes repeat the workload's op list until
``--seconds`` have passed.  With ``--trace 0`` a fixed probe runs between
ops (see calibration.py) and each op's latency is scaled by the machine
speed the probes around it measured.  With ``--trace 1`` untraced and traced passes
alternate: the traced ones give per-layer self times and counters, and the
difference between the two kinds of pass is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy

import spikeot
from calibration import SpeedMeter
from tracing import Tracer, untraced_call
from workloads import WORKLOADS

LAYERS = ("cli", "measures", "transport", "poisson", "closed_form",
          "dissimilarity", "features", "sliced", "validation")
# Time inside traced passes that no library span covers: the op loop, input
# glue and the fig3 replay's own array work.
HARNESS = "harness"
# The public functions the workloads call, each timed by its own span.
HOT_FUNCTIONS = (
    "cli.read_samples", "cli.read_multichannel", "cli.write_table",
    "measures.make_uniform_empirical",
    "transport.w1_general", "transport.northwest_corner_plan",
    "poisson.simulate_process", "poisson.SpikeSeed.generator",
    "closed_form.expected_wasserstein", "closed_form.expected_distance",
    "closed_form.shifted_expected_distance", "closed_form.expected_distance_time_varying",
    "dissimilarity.directed_hausdorff", "dissimilarity.binned_js_divergence",
    "dissimilarity.victor_purpura", "dissimilarity.kfs_distance",
    "dissimilarity.composite_wasserstein",
    "features.transport_cost_features", "features.classwise_transport_cost_features",
    "sliced.sliced_w1",
    "validation.run_fig3_experiment", "validation.validate_wasserstein_surface",
    "validation.expected_distance_comparisons", "validation.shift_comparisons",
    "harness.replay_cell",
)
COUNTERS = (
    "transport.plan_entries", "transport.sliver_entries",
    "validation.trials_attempted", "validation.trials_used", "validation.replay_bit_exact",
    "poisson.events", "cli.bytes_read", "cli.bytes_written", "closed_form.tv_rate_points",
)


class PassAborted(Exception):
    """An op raised; the rest of the pass depends on its result."""


class PassContext:
    """Times one pass's ops, defers their checks, and records counters."""

    def __init__(self, tracer: Tracer | None, meter: SpeedMeter | None = None):
        self.tracer = tracer
        self.meter = meter
        self.tracing = tracer is not None
        self.call = tracer.call if tracer else untraced_call
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.work = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.traced_s = 0.0
        self._pending = []

    def op(self, name, fn, *args, work, check=None):
        self.attempted += 1
        if self.tracer:
            self.tracer.op_id += 1
        start = perf_counter()
        try:
            result = self.call(name, fn, *args)
        except Exception as exc:  # an op that raises counts as failed
            self.failures.append(f"{name} raised {type(exc).__name__}: {exc}")
            raise PassAborted from exc
        self.latencies.append(perf_counter() - start)
        self.starts.append(start)
        if self.meter:
            self.meter.tick(self.latencies[-1])
        self.work += work
        if check is not None:
            self._pending.append((name, check, result, self.tracer and self.tracer.op_id))
        return result

    def count(self, name: str, value) -> None:
        self.counters[name] += int(value)

    def traced(self, name, fn, *args):
        """Call ``fn`` in a span that adds to this pass's traced time."""
        start = perf_counter()
        try:
            return self.call(name, fn, *args)
        finally:
            self.traced_s += perf_counter() - start

    def run_checks(self) -> None:
        for name, check, result, op_id in self._pending:
            if self.tracer:
                self.tracer.op_id = op_id
            try:
                message = check(result)
            except Exception as exc:  # a check that cannot run fails its op
                message = f"check raised {type(exc).__name__}: {exc}"
            if message:
                self.failures.append(f"{name}: {message}")
        self._pending = []


def run_pass(workload, p: int, tracer: Tracer | None, meter: SpeedMeter | None) -> dict:
    """One pass; its wall time leaves out the probes, which ``probe_s`` holds."""
    ctx = PassContext(tracer, meter)
    first_span = tracer.mark() if tracer else 0
    probed = meter.spent if meter else 0.0
    start = perf_counter()
    try:
        workload.run_pass(ctx, p)
    except PassAborted:
        pass
    probe_s = (meter.spent if meter else 0.0) - probed
    wall = perf_counter() - start - probe_s
    ctx.run_checks()
    return {"traced": tracer is not None, "wall": wall, "probe_s": probe_s, "ctx": ctx,
            "spans": (first_span, tracer.mark() if tracer else 0)}


def tail(latencies: list[float], rank: float) -> tuple[float, int]:
    """Latency at the workload's fixed tail percentile, and the ops beyond it.

    The percentile depends only on the workload, so runs that fit more or
    fewer passes report the same percentile.
    """
    ordered = sorted(latencies)
    idx = min(max(math.ceil(rank * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[idx], len(ordered) - 1 - idx


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


def end_to_end(workload, passes, meter: SpeedMeter, report) -> dict:
    """The metrics a user sees, from the untraced passes.

    Every op latency is first scaled to the reference speed by the probes
    run around it (calibration.py).  wall_s then sums, over the op list,
    each op's median latency across passes: one slow stretch of a noisy
    machine moves one sample of each op rather than a whole pass.  Every
    pass does the same amount of work.
    """
    timed = [r for r in passes if not r["traced"]]
    scaled = [[meter.scaled(t, x) for t, x in zip(r["ctx"].starts, r["ctx"].latencies)]
              for r in timed]
    latencies = [x for row in scaled for x in row]
    by_position = defaultdict(list)
    for row in scaled:
        for i, x in enumerate(row):
            by_position[i].append(x)
    wall = sum(statistics.median(v) for v in by_position.values())
    raw_wall = sum(statistics.median(v) for v in zip(*(r["ctx"].latencies for r in timed)))
    work = statistics.median(r["ctx"].work for r in timed)
    tail_s, beyond = tail(latencies, workload.TAIL_RANK)
    report.append(f"{len(timed)} timed passes, {len(latencies)} ops; work unit: "
                  f"{workload.work_unit}, {work:g} per pass")
    report.append("pass walls as measured: " + " ".join(f"{r['wall']:.4f}" for r in timed))
    report.append(meter.describe() + f"; wall_s as measured {raw_wall:.4f} s")
    report.append(f"op_tail_ms is p{100 * workload.TAIL_RANK:.2f} of {len(latencies)} ops "
                  f"({beyond} ops beyond it)")
    return {
        "wall_s": wall,
        "work_per_s": work / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, passes, report) -> dict:
    """Per-layer self times, shares and counters, from the traced passes."""
    traced = [r for r in passes if r["traced"]]
    untraced = [r for r in passes if not r["traced"]]
    first_calls, _ = tracer.self_times(*traced[0]["spans"])
    # (self seconds by span name, traced seconds) per traced pass
    per_pass = [(tracer.self_times(*r["spans"])[1], r["wall"] + r["ctx"].traced_s)
                for r in traced]

    def layer_of(name):
        return name.split(".", 1)[0]

    def self_of(layer, self_s, window):
        if layer == HARNESS:
            return window - sum(self_of(la, self_s, window) for la in LAYERS)
        return sum((v for k, v in self_s.items() if layer_of(k) == layer), 0.0)

    def median_of(fn):
        return statistics.median(fn(self_s, window) for self_s, window in per_pass)

    unlisted = {name for self_s, _ in per_pass for name in self_s} - set(HOT_FUNCTIONS)
    if unlisted:
        raise RuntimeError(f"spans with no per-layer metric: {sorted(unlisted)}")
    metrics = {}
    for layer in LAYERS + (HARNESS,):
        metrics[f"{layer}.calls"] = sum(v for k, v in first_calls.items() if layer_of(k) == layer)
        metrics[f"{layer}.self_s"] = median_of(lambda s, w, la=layer: self_of(la, s, w))
        metrics[f"{layer}.share"] = median_of(lambda s, w, la=layer: self_of(la, s, w) / w)
    for name in HOT_FUNCTIONS:
        metrics[f"{name}.self_s"] = median_of(lambda s, w, n=name: s.get(n, 0.0))
    for name in COUNTERS:
        metrics[name] = traced[0]["ctx"].counters.get(name, 0)
    traced_wall = statistics.median(r["wall"] for r in traced)
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = traced[0]["spans"][1] - traced[0]["spans"][0]
    report.append(f"{len(traced)} traced and {len(untraced)} untraced passes; per-layer "
                  "counts are from the first traced pass, times are medians over traced passes")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    meter = None if args.trace else SpeedMeter(workload.PROBE)
    passes = []
    cpu_start, start = os.times(), perf_counter()
    measured = 0.0
    # Checks run between passes; only the passes and their probes use up
    # --seconds.  The last pass starts only if it would end closer to --seconds.
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, len(passes), tracer if traced else None, meter))
        measured += passes[-1]["wall"] + passes[-1]["probe_s"]
        typical = statistics.median(r["wall"] + r["probe_s"] for r in passes)
        if measured + typical / 2 >= args.seconds and (not args.trace or len(passes) >= 2):
            break
    elapsed = perf_counter() - start
    cpu_end = os.times()
    cpu = (cpu_end.user - cpu_start.user) + (cpu_end.system - cpu_start.system)

    env = environment()
    attempted = sum(r["ctx"].attempted for r in passes)
    failures = [f for r in passes for f in r["ctx"].failures]
    report = [
        "env " + json.dumps(env, sort_keys=True),
        f"spikeot from {os.path.dirname(spikeot.__file__)}",
        f"measured {measured:.3f} s in {len(passes)} passes, {elapsed:.3f} s with checks, "
        f"process cpu/wall {cpu / elapsed:.3f}",
        f"error_rate {len(failures) / attempted} ({len(failures)} of {attempted} ops failed)",
    ]
    report += [f"FAILED {f}" for f in failures[:20]]
    if tracer:
        metrics = per_layer(tracer, passes, report)
        pass_windows = [{"traced": r["traced"], "wall": r["wall"], "spans": r["spans"]}
                        for r in passes]
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                     "env": env, "passes": pass_windows})
        report.append(f"spans written to {args.trace_out}")
    else:
        metrics = end_to_end(workload, passes, meter, report)
    print(json.dumps({"report": report, "correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
