"""Checks on the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/selfcheck.py

1. Every workload and metric name in BENCHMARK.json is well formed, and the
   per-layer list is exactly what the worker emits.
2. A perturbed reference value makes the correctness gate fail an op, so
   error_rate rises above 0; the unperturbed reference fails none.
3. A traced pass produces the same outputs as an untraced pass.
4. In a directory holding only BENCHMARK.json and this directory, run.py
   exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

ROOT = os.getcwd()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def require(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def check_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    require(set(names) == set(WORKLOADS), names)
    for kind in ("end_to_end", "per_layer"):
        metrics = spec[kind]
        names += [m["name"] for m in metrics]
        for m in metrics:
            require(UNIT.fullmatch(m["unit"]), m)
    bad = [n for n in names if not NAME.fullmatch(n)]
    require(not bad, f"malformed names: {bad}")
    require(len(names) == len(set(names)), "a name is used twice")
    expected = {f"{layer}.{stat}" for layer in worker.LAYERS + (worker.HARNESS,)
                for stat in ("calls", "self_s", "share")}
    expected |= {f"{f}.self_s" for f in worker.HOT_FUNCTIONS} | set(worker.COUNTERS)
    expected |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"}
    listed = {m["name"] for m in spec["per_layer"]}
    require(listed == expected, sorted(listed ^ expected))
    print(f"names: {len(names)} well formed and unique")


class RecordingContext(worker.PassContext):
    """A pass context that keeps every op's output."""

    def __init__(self, tracer):
        super().__init__(tracer)
        self.outputs = []

    def op(self, name, fn, *args, **kwargs):
        result = super().op(name, fn, *args, **kwargs)
        self.outputs.append(result)
        return result


def run_one_pass(workload, traced: bool) -> RecordingContext:
    ctx = RecordingContext(Tracer() if traced else None)
    workload.run_pass(ctx, 0)
    ctx.run_checks()
    return ctx


def same(a, b) -> bool:
    """Bitwise equality of op outputs, NaN equal to NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "values") and not callable(a.values):  # SortedSamples, EmpiricalMeasure
        return type(a) is type(b) and same(a.values, b.values)
    return a == b


def check_gate_and_trace(workdir: str) -> None:
    for name, cls in WORKLOADS.items():
        untraced = run_one_pass(cls(0, workdir), traced=False)
        traced = run_one_pass(cls(0, workdir), traced=True)
        require(not untraced.failures, untraced.failures)
        require(not traced.failures, traced.failures)
        require(len(untraced.outputs) == len(traced.outputs), f"{name}: op counts differ")
        diff = [i for i, (a, b) in enumerate(zip(untraced.outputs, traced.outputs))
                if not same(a, b)]
        require(not diff, f"{name}: traced outputs differ at ops {diff}")
        print(f"{name}: {len(untraced.outputs)} ops pass their checks; traced outputs identical")

    fig3 = load_reference("fig3_grid.json")
    fig3["seeds"]["0"][7][0] *= 1.0 + 1e-9
    closed = copy.deepcopy(load_reference("closed_form.json"))
    closed["expected_distance"][0]["mean"] = repr(float(closed["expected_distance"][0]["mean"])
                                                  * (1.0 + 1e-7))
    for cls, ref in ((WORKLOADS["fig3_grid"], fig3), (WORKLOADS["closed_form_tables"], closed)):
        ctx = run_one_pass(cls(0, workdir, reference=ref), traced=False)
        require(len(ctx.failures) == 1, ctx.failures)
        print(f"{cls.name}: perturbed reference fails 1 of {ctx.attempted} ops: "
              f"{ctx.failures[0][:100]}")


def check_bare_directory(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fig3_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    require(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print(f"bare directory: run.py exits {proc.returncode} with no result")


def main() -> None:
    check_names()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        check_bare_directory(scratch)
        check_gate_and_trace(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
