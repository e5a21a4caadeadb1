"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 benchmarks/run.py --workload fig3_grid --seed 1 --seconds 20 --trace 0

It times ``import spikeot, spikeot.cli`` in fresh interpreters (setup_s),
then runs the workload in a fresh worker process with BLAS and OpenMP
pinned to one thread.  Timings are scaled to a reference machine speed by
the probes of calibration.py.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines
before it describe the run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from calibration import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig3_grid", "closed_form_tables", "long_trains")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 5
PROBES_PER_SETUP = 3
WORKER_TIMEOUT_S = 160
WORK_DIR = ".bench_work"


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: str, env: dict) -> tuple[list[float], list[float], SpeedMeter]:
    """Wall times of fresh interpreters importing the package and its CLI.

    One untimed run first, so every timed run finds the bytecode cache.
    Calibration probes run in this process between the timed runs; each
    run is scaled by the probes just before and just after it.  Returns
    the scaled times, the times as measured, and the probes.
    """
    cmd = [sys.executable, "-c", "import spikeot, spikeot.cli"]
    meter = SpeedMeter("mixed", window=2 * PROBES_PER_SETUP)
    runs = []
    for i in range(SETUP_RUNS + 1):
        if i:
            for _ in range(PROBES_PER_SETUP):
                meter.run_probe()
        start = perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        if i:
            runs.append((start, perf_counter() - start))
    for _ in range(PROBES_PER_SETUP):
        meter.run_probe()
    return [meter.scaled(*run) for run in runs], [t for _, t in runs], meter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spikeot", "__init__.py")):
        print(f"run.py: {root} has no src/spikeot; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = pinned_env(root)
    metrics = {}
    report = []
    try:
        if not args.trace:
            setup, measured, meter = measure_setup(root, env)
            metrics["setup_s"] = statistics.median(setup)
            report.append("setup_s runs as measured: " + " ".join(f"{t:.4f}" for t in measured)
                          + "; " + meter.describe())
        os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
        try:
            worker = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--workdir", workdir,
                 "--trace-out", os.path.join(root, WORK_DIR, f"trace_{args.workload}.jsonl")],
                cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0:
        print(f"run.py: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        print(f"run.py: metrics differ from BENCHMARK.json {kind}: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for line in report + result["report"]:
        print(f"# {args.workload}: {line}")
    for name, value in metrics.items():
        print(f"# {args.workload}: {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
