"""Record the reference values the benchmark's checks compare against.

Run from the repository root, on the commit whose outputs define the
references:

    PYTHONPATH=src python3 benchmarks/make_reference.py

It writes ``reference/fig3_grid.json`` (every fig3_grid cell of pass 0 for
the shipped seeds, from the library itself) and ``reference/closed_form.json``
(40-digit mpmath values of the large-order closed forms, independent of the
library).
"""

from __future__ import annotations

import json
import os
import sys

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
from spikeot import run_fig3_experiment  # noqa: E402
from workloads import ClosedFormTables, Fig3Grid  # noqa: E402

SHIPPED_SEEDS = range(20)
LARGE_K = [(1.0, 1.0, 10**4), (1.0, 1.0, 10**5), (1.0, 1.0, 10**6), (1.0, 1.001, 10**6)]
WASSERSTEIN_N = (20, 200, 2000)
DIGITS = 25


def fig3_reference() -> dict:
    seeds = {}
    for seed in SHIPPED_SEEDS:
        grid = Fig3Grid(seed, workdir="", reference={"seeds": {}})
        rows = []
        for c, (ratio, shift) in enumerate(grid.cells):
            (row,) = run_fig3_experiment([ratio], [shift], grid.TRIALS, grid.cell_seed(0, c))
            rows.append([row.mean_w1, row.mean_hausdorff, row.mean_js_total,
                         row.mean_order_gap, row.used_trials, row.order_gap_trials,
                         row.skipped_order, row.skipped_empty])
        seeds[str(seed)] = rows
    return {"trials": Fig3Grid.TRIALS, "pass": 0, "seeds": seeds}


def closed_form_reference() -> dict:
    large = [{"rate1": r1, "rate2": r2, "k": k,
              "mean": mpmath.nstr(oracles.expected_gap_mp(r1, r2, k), DIGITS)}
             for r1, r2, k in LARGE_K]
    r1, r2 = ClosedFormTables.RATE1, ClosedFormTables.RATE2
    wasserstein = []
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for k in range(1, max(WASSERSTEIN_N) + 1):
            total += oracles.expected_gap_mp(r1, r2, k)
            if k in WASSERSTEIN_N:
                wasserstein.append({"rate1": r1, "rate2": r2, "n": k,
                                    "value": mpmath.nstr(total / k, DIGITS)})
    return {"digits": DIGITS, "expected_distance": large, "expected_wasserstein": wasserstein}


def dump(obj) -> str:
    """JSON with one line per innermost list or object."""
    if isinstance(obj, dict) and any(isinstance(v, (dict, list)) for v in obj.values()):
        items = [f"{json.dumps(k)}: {dump(v)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        return "[\n" + ",\n".join(dump(v) for v in obj) + "\n]"
    return json.dumps(obj)


def main() -> None:
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
    for name, make in (("closed_form.json", closed_form_reference),
                       ("fig3_grid.json", fig3_reference)):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(dump(make()) + "\n")
        print("wrote", name, flush=True)


if __name__ == "__main__":
    main()
