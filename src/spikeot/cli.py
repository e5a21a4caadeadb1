"""Command-line interface: distances, closed forms, experiments, features.

Output is machine readable (CSV by default, JSON lines with --format jsonl);
every run starts with a header carrying the fully resolved configuration and
seed, numbers are serialized with 17 significant digits so they round-trip
losslessly, and ``read_table`` parses the tool's own output back.

Exit codes: 0 success, 2 usage or domain error (including unparseable
tokens, reported with line and column), 3 empty or degenerate input data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import closed_form, validation
from .dissimilarity import MultiChannelTrain, composite_wasserstein
from .errors import DomainError, EmptyTrain, InvalidMeasure, SpikeOTError
from .features import (
    hausdorff_features,
    js_bin_features,
    transport_cost_features,
)
from .measures import SortedSamples, make_uniform_empirical
from .poisson import SpikeSeed
from .sliced import PointCloud, sliced_w1
from .transport import northwest_corner_plan, w1_general

__all__ = ["main", "read_samples", "read_multichannel", "read_table"]

ENV_SEED = "SPIKEOT_SEED"
DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class ParseFailure(SpikeOTError):
    """A sample file contained an unparseable token."""

    def __init__(self, path, line, column, token):
        self.path, self.line, self.column, self.token = path, line, column, token
        super().__init__(f"{path}:{line}:{column}: cannot parse {token!r} as a real number")


class EmptyInput(SpikeOTError):
    """A sample file contained no values."""

    def __init__(self, path):
        self.path = path
        super().__init__(f"{path}: no sample values found")


def _parse_blocks(path: str) -> list[np.ndarray]:
    """Parse '#'-commented, whitespace-separated reals; blank lines split blocks."""
    blocks: list[list[float]] = []
    current: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                if current:
                    blocks.append(current)
                    current = []
                continue
            col = 1
            for token in line.split():
                col = line.index(token, col - 1) + 1
                try:
                    current.append(float(token))
                except ValueError:
                    raise ParseFailure(path, lineno, col, token) from None
                col += len(token)
    if current:
        blocks.append(current)
    return [np.asarray(b, dtype=float) for b in blocks]


def read_samples(path: str) -> np.ndarray:
    """All sample values in the file, ignoring block structure."""
    blocks = _parse_blocks(path)
    if not blocks:
        raise EmptyInput(path)
    return np.concatenate(blocks)


def read_multichannel(path: str) -> list[np.ndarray]:
    """Blank-line-separated blocks as per-channel sample arrays."""
    blocks = _parse_blocks(path)
    if not blocks:
        raise EmptyInput(path)
    return blocks


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_table(stream, config: dict, rows: list[dict], fmt: str) -> None:
    if fmt == "jsonl":
        stream.write(json.dumps({"config": config}) + "\n")
        for row in rows:
            stream.write(json.dumps(row) + "\n")
        return
    for key in sorted(config):
        stream.write(f"# {key}={_fmt(config[key])}\n")
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) if c in row else "" for c in columns])


def _coerce(token: str):
    if token == "":
        return None
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def read_table(text: str, fmt: str = "csv") -> tuple[dict, list[dict]]:
    """Parse output produced by ``write_table`` back into config and rows."""
    if fmt == "jsonl":
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        return lines[0]["config"], lines[1:]
    config: dict = {}
    body: list[str] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = _coerce(value)
        elif line.strip():
            body.append(line)
    reader = csv.reader(io.StringIO("\n".join(body)))
    parsed = list(reader)
    header, data = parsed[0], parsed[1:]
    return config, [
        {key: _coerce(val) for key, val in zip(header, row)} for row in data
    ]


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    # the shared flags are accepted both before and after the subcommand;
    # SUPPRESS defaults keep whichever position actually provided a value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"RNG seed (default: ${ENV_SEED} or {DEFAULT_SEED})")
    common.add_argument("--format", choices=("csv", "jsonl"), default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="spikeot",
        parents=[common],
        description="1D Wasserstein distances, Poisson spike-train simulation, "
        "closed-form expected distances, and Monte-Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_w1 = sub.add_parser("w1", help="W1 distance between two sample files",
                          parents=[common])
    p_w1.add_argument("file_a")
    p_w1.add_argument("file_b")
    p_w1.add_argument("--plan", action="store_true", help="also emit transport-plan triples")
    p_w1.add_argument("--composite", action="store_true",
                      help="treat files as blank-line-separated channels and emit "
                      "the composite multi-channel distance")

    p_cf = sub.add_parser("closed-form", help="closed-form gap moments",
                          parents=[common])
    p_cf.add_argument("rate1", type=float)
    p_cf.add_argument("rate2", type=float)
    p_cf.add_argument("k", type=int)
    p_cf.add_argument("l", type=int)
    p_cf.add_argument("--shift", type=float, default=None)

    p_exp = sub.add_parser("experiment", help="reproduce a named experiment table",
                           parents=[common])
    p_exp.add_argument("name", choices=tuple(_EXPERIMENTS))
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--rate1", type=float, default=0.3)
    p_exp.add_argument("--rate2", type=float, default=0.8)
    p_exp.add_argument("--k-max", type=int, default=100)
    p_exp.add_argument("--n-samples", type=int, default=20)
    p_exp.add_argument("--grid-min", type=float, default=1.0)
    p_exp.add_argument("--grid-max", type=float, default=5.0)
    p_exp.add_argument("--grid-step", type=float, default=0.25)
    p_exp.add_argument("--ratios", type=_float_list,
                       default=[math.exp(-2), math.exp(-1), 1.0, math.e, math.exp(2)])
    p_exp.add_argument("--shifts", type=_float_list, default=None)
    p_exp.add_argument("--base-rate", type=float, default=100.0)
    p_exp.add_argument("--bins", type=int, default=10)
    p_exp.add_argument("--directions", type=int, default=10000)
    p_exp.add_argument("--cloud-size", type=int, default=256)
    p_exp.add_argument("--threshold", type=float, default=validation.DEFAULT_Z_THRESHOLD)

    p_feat = sub.add_parser("features", help="feature rows for sample files",
                            parents=[common])
    p_feat.add_argument("inputs", nargs="+")
    p_feat.add_argument("--kind", choices=("sd", "js", "hausdorff"), required=True)
    p_feat.add_argument("--ref", action="append", required=True,
                        help="reference sample file (repeatable for kind=sd)")
    p_feat.add_argument("--bands", type=int, default=10)
    p_feat.add_argument("--bins", type=int, default=10)
    p_feat.add_argument("--log1p", action="store_true")
    return parser


def _cmd_w1(args, seed) -> tuple[dict, list[dict]]:
    config = {"command": "w1", "file_a": args.file_a, "file_b": args.file_b,
              "plan": int(args.plan), "composite": int(args.composite), "seed": seed.seed}
    if args.composite:
        chans_a = [SortedSamples(b) for b in read_multichannel(args.file_a)]
        chans_b = [SortedSamples(b) for b in read_multichannel(args.file_b)]
        value = composite_wasserstein(MultiChannelTrain(tuple(chans_a)),
                                      MultiChannelTrain(tuple(chans_b)))
        return config, [{"kind": "composite_distance", "value": value,
                         "channels": len(chans_a)}]
    a = make_uniform_empirical(read_samples(args.file_a))
    b = make_uniform_empirical(read_samples(args.file_b))
    rows = [{"kind": "distance", "value": w1_general(a, b)}]
    if args.plan:
        for i, j, mass in northwest_corner_plan(a, b).entries():
            rows.append({"kind": "plan_entry", "source": i, "target": j, "mass": mass})
    return config, rows


def _cmd_closed_form(args, seed) -> tuple[dict, list[dict]]:
    config = {"command": "closed-form", "rate1": args.rate1, "rate2": args.rate2,
              "k": args.k, "l": args.l, "shift": args.shift if args.shift is not None else 0.0,
              "seed": seed.seed}
    if args.shift is None:
        moment = closed_form.expected_distance(args.rate1, args.rate2, args.k, args.l)
    else:
        moment = closed_form.shifted_expected_distance(
            args.rate1, args.rate2, args.k, args.l, args.shift
        )
    return config, [{"mean": moment.mean, "variance": moment.variance, "std": moment.std}]


# the one default per experiment; `--trials` and `--shifts` override them
_DEFAULT_TRIALS = {"fig2": 2000, "fig3": 1000, "figB1": 20000, "shift": 20000}
_DEFAULT_SHIFTS = {"fig3": [s / 2.0 for s in range(-4, 5)],
                   "shift": [float(s) for s in range(-10, 11)]}


def _moment_row(key, cmp, threshold, **extra) -> dict:
    """A closed-vs-MC moment row; it passes when both mean and std do."""
    return {
        key: cmp.params[key],
        "closed_mean": cmp.closed_mean, "closed_std": cmp.closed_std,
        "mc_mean": cmp.mc_mean, "mc_std": cmp.mc_std,
        "se_mean": cmp.se_mean, "se_std": cmp.se_std,
        "z_mean": cmp.z_mean, "z_std": cmp.z_std,
        **extra,
        "passed": int(abs(cmp.z_mean) <= threshold and abs(cmp.z_std) <= threshold),
    }


def _experiment_figb1(args, seed) -> tuple[dict, list[dict]]:
    settings = dict(rate1=args.rate1, rate2=args.rate2, k_max=args.k_max, trials=args.trials)
    comparisons = validation.expected_distance_comparisons(
        args.rate1, args.rate2, args.k_max, args.trials, seed
    )
    limit = (closed_form.limiting_normalized_distance(args.rate1, args.rate2)[0]
             if args.rate1 != args.rate2 else 0.0)
    return settings, [
        _moment_row("k", cmp, args.threshold,
                    normalized_mean=cmp.mc_mean / cmp.params["k"], limit=limit)
        for cmp in comparisons
    ]


def _experiment_shift(args, seed) -> tuple[dict, list[dict]]:
    settings = dict(rate1=args.rate1, rate2=args.rate2, trials=args.trials,
                    shifts=",".join(_fmt(s) for s in args.shifts))
    comparisons = validation.shift_comparisons(
        args.rate1, args.rate2, args.shifts, args.trials, seed
    )
    return settings, [_moment_row("shift", cmp, args.threshold) for cmp in comparisons]


def _experiment_fig2(args, seed) -> tuple[dict, list[dict]]:
    settings = dict(grid_min=args.grid_min, grid_max=args.grid_max, grid_step=args.grid_step,
                    n_samples=args.n_samples, trials=args.trials)
    span = args.grid_max - args.grid_min
    if not (args.grid_step > 0.0 and 0.0 <= span < math.inf):
        raise DomainError("fig2 needs grid_step > 0 and a finite grid_max >= grid_min")
    steps = int(round(span / args.grid_step))
    rates = [args.grid_min + i * args.grid_step for i in range(steps + 1)]
    surface = validation.validate_wasserstein_surface(
        rates, args.n_samples, args.trials, seed, threshold=args.threshold
    )
    grid = [(r1, r2) for r1 in rates for r2 in rates]
    rows = [
        {"kind": "cell", "rate1": r1, "rate2": r2,
         "closed": c.closed_value, "mc_mean": c.estimate.mean,
         "std_error": c.estimate.std_error, "z": c.z_score, "passed": int(c.passed)}
        for (r1, r2), c in zip(grid, surface.cells)
    ]
    rows += [
        {"kind": "harmonic_slice", "harmonic_mean": s.harmonic_mean,
         "argmin_index": s.argmin_index, "center_index": s.center_index,
         "passed": int(s.passed)}
        for s in surface.slice_checks
    ]
    return settings, rows


def _experiment_fig3(args, seed) -> tuple[dict, list[dict]]:
    settings = dict(base_rate=args.base_rate, bins=args.bins, trials=args.trials,
                    ratios=",".join(_fmt(r) for r in args.ratios),
                    shifts=",".join(_fmt(s) for s in args.shifts))
    rows = validation.run_fig3_experiment(
        args.ratios, args.shifts, args.trials, seed, base_rate=args.base_rate, bins=args.bins,
    )
    return settings, [asdict(r) for r in rows]


def _experiment_sliced(args, seed) -> tuple[dict, list[dict]]:
    settings = dict(directions=args.directions, cloud_size=args.cloud_size)
    cloud = PointCloud(seed.generator(0).standard_normal((args.cloud_size, 2)))
    shifted = cloud.translate([1.0, 0.0])
    estimate = sliced_w1(cloud, shifted, args.directions, seed)
    return settings, [{
        "directions": estimate.trials,
        "estimate": estimate.mean,
        "std_error": estimate.std_error,
        "analytic": 2.0 / math.pi,
    }]


_EXPERIMENTS = {
    "fig2": _experiment_fig2,
    "fig3": _experiment_fig3,
    "figB1": _experiment_figb1,
    "shift": _experiment_shift,
    "sliced-demo": _experiment_sliced,
}


def _cmd_experiment(args, seed) -> tuple[dict, list[dict]]:
    if args.trials is None:
        args.trials = _DEFAULT_TRIALS.get(args.name)
    if args.shifts is None:
        args.shifts = _DEFAULT_SHIFTS.get(args.name)
    settings, rows = _EXPERIMENTS[args.name](args, seed)
    config = {"command": f"experiment:{args.name}", "seed": seed.seed,
              "threshold": args.threshold, **settings}
    return config, rows


def _cmd_features(args, seed) -> tuple[dict, list[dict]]:
    config = {"command": f"features:{args.kind}", "bands": args.bands,
              "bins": args.bins, "log1p": int(args.log1p),
              "refs": ",".join(args.ref), "seed": seed.seed}
    refs = [(path, read_samples(path)) for path in args.ref]
    rows = []
    for input_path in args.inputs:
        data = read_samples(input_path)
        for ref_path, ref_data in refs:
            row = {"input": input_path, "ref": ref_path}
            if args.kind == "sd":
                fv = transport_cost_features(
                    make_uniform_empirical(data), make_uniform_empirical(ref_data),
                    bands=args.bands, log1p=args.log1p,
                )
                row.update({f"c{i + 1}": float(v) for i, v in enumerate(fv.values)})
            elif args.kind == "js":
                fv = js_bin_features(SortedSamples(data), SortedSamples(ref_data),
                                     bins=args.bins, log1p=args.log1p)
                row.update({f"v{i + 1}": float(v) for i, v in enumerate(fv.values)})
            else:
                fv = hausdorff_features(SortedSamples(data), SortedSamples(ref_data),
                                        log1p=args.log1p)
                row.update({"h_xy": float(fv.values[0]), "h_yx": float(fv.values[1])})
            rows.append(row)
    return config, rows


def _resolve_seed(args) -> SpikeSeed:
    value = getattr(args, "seed", None)
    if value is None:
        text = os.environ.get(ENV_SEED, str(DEFAULT_SEED))
        try:
            value = int(text)
        except ValueError:
            raise DomainError(f"${ENV_SEED} must be an integer, got {text!r}") from None
    return SpikeSeed(value)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_format = getattr(args, "format", "csv")
    out_path = getattr(args, "output", None)

    try:
        seed = _resolve_seed(args)
        if args.command == "w1":
            config, rows = _cmd_w1(args, seed)
        elif args.command == "closed-form":
            config, rows = _cmd_closed_form(args, seed)
        elif args.command == "experiment":
            config, rows = _cmd_experiment(args, seed)
        else:
            config, rows = _cmd_features(args, seed)
    except (EmptyInput, EmptyTrain) as exc:
        print(f"spikeot: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvalidMeasure as exc:
        print(f"spikeot: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SpikeOTError as exc:
        print(f"spikeot: {exc}", file=sys.stderr)
        return EXIT_USAGE

    config["format"] = out_format
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            write_table(fh, config, rows, out_format)
    else:
        write_table(sys.stdout, config, rows, out_format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
