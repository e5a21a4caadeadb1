"""Monte-Carlo cross-validation of every closed-form quantity.

Each validator simulates the relevant order statistics, compares sample
moments against the analytic values, and emits z-scored reports.  The default
acceptance threshold is |z| <= 4: hundreds of simultaneous comparisons need a
multiplicity-aware bar, and under a correct closed form only ~0.006% of
reports exceed it by chance.

Random streams are derived hierarchically from one SpikeSeed: every grid
cell and every process gets its own substream, and draws are laid out
trial-major, so results are bit-identical across runs, and extending the
trial count never perturbs earlier trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ClosedFormMoment,
    expected_distance,
    expected_wasserstein,
    limiting_normalized_distance,
    shifted_expected_distance,
)
from .dissimilarity import binned_js_divergence, directed_hausdorff
from .errors import DomainError
from .measures import make_uniform_empirical
from .poisson import MCEstimate, SpikeSeed
from .transport import w1_general

__all__ = [
    "ValidationReport",
    "MomentComparison",
    "HarmonicSliceCheck",
    "SurfaceValidation",
    "Fig3Row",
    "DEFAULT_Z_THRESHOLD",
    "expected_distance_comparisons",
    "validate_expected_distance",
    "shift_comparisons",
    "validate_shift",
    "validate_wasserstein_surface",
    "run_fig3_experiment",
]

DEFAULT_Z_THRESHOLD = 4.0


@dataclass(frozen=True)
class ValidationReport:
    """One closed-form-vs-simulation comparison with its z-score verdict."""

    quantity: str
    closed_value: float
    estimate: MCEstimate
    z_score: float
    threshold: float
    passed: bool


def _z_score(value, target, se) -> float:
    if se > 0.0:
        return (value - target) / se
    return 0.0 if value == target else math.inf


def _report(quantity, closed_value, value, se, trials, seed, threshold) -> ValidationReport:
    z = _z_score(value, closed_value, se)
    return ValidationReport(
        quantity=quantity,
        closed_value=float(closed_value),
        estimate=MCEstimate(mean=float(value), std_error=float(se), trials=trials, seed=seed),
        z_score=float(z),
        threshold=threshold,
        passed=bool(abs(z) <= threshold),
    )


@dataclass(frozen=True)
class MomentComparison:
    """Sample mean/std of one simulated quantity against its closed form."""

    label: str
    params: dict
    closed_mean: float
    closed_std: float
    mc_mean: float
    mc_std: float
    se_mean: float
    se_std: float
    z_mean: float
    z_std: float
    trials: int

    def reports(self, seed: SpikeSeed, threshold: float) -> list[ValidationReport]:
        return [
            _report(f"{self.label}.mean", self.closed_mean, self.mc_mean,
                    self.se_mean, self.trials, seed, threshold),
            _report(f"{self.label}.std", self.closed_std, self.mc_std,
                    self.se_std, self.trials, seed, threshold),
        ]


def _compare_moments(label, params, samples, moment: ClosedFormMoment) -> MomentComparison:
    n = samples.size
    mc_mean = float(samples.mean())
    centered = samples - mc_mean
    m2 = float(np.mean(centered * centered))
    m4 = float(np.mean(centered**4))
    mc_std = math.sqrt(m2 * n / (n - 1))
    se_mean = mc_std / math.sqrt(n)
    # asymptotic SE of the sample std via the fourth central moment
    var_s2 = max(m4 - m2 * m2, 0.0) / n
    se_std = math.sqrt(var_s2) / (2.0 * mc_std) if mc_std > 0.0 else 0.0
    return MomentComparison(
        label=label, params=dict(params),
        closed_mean=moment.mean, closed_std=moment.std,
        mc_mean=mc_mean, mc_std=mc_std,
        se_mean=se_mean, se_std=se_std,
        z_mean=_z_score(mc_mean, moment.mean, se_mean),
        z_std=_z_score(mc_std, moment.std, se_std),
        trials=n,
    )


def _check_trials(trials: int) -> int:
    if int(trials) != trials or trials < 100:
        raise DomainError("need an integer trial count >= 100")
    return int(trials)


def expected_distance_comparisons(
    rate1: float, rate2: float, k_max: int, trials: int, seed: SpikeSeed
) -> list[MomentComparison]:
    """Simulate |x_k - y_k| for all k <= k_max on common process paths."""
    trials = _check_trials(trials)
    if int(k_max) != k_max or k_max < 1:
        raise DomainError("k_max must be an integer >= 1")
    k_max = int(k_max)
    x = np.cumsum(seed.generator(0).standard_exponential((trials, k_max)), axis=1) / rate1
    y = np.cumsum(seed.generator(1).standard_exponential((trials, k_max)), axis=1) / rate2
    gaps = np.abs(x - y)
    return [
        _compare_moments(
            f"order_gap[k={k}]",
            {"k": k, "rate1": rate1, "rate2": rate2},
            gaps[:, k - 1],
            expected_distance(rate1, rate2, k, k),
        )
        for k in range(1, k_max + 1)
    ]


def validate_expected_distance(
    rate1: float,
    rate2: float,
    k_max: int,
    trials: int,
    seed: SpikeSeed,
    threshold: float = DEFAULT_Z_THRESHOLD,
) -> list[ValidationReport]:
    """z-score the MC mean and std of |x_k - y_k| against the closed forms.

    Appends one report comparing the normalized gap |x_k - y_k| / k at
    k = k_max with its large-k limit |1/rate1 - 1/rate2| (meaningful once
    k_max is large; at small k_max the finite-k bias dominates).
    """
    comparisons = expected_distance_comparisons(rate1, rate2, k_max, trials, seed)
    reports = [r for cmp in comparisons for r in cmp.reports(seed, threshold)]
    if rate1 != rate2:
        limit, _ = limiting_normalized_distance(rate1, rate2)
        last = comparisons[-1]
        reports.append(
            _report(
                f"normalized_gap_limit[k={k_max}]",
                limit,
                last.mc_mean / k_max,
                last.se_mean / k_max,
                last.trials,
                seed,
                threshold,
            )
        )
    return reports


def shift_comparisons(
    rate1: float, rate2: float, shifts, trials: int, seed: SpikeSeed
) -> list[MomentComparison]:
    """Simulate |x_1 + shift - y_1| on an independent substream per shift."""
    trials = _check_trials(trials)
    out = []
    for idx, shift in enumerate(shifts):
        shift = float(shift)
        x = seed.generator(0, idx).standard_exponential(trials) / rate1
        y = seed.generator(1, idx).standard_exponential(trials) / rate2
        out.append(
            _compare_moments(
                f"shifted_gap[shift={shift:g}]",
                {"shift": shift, "rate1": rate1, "rate2": rate2},
                np.abs(x + shift - y),
                shifted_expected_distance(rate1, rate2, 1, 1, shift),
            )
        )
    return out


def validate_shift(
    rate1: float,
    rate2: float,
    shifts,
    trials: int,
    seed: SpikeSeed,
    threshold: float = DEFAULT_Z_THRESHOLD,
) -> list[ValidationReport]:
    """z-score MC mean/std of the shifted first-arrival gap on a shift grid."""
    return [
        r
        for cmp in shift_comparisons(rate1, rate2, shifts, trials, seed)
        for r in cmp.reports(seed, threshold)
    ]


@dataclass(frozen=True)
class HarmonicSliceCheck:
    """Closed-form argmin scan along one constant-harmonic-mean curve."""

    harmonic_mean: float
    argmin_index: int
    center_index: int
    passed: bool


@dataclass(frozen=True)
class SurfaceValidation:
    """Surface cells in row-major (rate1, rate2) grid order, plus slice checks."""

    cells: list[ValidationReport]
    slice_checks: list[HarmonicSliceCheck]
    threshold: float
    trials: int
    seed: SpikeSeed

    @property
    def pass_fraction(self) -> float:
        return sum(c.passed for c in self.cells) / len(self.cells)

    @property
    def all_slices_pass(self) -> bool:
        return all(s.passed for s in self.slice_checks)


def _surface_cell(rate1, rate2, n_samples, trials, seed, cell_index, threshold):
    x = np.cumsum(seed.generator(cell_index, 0).standard_exponential((trials, n_samples)), axis=1) / rate1
    y = np.cumsum(seed.generator(cell_index, 1).standard_exponential((trials, n_samples)), axis=1) / rate2
    w = np.abs(x - y).mean(axis=1)
    return _report(
        f"expected_wasserstein[rate1={rate1:g},rate2={rate2:g}]",
        expected_wasserstein(rate1, rate2, n_samples),
        float(w.mean()),
        float(w.std(ddof=1)) / math.sqrt(trials),
        trials,
        seed,
        threshold,
    )


def harmonic_slice_check(
    harmonic_mean: float, n_samples: int, points: int = 101, half_width: float = 0.5
) -> HarmonicSliceCheck:
    """Scan E[W] along 2*r1*r2/(r1+r2) = const and locate its grid argmin.

    The curve is parametrized log-symmetrically around the diagonal point
    r1 = r2 = harmonic_mean, which sits at the center index; the claim under
    test is that the argmin lands exactly there.
    """
    if points % 2 == 0:
        raise DomainError("use an odd point count so the diagonal is on the grid")
    c = float(harmonic_mean)
    t = c * np.exp(np.linspace(-half_width, half_width, points))
    partner = c * t / (2.0 * t - c)
    values = [expected_wasserstein(t_i, p_i, n_samples) for t_i, p_i in zip(t, partner)]
    argmin = int(np.argmin(values))
    center = points // 2
    return HarmonicSliceCheck(
        harmonic_mean=c, argmin_index=argmin, center_index=center,
        passed=argmin == center,
    )


def validate_wasserstein_surface(
    rates,
    n_samples: int,
    trials: int,
    seed: SpikeSeed,
    threshold: float = DEFAULT_Z_THRESHOLD,
) -> SurfaceValidation:
    """MC-vs-closed-form E[W] over a rate grid, plus harmonic-slice argmin checks."""
    trials = _check_trials(trials)
    if int(n_samples) != n_samples or n_samples < 1:
        raise DomainError("sample count must be an integer >= 1")
    rates = [float(r) for r in rates]
    n_samples = int(n_samples)
    grid = [(r1, r2) for r1 in rates for r2 in rates]
    cells = [
        _surface_cell(r1, r2, n_samples, trials, seed, idx, threshold)
        for idx, (r1, r2) in enumerate(grid)
    ]
    slices = [harmonic_slice_check(c, n_samples) for c in rates]
    return SurfaceValidation(
        cells=cells, slice_checks=slices, threshold=threshold, trials=trials, seed=seed
    )


@dataclass(frozen=True)
class Fig3Row:
    """Averaged dissimilarities for one (rate ratio, shift) generator cell."""

    rate_ratio: float
    shift: float
    mean_w1: float
    mean_hausdorff: float
    mean_js_total: float
    mean_order_gap: float
    trials: int
    used_trials: int
    order_gap_trials: int
    skipped_order: int
    skipped_empty: int


def _two_segment_cell(rate_ratio, shift, trials, seed, cell_index, base_rate, bins, order_stat):
    r = float(rate_ratio)
    knee = 1.0 / (r + 1.0)
    mass1 = r * base_rate * knee
    mass2 = (base_rate / r) * (1.0 - knee)

    counts_x = seed.generator(cell_index, 0).poisson(base_rate, size=trials)
    unis_x = seed.generator(cell_index, 1).random(int(counts_x.sum()))
    counts_y = seed.generator(cell_index, 2).poisson(
        lam=np.broadcast_to([mass1, mass2], (trials, 2))
    )
    unis_y = seed.generator(cell_index, 3).random(int(counts_y.sum()))

    x_off = np.concatenate(([0], np.cumsum(counts_x)))
    y_off = np.concatenate(([0], np.cumsum(counts_y.sum(axis=1))))

    w1s, hausdorffs, js_totals, order_gaps = [], [], [], []
    skipped_order = skipped_empty = 0
    for t in range(trials):
        xs = np.sort(unis_x[x_off[t]:x_off[t + 1]])
        raw = unis_y[y_off[t]:y_off[t + 1]]
        n1 = counts_y[t, 0]
        ys = np.sort(
            np.concatenate((raw[:n1] * knee, knee + raw[n1:] * (1.0 - knee)))
        ) + shift
        if xs.size == 0 or ys.size == 0:
            skipped_empty += 1
            continue
        mx = make_uniform_empirical(xs)
        my = make_uniform_empirical(ys)
        sx = mx.samples
        sy = my.samples
        w1s.append(w1_general(mx, my))
        hausdorffs.append(max(directed_hausdorff(sx, sy), directed_hausdorff(sy, sx)))
        js_totals.append(binned_js_divergence(sx, sy, bins)[0])
        if xs.size >= order_stat and ys.size >= order_stat:
            order_gaps.append(abs(xs[order_stat - 1] - ys[order_stat - 1]))
        else:
            skipped_order += 1

    return Fig3Row(
        rate_ratio=r,
        shift=float(shift),
        mean_w1=float(np.mean(w1s)) if w1s else math.nan,
        mean_hausdorff=float(np.mean(hausdorffs)) if hausdorffs else math.nan,
        mean_js_total=float(np.mean(js_totals)) if js_totals else math.nan,
        mean_order_gap=float(np.mean(order_gaps)) if order_gaps else math.nan,
        trials=trials,
        used_trials=len(w1s),
        order_gap_trials=len(order_gaps),
        skipped_order=skipped_order,
        skipped_empty=skipped_empty,
    )


def run_fig3_experiment(
    rate_ratios,
    shifts,
    trials: int,
    seed: SpikeSeed,
    base_rate: float = 100.0,
    bins: int = 10,
    order_stat: int = 50,
) -> list[Fig3Row]:
    """Average W1 / Hausdorff / JS / order-statistic gap over a generator grid.

    The baseline process is homogeneous with ``base_rate`` on [0, 1].  The
    comparison process concentrates rate r*base_rate on the first 1/(r+1) of
    a unit interval and base_rate/r on the rest (expected count equals
    base_rate for every r), then shifts rigidly.  Trials where either train
    is empty are skipped and counted; the order-statistic gap additionally
    requires ``order_stat`` events on both sides, with its own skip count.
    """
    if int(trials) != trials or trials < 1:
        raise DomainError("need an integer trial count >= 1")
    if not (base_rate > 0.0) or int(order_stat) != order_stat or order_stat < 1:
        raise DomainError("base_rate must be positive and order_stat an integer >= 1")
    trials = int(trials)
    cells = [(float(r), float(dt)) for r in rate_ratios for dt in shifts]
    if not all(0.0 < r < math.inf for r, _ in cells):
        raise DomainError("rate ratios must be positive and finite")
    return [
        _two_segment_cell(r, dt, trials, seed, idx, float(base_rate), int(bins), int(order_stat))
        for idx, (r, dt) in enumerate(cells)
    ]
