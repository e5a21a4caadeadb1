"""Monte-Carlo cross-validation of every closed-form quantity.

Each validator simulates the relevant order statistics, compares sample
moments against the analytic values, and z-scores each comparison.  The default
acceptance threshold is |z| <= 4: hundreds of simultaneous comparisons need a
multiplicity-aware bar, and under a correct closed form only ~0.006% of
reports exceed it by chance.

Random streams are derived hierarchically from one SpikeSeed: every grid
cell and every process gets its own substream, and draws are laid out
trial-major, so results are bit-identical across runs, and extending the
trial count never perturbs earlier trials.

fig3 computes a cell's trials in blocks, each train a row of an array padded
with +inf; its row kernels match the per-trial functions bit for bit except
W1, which sums in another order (1e-12 relative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ClosedFormMoment,
    _check_rates_orders,
    _gap_mean,
    _gap_moments,
    shifted_expected_distance,
)
from .dissimilarity import _hausdorff_rows, _js_rows
from .errors import DomainError
from .measures import _merge_rows
from .poisson import MCEstimate, SpikeSeed
from .transport import _w1_rows

__all__ = [
    "ValidationReport",
    "MomentComparison",
    "HarmonicSliceCheck",
    "SurfaceValidation",
    "Fig3Row",
    "DEFAULT_Z_THRESHOLD",
    "expected_distance_comparisons",
    "shift_comparisons",
    "validate_wasserstein_surface",
    "run_fig3_experiment",
]

DEFAULT_Z_THRESHOLD = 4.0
# numpy's Poisson sampler refuses larger means
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_MAX_DRAWS = 10**8  # per trials x size array (0.8 GB of float64), checked before drawing


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


def _compare_moments(label, params, samples, moment: ClosedFormMoment) -> MomentComparison:
    n = samples.size
    mc_mean = float(samples.mean())
    centered = samples - mc_mean
    c2 = centered * centered
    m2 = float(np.mean(c2))
    m4 = float(np.mean(c2 * c2))
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


def _check_trials(trials: int, size: int = 1) -> int:
    if int(trials) != trials or trials < 100:
        raise DomainError("need an integer trial count >= 100")
    if int(trials) * size > _MAX_DRAWS:
        raise DomainError(f"{int(trials)} trials x {size} draws exceed the cap of {_MAX_DRAWS:.0e}")
    return int(trials)


def expected_distance_comparisons(
    rate1: float, rate2: float, k_max: int, trials: int, seed: SpikeSeed
) -> list[MomentComparison]:
    """Simulate |x_k - y_k| for all k <= k_max on common process paths."""
    if int(k_max) != k_max or k_max < 1:
        raise DomainError("k_max must be an integer >= 1")
    k_max = int(k_max)
    trials = _check_trials(trials, k_max)
    _check_rates_orders(rate1, rate2, k_max, k_max)
    orders = np.arange(1, k_max + 1)
    means, variances = _gap_moments(float(rate1), float(rate2), orders, orders)
    x = np.cumsum(seed.generator(0).standard_exponential((trials, k_max)), axis=1) / rate1
    y = np.cumsum(seed.generator(1).standard_exponential((trials, k_max)), axis=1) / rate2
    gaps = np.abs(x - y)
    return [
        _compare_moments(
            f"order_gap[k={k}]",
            {"k": k, "rate1": rate1, "rate2": rate2},
            gaps[:, k - 1],
            ClosedFormMoment(float(means[k - 1]), float(variances[k - 1])),
        )
        for k in range(1, k_max + 1)
    ]


def shift_comparisons(
    rate1: float, rate2: float, shifts, trials: int, seed: SpikeSeed
) -> list[MomentComparison]:
    """Simulate |x_1 + shift - y_1| on an independent substream per shift."""
    trials = _check_trials(trials)
    shifts = [float(s) for s in shifts]
    if not shifts:
        raise DomainError("need at least one shift")
    # the closed forms check the rates and shifts before anything is drawn
    moments = [shifted_expected_distance(rate1, rate2, 1, 1, shift) for shift in shifts]
    out = []
    for idx, (shift, moment) in enumerate(zip(shifts, moments)):
        x = seed.generator(0, idx).standard_exponential(trials) / rate1
        y = seed.generator(1, idx).standard_exponential(trials) / rate2
        out.append(
            _compare_moments(
                f"shifted_gap[shift={shift:g}]",
                {"shift": shift, "rate1": rate1, "rate2": rate2},
                np.abs(x + shift - y),
                moment,
            )
        )
    return out


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


def _wasserstein_sums(rate1, rate2, n_samples):
    """N E[W] per pair of rate arrays: one gap-mean call per block of at most 2^16 gaps."""
    k = np.arange(1, n_samples + 1)
    step = max(1, (1 << 16) // n_samples)
    return np.array([math.fsum(row) for i in range(0, rate1.size, step)
                     for row in _gap_mean(rate1[i:i + step, None], rate2[i:i + step, None], k, k)])


def _surface_cell(rate1, rate2, closed, n_samples, trials, seed, cell_index, threshold):
    x = np.cumsum(seed.generator(cell_index, 0).standard_exponential((trials, n_samples)), axis=1) / rate1
    y = np.cumsum(seed.generator(cell_index, 1).standard_exponential((trials, n_samples)), axis=1) / rate2
    w = np.abs(x - y).mean(axis=1)
    return _report(
        f"expected_wasserstein[rate1={rate1:g},rate2={rate2:g}]",
        closed,
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
    _check_rates_orders(float(t.min()), float(partner.min()), n_samples, 1)
    argmin = int(np.argmin(_wasserstein_sums(t, partner, int(n_samples))))
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
    if int(n_samples) != n_samples or n_samples < 1:
        raise DomainError("sample count must be an integer >= 1")
    trials = _check_trials(trials, int(n_samples))
    rates = [float(r) for r in rates]
    if not all(0.0 < r < math.inf for r in rates):
        raise DomainError("rates must be positive and finite")
    n_samples = int(n_samples)
    grid = [(r1, r2) for r1 in rates for r2 in rates]
    closed = (_wasserstein_sums(*np.array(grid).reshape(-1, 2).T, n_samples) / n_samples).tolist()
    cells = [
        _surface_cell(r1, r2, closed[idx], n_samples, trials, seed, idx, threshold)
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


def _pad_rows(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row t holds the next counts[t] values of ``flat``; rows are padded with +inf."""
    cols = np.arange(counts.max(initial=1))
    rows = np.full((counts.size, cols.size), np.inf)
    rows[cols < counts[:, None]] = flat
    return rows


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else math.nan


# array elements, rows x (bins + both trains' longest), per block of a fig3
# cell's trials (one trial at least): a block stays in cache and in the heap;
# whole-cell arrays are handed back to the OS and faulted in again every cell
_BLOCK = 1 << 13


def _trial_rows(flat_x, nx, flat_y, counts_y, knee, shift, bins, k):
    """W1, Hausdorff, JS and order gaps of consecutive trials, skipping empty trains."""
    ny = counts_y.sum(axis=1)
    cols = np.arange(ny.max())
    # a trial's first counts_y[t, 0] uniforms land on [0, knee], the rest on [knee, 1]
    low = (cols < counts_y[:, :1])[cols < ny[:, None]]
    flat_y = np.where(low, flat_y * knee, knee + flat_y * (1.0 - knee))
    used = (nx > 0) & (ny > 0)
    xs = np.sort(_pad_rows(flat_x, nx)[used], axis=1)
    ys = np.sort(_pad_rows(flat_y, ny)[used], axis=1) + shift
    nx, ny = nx[used], ny[used]
    z, from_y = _merge_rows(xs, ys)
    ordered = (nx >= k) & (ny >= k)
    gaps = np.abs(xs[ordered, k - 1] - ys[ordered, k - 1]) if ordered.any() else np.empty(0)
    return (_w1_rows(z, from_y, nx, ny), _hausdorff_rows(z, from_y),
            _js_rows(xs, ys, nx, ny, bins), gaps)


def _two_segment_cell(rate_ratio, shift, trials, seed, cell_index, base_rate, bins, order_stat):
    r = float(rate_ratio)
    knee = 1.0 / (r + 1.0)
    mass1 = r * base_rate * knee
    mass2 = (base_rate / r) * (1.0 - knee)

    nx = seed.generator(cell_index, 0).poisson(base_rate, size=trials)
    counts_y = seed.generator(cell_index, 2).poisson(
        lam=np.broadcast_to([mass1, mass2], (trials, 2))
    )
    try:
        unis_x = seed.generator(cell_index, 1).random(int(nx.sum()))
        unis_y = seed.generator(cell_index, 3).random(int(counts_y.sum()))
    except MemoryError:
        raise DomainError(f"base rate {base_rate:g} needs more spikes than memory holds") from None

    ny = counts_y.sum(axis=1)
    x_off, y_off = (np.concatenate(([0], np.cumsum(n))) for n in (nx, ny))
    step = max(1, _BLOCK // (bins + int(nx.max()) + int(ny.max())))
    blocks = []
    for i in range(0, trials, step):
        j = min(i + step, trials)
        blocks.append(_trial_rows(unis_x[x_off[i]:x_off[j]], nx[i:j], unis_y[y_off[i]:y_off[j]],
                                  counts_y[i:j], knee, shift, bins, order_stat))
    w1, hausdorff, js, gaps = (np.concatenate(v) for v in zip(*blocks))
    return Fig3Row(
        rate_ratio=r,
        shift=float(shift),
        mean_w1=_mean(w1),
        mean_hausdorff=_mean(hausdorff),
        mean_js_total=_mean(js),
        mean_order_gap=_mean(gaps),
        trials=trials,
        used_trials=w1.size,
        order_gap_trials=gaps.size,
        skipped_order=w1.size - gaps.size,
        skipped_empty=trials - w1.size,
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
    A cell's trials are computed in blocks of +inf-padded rows, each block
    at most 8192 array elements or one trial, so memory does not grow with
    the trial count; mean W1 matches the per-trial route to 1e-12 relative,
    the other means bit for bit.
    """
    if any(int(v) != v or v < 1 for v in (trials, bins, order_stat)):
        raise DomainError("trials, bins and order_stat must be integers >= 1")
    trials = int(trials)
    if trials * int(bins) > _MAX_DRAWS:
        raise DomainError(f"{trials} trials x {int(bins)} bins exceed the cap of {_MAX_DRAWS:.0e}")
    cells = [(float(r), float(dt)) for r in rate_ratios for dt in shifts]
    # a cell's Poisson means are at most max(r * base_rate, base_rate / r)
    if not (base_rate > 0.0 and cells and all(r > 0.0 and math.isfinite(dt) and max(
            r * base_rate, base_rate / r) <= _POISSON_LAM_MAX for r, dt in cells)):
        raise DomainError("need base_rate > 0, a ratio, a shift, finite shifts and ratios r > 0 "
                          f"with max(r * base_rate, base_rate / r) <= {_POISSON_LAM_MAX:.4g}")
    return [
        _two_segment_cell(r, dt, trials, seed, idx, float(base_rate), int(bins), int(order_stat))
        for idx, (r, dt) in enumerate(cells)
    ]
