import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeot import validation
from spikeot import (
    DomainError,
    SortedSamples,
    SpikeSeed,
    binned_js_divergence,
    directed_hausdorff,
    expected_distance,
    expected_distance_comparisons,
    make_uniform_empirical,
    run_fig3_experiment,
    shift_comparisons,
    shifted_expected_distance,
    expected_wasserstein,
    validate_expected_distance,
    validate_shift,
    validate_wasserstein_surface,
    w1_general,
)
from spikeot.dissimilarity import _hausdorff_rows, _js_rows
from spikeot.measures import _merge_rows
from spikeot.transport import _w1_rows
from spikeot.validation import harmonic_slice_check


def test_reports_pass_iff_z_within_threshold():
    reports = validate_expected_distance(1.0, 1.0, 2, 500, SpikeSeed(1), threshold=4.0)
    for r in reports:
        assert r.passed == (abs(r.z_score) <= r.threshold)
        assert r.estimate.trials == 500
        assert r.estimate.std_error >= 0.0


def test_expected_distance_validation_unit_case():
    reports = validate_expected_distance(1.0, 1.0, 1, 20_000, SpikeSeed(2))
    mean_report = reports[0]
    assert mean_report.quantity == "order_gap[k=1].mean"
    assert mean_report.closed_value == pytest.approx(1.0)
    assert abs(mean_report.estimate.mean - 1.0) < 4 * mean_report.estimate.std_error
    assert mean_report.passed


def test_std_error_scaling_with_trials():
    small = expected_distance_comparisons(0.5, 1.5, 1, 2_000, SpikeSeed(3))[0]
    big = expected_distance_comparisons(0.5, 1.5, 1, 8_000, SpikeSeed(3))[0]
    ratio = small.se_mean / big.se_mean
    assert 1.6 < ratio < 2.5


def test_comparisons_are_deterministic():
    a = validate_expected_distance(0.3, 0.8, 3, 300, SpikeSeed(4))
    b = validate_expected_distance(0.3, 0.8, 3, 300, SpikeSeed(4))
    assert a == b


def test_extending_trials_preserves_prefix_draws():
    # trial-major layout: the first trials are identical when more are added
    seed = SpikeSeed(5)
    few = seed.generator(0).standard_exponential((100, 4))
    many = seed.generator(0).standard_exponential((250, 4))
    np.testing.assert_array_equal(few, many[:100])


def test_validation_rejects_tiny_trial_counts():
    with pytest.raises(DomainError):
        validate_expected_distance(1.0, 2.0, 3, 50, SpikeSeed(0))
    with pytest.raises(DomainError):
        validate_shift(1.0, 2.0, [0.0], 50, SpikeSeed(0))


def test_shift_zero_column_matches_unshifted_closed_form():
    cmp = shift_comparisons(0.3, 0.8, [0.0], 500, SpikeSeed(6))[0]
    moment = expected_distance(0.3, 0.8, 1, 1)
    assert cmp.closed_mean == moment.mean
    assert cmp.closed_std == moment.std


def test_shift_validation_small_grid():
    reports = validate_shift(0.3, 0.8, [-2.0, 0.0, 2.0], 5_000, SpikeSeed(7))
    assert len(reports) == 6
    assert all(r.passed for r in reports)
    closed = shifted_expected_distance(0.3, 0.8, 1, 1, 2.0)
    assert reports[4].closed_value == pytest.approx(closed.mean)


def test_surface_closed_form_reduction_at_single_sample():
    assert expected_wasserstein(0.7, 1.9, 1) == expected_distance(0.7, 1.9, 1, 1).mean


def test_surface_validation_small_grid():
    surface = validate_wasserstein_surface([1.0, 2.0], 3, 1_000, SpikeSeed(8))
    assert len(surface.cells) == 4
    assert surface.pass_fraction >= 0.75
    diag = [surface.cells[0], surface.cells[3]]  # row-major grid: (1, 1) and (2, 2)
    for cell, rate in zip(diag, [1.0, 2.0]):
        assert cell.closed_value == expected_wasserstein(rate, rate, 3)
        assert cell.estimate.mean > 0.0  # finite-sample bias is real
        assert cell.estimate.trials == 1_000
        assert cell.passed == (abs(cell.z_score) <= cell.threshold)
    assert surface.all_slices_pass


def test_surface_same_seed_is_deterministic():
    first = validate_wasserstein_surface([1.0, 3.0], 2, 500, SpikeSeed(9))
    second = validate_wasserstein_surface([1.0, 3.0], 2, 500, SpikeSeed(9))
    assert first.cells == second.cells


def test_harmonic_slice_check_requires_odd_grid():
    with pytest.raises(DomainError):
        harmonic_slice_check(2.0, 5, points=100)
    check = harmonic_slice_check(2.0, 5, points=41)
    assert check.passed
    assert check.argmin_index == check.center_index == 20


def test_fig3_smoke_and_columns():
    rows = run_fig3_experiment([1.0], [0.0], trials=5, seed=SpikeSeed(10))
    assert len(rows) == 1
    row = rows[0]
    assert row.trials == 5
    assert row.used_trials + row.skipped_empty == 5
    assert row.mean_w1 >= 0.0
    assert row.mean_hausdorff >= 0.0
    assert 0.0 <= row.mean_js_total <= math.log(2.0) + 1e-12


def test_fig3_js_saturates_for_disjoint_supports():
    rows = run_fig3_experiment([1.0], [2.0], trials=100, seed=SpikeSeed(11))
    assert rows[0].mean_js_total == pytest.approx(math.log(2.0), rel=1e-9)


def test_fig3_identical_generators_give_small_values():
    rows = run_fig3_experiment([1.0], [0.0], trials=200, seed=SpikeSeed(12))
    row = rows[0]
    assert row.mean_w1 < 0.1
    assert row.mean_hausdorff < 0.1
    assert row.mean_js_total < 0.2
    assert row.skipped_order < row.trials  # the order statistic almost always exists


def test_fig3_order_gap_matches_closed_form():
    # at ratio 1 both trains are homogeneous rate-100 processes, so the 50th
    # events are Erlang(50, 100) pairs and the gap has a known mean
    rows = run_fig3_experiment([1.0], [0.0], trials=400, seed=SpikeSeed(21))
    row = rows[0]
    moment = expected_distance(100.0, 100.0, 50, 50)
    se = moment.std / math.sqrt(row.order_gap_trials)
    assert abs(row.mean_order_gap - moment.mean) < 4 * se


def test_fig3_order_gap_skip_accounting():
    # base_rate 30 makes 50-spike trains rare: most trials skip the order stat
    rows = run_fig3_experiment(
        [1.0], [0.0], trials=50, seed=SpikeSeed(13), base_rate=30.0, order_stat=50
    )
    row = rows[0]
    assert row.order_gap_trials + row.skipped_order == row.used_trials


def test_fig3_same_seed_is_deterministic():
    kwargs = dict(trials=40, seed=SpikeSeed(14), base_rate=50.0)
    first = run_fig3_experiment([1.0, math.e], [0.0, 1.0], **kwargs)
    second = run_fig3_experiment([1.0, math.e], [0.0, 1.0], **kwargs)
    assert first == second


def test_fig3_validation():
    for ratios, shifts, kwargs in [
        ([1.0], [0.0], dict(trials=0)),
        ([1.0], [0.0], dict(base_rate=-1.0)),
        ([1.0], [0.0], dict(base_rate=math.inf)),
        ([1.0], [0.0], dict(base_rate=1e30)),
        ([1.0], [0.0], dict(bins=0, base_rate=0.01)),
        ([1.0], [math.inf], {}),
        ([1e307], [0.0], {}),
        ([1e-300], [0.0], dict(base_rate=1e10)),
        ([100.0], [0.0], dict(base_rate=1e18)),  # r * base_rate above numpy's Poisson limit
        ([], [0.0], {}),
        ([1.0], [], {}),
    ]:
        with pytest.raises(DomainError):
            run_fig3_experiment(ratios, shifts, seed=SpikeSeed(0), **{"trials": 5, **kwargs})


def _padded(trains):
    rows = np.full((len(trains), max(1, *map(len, trains))), np.inf)
    for row, train in zip(rows, trains):
        row[:len(train)] = np.sort(train)
    return rows, np.array([len(t) for t in trains], dtype=np.int64)


_values = st.one_of(
    st.integers(-4, 4).map(float),  # forces ties within and across trains
    st.floats(-10.0, 10.0, allow_nan=False),
)
_trains = st.lists(_values, max_size=12)


@given(st.lists(st.tuples(_trains, _trains), min_size=1, max_size=6), st.integers(1, 12))
@example([([1.0], [1.0])], 10)  # equal single spikes: a one-point range
@example([([0.0, 1.0], [5.0, 6.0]), ([2.0], [])], 3)  # disjoint supports, an empty train
@settings(max_examples=300, deadline=None)
def test_row_kernels_match_per_trial_functions(pairs, bins):
    # the fig3 engine's layout: +inf-padded sorted rows, trials with an empty
    # train dropped (one such trial is appended to every batch)
    xs, nx = _padded([x for x, _ in pairs] + [[0.0]])
    ys, ny = _padded([y for _, y in pairs] + [[]])
    used = (nx > 0) & (ny > 0)
    xs, ys, nx, ny = xs[used], ys[used], nx[used], ny[used]
    z, from_y = _merge_rows(xs, ys)
    w1 = _w1_rows(z, from_y, nx, ny)
    hausdorff = _hausdorff_rows(z, from_y)
    js = _js_rows(xs, ys, nx, ny, bins)
    kept = [(x, y) for x, y in pairs if x and y]
    assert len(kept) == nx.size
    for t, (x, y) in enumerate(kept):
        sx, sy = SortedSamples(x), SortedSamples(y)
        assert w1[t] == pytest.approx(
            w1_general(make_uniform_empirical(x), make_uniform_empirical(y)), rel=1e-12, abs=0.0)
        assert hausdorff[t] == max(directed_hausdorff(sx, sy), directed_hausdorff(sy, sx))
        assert js[t] == binned_js_divergence(sx, sy, bins)[0]


def _replay_fig3_cell(r, shift, trials, seed, cell, base_rate, bins, order_stat):
    """The per-trial route through the public functions, same draws as the engine."""
    knee = 1.0 / (r + 1.0)
    counts_x = seed.generator(cell, 0).poisson(base_rate, size=trials)
    unis_x = seed.generator(cell, 1).random(int(counts_x.sum()))
    counts_y = seed.generator(cell, 2).poisson(
        lam=np.broadcast_to([r * base_rate * knee, (base_rate / r) * (1.0 - knee)], (trials, 2)))
    unis_y = seed.generator(cell, 3).random(int(counts_y.sum()))
    x_off = np.concatenate(([0], np.cumsum(counts_x)))
    y_off = np.concatenate(([0], np.cumsum(counts_y.sum(axis=1))))
    w1s, hausdorffs, js_totals, gaps = [], [], [], []
    for t in range(trials):
        x = np.sort(unis_x[x_off[t]:x_off[t + 1]])
        raw = unis_y[y_off[t]:y_off[t + 1]]
        n1 = counts_y[t, 0]
        y = np.sort(np.concatenate((raw[:n1] * knee, knee + raw[n1:] * (1.0 - knee)))) + shift
        if x.size == 0 or y.size == 0:
            continue
        sx, sy = SortedSamples(x), SortedSamples(y)
        w1s.append(w1_general(make_uniform_empirical(x), make_uniform_empirical(y)))
        hausdorffs.append(max(directed_hausdorff(sx, sy), directed_hausdorff(sy, sx)))
        js_totals.append(binned_js_divergence(sx, sy, bins)[0])
        if x.size >= order_stat and y.size >= order_stat:
            gaps.append(abs(x[order_stat - 1] - y[order_stat - 1]))
    means = [float(np.mean(v)) if v else math.nan for v in (w1s, hausdorffs, js_totals, gaps)]
    return means, len(w1s), len(gaps)


@pytest.mark.parametrize("base_rate, order_stat, trials, block", [
    (100.0, 50, 60, None), (0.5, 1, 300, None), (0.01, 1, 5, None),
    # one trial per block: blocks of one row, many with an empty train
    (100.0, 50, 60, 1), (0.5, 1, 300, 1),
])
def test_fig3_cells_match_per_trial_replay(base_rate, order_stat, trials, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(validation, "_BLOCK", block)
    seed = SpikeSeed(31)
    ratios, shifts = [1.0, math.exp(2)], [0.0, -1.5]
    rows = run_fig3_experiment(ratios, shifts, trials, seed, base_rate=base_rate, bins=7,
                               order_stat=order_stat)
    cells = [(r, s) for r in ratios for s in shifts]
    for cell, ((r, s), row) in enumerate(zip(cells, rows)):
        means, used, ordered = _replay_fig3_cell(r, s, trials, seed, cell, base_rate, 7, order_stat)
        assert (row.used_trials, row.order_gap_trials) == (used, ordered)
        assert row.skipped_empty == trials - used
        assert row.skipped_order == used - ordered
        got = [row.mean_w1, row.mean_hausdorff, row.mean_js_total, row.mean_order_gap]
        assert got == pytest.approx(means, rel=1e-12, abs=0.0, nan_ok=True)
    if base_rate == 0.5:  # some trials empty
        assert all(0 < row.skipped_empty < trials for row in rows)
    if base_rate == 0.01:  # every trial empty: all four means are NaN
        assert all(row.used_trials == 0 for row in rows)
        assert all(math.isnan(v) for row in rows for v in
                   (row.mean_w1, row.mean_hausdorff, row.mean_js_total, row.mean_order_gap))


def _fig3_peak_bytes(trials, bins):
    tracemalloc.start()
    try:
        run_fig3_experiment([2.0], [0.5], trials, SpikeSeed(5), base_rate=5.0, bins=bins,
                            order_stat=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fig3_memory_does_not_grow_with_trials_times_bins():
    # a cell's trials run in blocks of rows, so at many bins its peak is one
    # block's, whatever the trial count
    assert _fig3_peak_bytes(64, 5000) < 1.5 * _fig3_peak_bytes(16, 5000)
