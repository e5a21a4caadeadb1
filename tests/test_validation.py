import math

import numpy as np
import pytest

from spikeot import (
    DomainError,
    SpikeSeed,
    expected_distance,
    expected_distance_comparisons,
    run_fig3_experiment,
    shift_comparisons,
    shifted_expected_distance,
    expected_wasserstein,
    validate_expected_distance,
    validate_shift,
    validate_wasserstein_surface,
)
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
    with pytest.raises(DomainError):
        run_fig3_experiment([1.0], [0.0], trials=0, seed=SpikeSeed(0))
    with pytest.raises(DomainError):
        run_fig3_experiment([1.0], [0.0], trials=5, seed=SpikeSeed(0), base_rate=-1.0)
