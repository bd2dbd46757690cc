"""Percentiles are only reported with enough samples beyond them."""

import pytest

from bench.stats import Op, percentile, quiet_summary, spread_share, supported_tail


@pytest.mark.parametrize(
    "n_samples, expected",
    [(20000, 99.9), (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0),
     (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0),
     (3, 50.0)],
)
def test_highest_percentile_with_ten_samples_beyond(n_samples, expected):
    assert supported_tail(n_samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_spread_is_interquartile_distance_over_median():
    assert spread_share([10.0] * 10) == 0.0
    assert spread_share([8, 9, 10, 11, 12]) == pytest.approx(3.0 / 10.0)


def test_quiet_summary_shrugs_off_a_noisy_stretch():
    """A third of the interval runs 5x slower; the windowed numbers stay
    where the quiet windows are, the pooled ones move."""
    ops, now = [], 0.0
    for index in range(1000):
        cost = 0.005 if 400 <= index < 500 else 0.001
        ops.append(Op(now, now + cost, True, cost * 1e3))
        now += cost
    summary = quiet_summary(ops, n_windows=20, slo_ms=2.0)
    assert summary["latency_p50_ms"] == pytest.approx(1.0)
    assert summary["throughput_per_s"] == pytest.approx(1000.0, rel=0.05)
    assert summary["slo_met_share"] == 1.0
    assert summary["pooled"]["slo_met_share"] == pytest.approx(0.9)
    assert summary["pooled"]["throughput_per_s"] < 750


def test_failed_operations_miss_the_limit_and_carry_no_latency():
    ops = [Op(i, i + 0.5, i % 2 == 0, 1.0) for i in range(10)]
    summary = quiet_summary(ops, n_windows=1, slo_ms=5.0)
    assert summary["slo_met_share"] == 0.5
    assert summary["pooled"]["samples"] == 5
