"""Unit tests for the statistics collectors."""

import random

import pytest

from repro.simulation import LatencyRecorder, TimeSeries, TimeWeightedStat, percentile
from repro.simulation.stats import P2Quantile


def test_percentile_matches_linear_interpolation():
    samples = [10, 20, 30, 40]
    assert percentile(samples, 0.0) == 10
    assert percentile(samples, 1.0) == 40
    assert percentile(samples, 0.5) == 25


def test_percentile_single_sample():
    assert percentile([7.0], 0.999) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_latency_recorder_summary_fields():
    recorder = LatencyRecorder("fsync")
    recorder.extend(float(value) for value in range(1, 101))
    summary = recorder.summary()
    assert summary.count == 100
    assert summary.mean == pytest.approx(50.5)
    assert summary.median == pytest.approx(50.5)
    assert summary.p99 > summary.median
    assert summary.p9999 >= summary.p999 >= summary.p99
    assert summary.minimum == 1.0
    assert summary.maximum == 100.0
    assert set(summary.as_dict()) == {
        "count", "mean", "median", "p99", "p99.9", "p99.99", "min", "max",
    }


def test_latency_recorder_rejects_negative():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(-1.0)


def test_latency_recorder_empty_summary_raises():
    with pytest.raises(ValueError):
        LatencyRecorder().summary()


def test_p2_quantile_is_exact_under_five_observations():
    sketch = P2Quantile(0.5)
    for value in (30.0, 10.0, 20.0):
        sketch.observe(value)
    assert sketch.value() == 20.0


def test_p2_quantile_tracks_a_long_stream():
    rng = random.Random(7)
    samples = [rng.uniform(0.0, 1000.0) for _ in range(20_000)]
    sketch = P2Quantile(0.99)
    for value in samples:
        sketch.observe(value)
    exact = percentile(samples, 0.99)
    # The P² estimate holds five markers, not 20k samples; accept ~2%.
    assert sketch.value() == pytest.approx(exact, rel=0.02)


def test_p2_quantile_rejects_bad_fraction_and_empty_value():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)
    with pytest.raises(ValueError):
        P2Quantile(0.5).value()


def test_latency_recorder_is_exact_up_to_the_window():
    bounded = LatencyRecorder(exact_window=64)
    unbounded = LatencyRecorder()
    values = [float((7 * i) % 100) for i in range(64)]
    bounded.extend(values)
    unbounded.extend(values)
    assert not bounded.saturated
    assert bounded.summary() == unbounded.summary()


def test_latency_recorder_saturates_to_bounded_memory():
    recorder = LatencyRecorder(exact_window=16)
    rng = random.Random(3)
    values = [rng.uniform(1.0, 500.0) for _ in range(5_000)]
    recorder.extend(values)
    assert recorder.saturated
    assert len(recorder.samples) == 16  # storage stopped growing
    summary = recorder.summary()
    # Count, mean, min and max stay exact at any length...
    assert summary.count == len(recorder) == 5_000
    assert summary.mean == pytest.approx(sum(values) / len(values))
    assert summary.minimum == min(values)
    assert summary.maximum == max(values)
    # ...while the percentiles come from the sketches, fed from sample one.
    assert summary.median == pytest.approx(percentile(values, 0.5), rel=0.05)
    assert summary.p99 == pytest.approx(percentile(values, 0.99), rel=0.05)
    assert summary.minimum <= summary.p999 <= summary.maximum


@pytest.mark.parametrize("window", [0, 16, 100])
def test_latency_recorder_sketches_match_streaming_from_sample_one(window):
    # The sketches are fed only once the window overflows (the stored window
    # is replayed into them first); these values were produced by recorders
    # that fed every sample to the sketches as it arrived.
    recorder = LatencyRecorder(exact_window=window)
    rng = random.Random(1234)
    for _ in range(1_000):
        recorder.record(rng.expovariate(1 / 50.0))
    summary = recorder.summary()
    assert (
        summary.count, summary.mean, summary.median, summary.p99,
        summary.p999, summary.p9999, summary.minimum, summary.maximum,
    ) == (
        1000, 50.96028187206566, 36.05172466228526, 217.04440091530722,
        302.34103471669033, 302.34103471669033, 0.012193498731288803,
        526.5910636140684,
    )


def test_time_series_records_samples_and_maximum():
    series = TimeSeries("qd")
    series.record(0, 0)
    series.record(10, 4)
    series.record(20, 8)
    assert series.samples() == [(0, 0), (10, 4), (20, 8)]
    assert series.maximum == 8


def test_time_series_rejects_out_of_order():
    series = TimeSeries()
    series.record(5, 1)
    with pytest.raises(ValueError):
        series.record(4, 1)


def test_time_weighted_stat_tracks_mean_and_peak():
    stat = TimeWeightedStat()
    stat.update(10, 2)   # value 0 held for 10
    stat.update(20, 6)   # value 2 held for 10
    assert stat.peak == 6
    assert stat.current == 6
    assert stat.mean(now=30) == pytest.approx((0 * 10 + 2 * 10 + 6 * 10) / 30)


def test_time_weighted_stat_rejects_backwards_time():
    stat = TimeWeightedStat()
    stat.update(5, 1)
    with pytest.raises(ValueError):
        stat.update(4, 2)
