"""Unit tests for the statistics collectors."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation import LatencyRecorder, TimeSeries, TimeWeightedStat, percentile


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
    for value in range(1, 101):
        recorder.record(float(value))
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


def assert_summary_is_exact(recorder, samples):
    summary = recorder.summary()
    assert summary.count == len(recorder) == len(samples)
    assert summary.median == percentile(samples, 0.5)
    assert summary.p99 == percentile(samples, 0.99)
    assert summary.p999 == percentile(samples, 0.999)
    assert summary.p9999 == percentile(samples, 0.9999)
    assert summary.minimum == min(samples)
    assert summary.maximum == max(samples)


def test_latency_recorder_is_exact_at_a_hundred_thousand_samples():
    # Far more samples than any published experiment records: every
    # percentile is still the exact one.
    rng = random.Random(11)
    samples = [rng.lognormvariate(4.0, 1.0) for _ in range(100_000)]
    recorder = LatencyRecorder()
    total = 0.0
    for value in samples:
        recorder.record(value)
        total += value
    assert_summary_is_exact(recorder, samples)
    assert recorder.summary().mean == total / len(samples)


def test_latency_recorder_pins_a_seeded_stream():
    # Count, mean, min and max are pinned bit-exact: the mean is summed in
    # recording order.
    recorder = LatencyRecorder()
    rng = random.Random(1234)
    samples = [rng.expovariate(1 / 50.0) for _ in range(1_000)]
    for value in samples:
        recorder.record(value)
    summary = recorder.summary()
    assert (summary.count, summary.mean, summary.minimum, summary.maximum) == (
        1000, 50.96028187206566, 0.012193498731288803, 526.5910636140684,
    )
    assert_summary_is_exact(recorder, samples)


@given(st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False), min_size=1,
))
def test_latency_recorder_summary_is_the_percentile_of_its_samples(samples):
    recorder = LatencyRecorder()
    for value in samples:
        recorder.record(value)
    assert_summary_is_exact(recorder, samples)


def test_latency_recorder_stores_each_sample_as_a_double():
    recorder = LatencyRecorder()
    for value in (3.0, 1.5, 2.25):
        recorder.record(value)
    assert recorder.samples.typecode == "d"
    assert recorder.samples.itemsize == 8
    assert list(recorder.samples) == [3.0, 1.5, 2.25]


def test_latency_recorder_summary_does_not_depend_on_recording_order():
    rng = random.Random(5)
    samples = [rng.uniform(1.0, 900.0) for _ in range(2_000)]
    shuffled = samples[:]
    rng.shuffle(shuffled)
    forward, backward = LatencyRecorder(), LatencyRecorder()
    for value in samples:
        forward.record(value)
    for value in shuffled:
        backward.record(value)
    first, second = forward.summary(), backward.summary()
    assert (first.count, first.median, first.p99, first.p999, first.p9999) == (
        second.count, second.median, second.p99, second.p999, second.p9999,
    )
    assert (first.minimum, first.maximum) == (second.minimum, second.maximum)
    assert first.mean == pytest.approx(second.mean)


def test_latency_recorder_keeps_recording_after_a_summary():
    recorder = LatencyRecorder()
    for value in (30.0, 10.0, 20.0):
        recorder.record(value)
    assert recorder.summary().median == 20.0
    # Summarising sorts a copy: the stored samples keep recording order.
    assert list(recorder.samples) == [30.0, 10.0, 20.0]
    recorder.record(40.0)
    summary = recorder.summary()
    assert (summary.count, summary.median, summary.maximum) == (4, 25.0, 40.0)
    assert summary.mean == recorder.mean == 25.0


def test_latency_recorder_mean_of_no_samples_raises():
    with pytest.raises(ValueError):
        LatencyRecorder().mean


def test_time_series_records_samples_and_maximum():
    series = TimeSeries("qd")
    series.record(0, 0)
    series.record(10, 4)
    series.record(20, 8)
    assert list(zip(series.times, series.values)) == [(0, 0), (10, 4), (20, 8)]
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
