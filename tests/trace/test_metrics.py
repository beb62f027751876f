"""Unit tests for the trace metrics registry (counters, gauges, durations)."""

import pytest

from repro.simulation.stats import percentile
from repro.trace.metrics import MetricsRegistry


def test_registry_durations_are_exact_percentiles():
    registry = MetricsRegistry()
    durations = [float(value) for value in range(100, 0, -1)]
    for duration in durations:
        registry.observe_duration("device.write", duration)
    stats = registry.durations["device.write"].summary()
    assert stats.count == 100
    assert stats.mean == pytest.approx(50.5)
    assert (stats.minimum, stats.maximum) == (1.0, 100.0)
    assert stats.median == 50.5
    for key, fraction in (("p99", 0.99), ("p999", 0.999)):
        assert getattr(stats, key) == percentile(durations, fraction)


def test_registry_gauges_are_time_weighted():
    registry = MetricsRegistry()
    registry.gauge("queue.device", 10.0, 4.0)  # 0 held for 10
    registry.gauge("queue.device", 30.0, 1.0)  # 4 held for 20
    gauge = registry.gauges["queue.device"]
    assert gauge.mean() == (0 * 10 + 4 * 20) / 30
    assert (gauge.peak, gauge.current) == (4.0, 1.0)


def test_registry_result_has_one_sorted_row_per_span_name():
    registry = MetricsRegistry()
    registry.count("spans.block", 2)
    registry.count("spans.block")
    for name, duration in (("fs.fsync", 9.0), ("block.queue", 2.0), ("fs.fsync", 3.0)):
        registry.observe_duration(name, duration)
    assert registry.counters == {"spans.block": 3}
    result = registry.result()
    rows = result.as_dicts()
    assert [row["span"] for row in rows] == ["block.queue", "fs.fsync"]
    assert [row["count"] for row in rows] == [1, 2]
    assert rows[1]["p50_us"] == 6.0
    assert "spans.block=3" in result.notes
