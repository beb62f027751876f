"""Streaming metrics registry, sampled at span boundaries.

Counters are plain integers, gauges are time-weighted means plus a peak
(:class:`repro.simulation.stats.TimeWeightedStat`), and latency
distributions are exact: one :class:`repro.simulation.stats.LatencyRecorder`
per span name keeps every duration (8 B each), so p50/p99/p999 are the
true percentiles of the span stream.  The span ring buffer stays bounded
either way; only these durations grow with the run.

The registry is fed by the tracer every time a span closes: the span's
duration goes into the ``layer.op`` duration recorder, the span count into
the matching counter, and the instantaneous queue depths of the block and
device layers into the gauges.  ``result()`` renders the durations as an
:class:`repro.analysis.reporting.ExperimentResult` table (the export of
``runner trace --metrics``), with the counters and gauges in its notes.
"""

from __future__ import annotations

from repro.simulation.stats import LatencyRecorder, TimeWeightedStat


def duration_summary(recorder: LatencyRecorder) -> dict[str, float]:
    """Flat summary of one span name's durations."""
    summary = recorder.summary()
    return {
        "count": summary.count,
        "mean": summary.mean,
        "p50": summary.median,
        "p99": summary.p99,
        "p999": summary.p999,
        "min": summary.minimum,
        "max": summary.maximum,
    }


class MetricsRegistry:
    """Counters, gauges and span durations keyed by name."""

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, TimeWeightedStat] = {}
        self.durations: dict[str, LatencyRecorder] = {}

    def count(self, name: str, increment: int = 1) -> None:
        """Bump a counter."""
        self.counters[name] = self.counters.get(name, 0) + increment

    def gauge(self, name: str, time: float, value: float) -> None:
        """Sample a gauge."""
        stat = self.gauges.get(name)
        if stat is None:
            stat = self.gauges[name] = TimeWeightedStat()
        stat.update(time, value)

    def observe_duration(self, name: str, duration: float) -> None:
        """Record one span duration (microseconds)."""
        recorder = self.durations.get(name)
        if recorder is None:
            recorder = self.durations[name] = LatencyRecorder(name)
        recorder.record(duration)

    def result(self):
        """The span durations as a printable latency table."""
        from repro.analysis.reporting import ExperimentResult

        result = ExperimentResult(
            name="trace-metrics",
            description="per-layer span latencies (exact percentiles over every span)",
            columns=(
                "span", "count", "mean_us", "p50_us", "p99_us", "p999_us",
                "min_us", "max_us",
            ),
            notes=(
                "counters: "
                + " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
                + " | gauges: "
                + " ".join(
                    f"{k}(mean={g.mean():.2f},peak={g.peak:.0f})"
                    for k, g in sorted(self.gauges.items())
                )
            ),
        )
        for name, recorder in sorted(self.durations.items()):
            stats = duration_summary(recorder)
            result.add_row(
                name, stats["count"], stats["mean"], stats["p50"], stats["p99"],
                stats["p999"], stats["min"], stats["max"],
            )
        return result
