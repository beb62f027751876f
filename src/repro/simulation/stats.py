"""Lightweight statistics collectors used throughout the simulation.

Three collectors cover everything the paper's evaluation reports:

* :class:`LatencyRecorder` — per-operation latency samples with the
  percentile summary of Table 1 (mean / median / 99 / 99.9 / 99.99).
  Exact: every sample is kept, 8 B each in an ``array('d')``, so every
  percentile is computed from the full distribution at any length.  The
  trace metrics registry (:mod:`repro.trace.metrics`) keeps one per span
  name.
* :class:`TimeSeries` — (time, value) samples, used for the queue-depth
  traces of Fig. 10 and Fig. 12.
* :class:`TimeWeightedStat` — time-weighted average of a stepwise signal
  (average queue depth in Fig. 9 and the trace registry's gauges).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Return the ``fraction`` (0..1) percentile using linear interpolation.

    A tiny re-implementation so that hot loops in the simulator do not pay
    numpy conversion costs for small sample sets; results match
    ``numpy.percentile(..., method="linear")``.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    return _ranked(sorted(samples), fraction)


def _ranked(ordered: Sequence[float], fraction: float) -> float:
    """:func:`percentile` of samples that are already sorted."""
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1.0 - weight) + ordered[high] * weight
    # Clamp away interpolation round-off so percentiles never exceed the
    # extreme samples.
    return min(max(value, ordered[0]), ordered[-1])


@dataclass
class LatencySummary:
    """Summary statistics of a latency distribution (microseconds)."""

    count: int
    mean: float
    median: float
    p99: float
    p999: float
    p9999: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        """Dictionary form used by the experiment reporting code."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p99": self.p99,
            "p99.9": self.p999,
            "p99.99": self.p9999,
            "min": self.minimum,
            "max": self.maximum,
        }


#: Table 1's summary percentiles.
_SUMMARY_FRACTIONS = (0.50, 0.99, 0.999, 0.9999)


class LatencyRecorder:
    """Collects latency samples and summarises them like Table 1.

    Every sample is kept (8 B each, in an ``array('d')``), so the summary
    is exact at any length.  The mean comes from a running total, not
    ``sum(samples)``: from Python 3.12 ``sum`` of floats is compensated
    and would move published means in the last bit.
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples = array("d")
        self._total = 0.0

    def record(self, latency: float) -> None:
        """Add one latency sample (microseconds)."""
        if latency < 0:
            raise ValueError(f"negative latency sample: {latency}")
        self.samples.append(latency)
        self._total += latency

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if not self.samples:
            raise ValueError(f"no samples recorded in {self.name}")
        return self._total / len(self.samples)

    def summary(self) -> LatencySummary:
        """Return the Table-1 style percentile summary (exact)."""
        if not self.samples:
            raise ValueError(f"no samples recorded in {self.name}")
        ordered = sorted(self.samples)
        median, p99, p999, p9999 = (_ranked(ordered, f) for f in _SUMMARY_FRACTIONS)
        return LatencySummary(
            count=len(ordered),
            mean=self.mean,
            median=median,
            p99=p99,
            p999=p999,
            p9999=p9999,
            minimum=ordered[0],
            maximum=ordered[-1],
        )


@dataclass
class TimeSeries:
    """A sequence of (time, value) samples of a stepwise signal."""

    name: str = "series"
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name} got out-of-order sample at {time}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def maximum(self) -> float:
        """Largest recorded value."""
        if not self.values:
            raise ValueError(f"time series {self.name} is empty")
        return max(self.values)


class TimeWeightedStat:
    """Incremental time-weighted mean of a stepwise signal."""

    def __init__(self, initial: float = 0.0, start_time: float = 0.0):
        self._value = initial
        self._last_time = start_time
        self._weighted_sum = 0.0
        self._duration = 0.0
        self.peak = initial

    def update(self, time: float, value: float) -> None:
        """Record that the signal changed to ``value`` at ``time``."""
        elapsed = time - self._last_time
        if elapsed < 0:
            raise ValueError("time went backwards in TimeWeightedStat")
        self._weighted_sum += self._value * elapsed
        self._duration += elapsed
        self._last_time = time
        self._value = value
        if value > self.peak:
            self.peak = value

    @property
    def current(self) -> float:
        """The most recent value of the signal."""
        return self._value

    def mean(self, now: float | None = None) -> float:
        """Time-weighted mean up to ``now`` (or the last update)."""
        weighted = self._weighted_sum
        duration = self._duration
        if now is not None and now > self._last_time:
            weighted += self._value * (now - self._last_time)
            duration += now - self._last_time
        if duration == 0.0:
            return self._value
        return weighted / duration
