"""Lightweight statistics collectors used throughout the simulation.

Four collectors cover everything the paper's evaluation reports:

* :class:`LatencyRecorder` — per-operation latency samples with the
  percentile summary of Table 1 (mean / median / 99 / 99.9 / 99.99).
  Bounded: up to ``exact_window`` samples are kept verbatim (percentiles
  are then exact, and small runs reproduce the published tables
  bit-identically); past the window the recorder switches to streaming
  P² quantile sketches, so memory stays flat at millions of operations.
* :class:`P2Quantile` — the O(1)-memory streaming quantile estimator
  (Jain & Chlamtac's P² algorithm) behind the recorder and the metrics
  registry of :mod:`repro.trace`.
* :class:`TimeSeries` — (time, value) samples, used for the queue-depth
  traces of Fig. 10 and Fig. 12.
* :class:`TimeWeightedStat` — time-weighted average of a stepwise signal
  (average queue depth in Fig. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


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
    ordered = sorted(samples)
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


class P2Quantile:
    """Streaming quantile estimate in O(1) memory (the P² algorithm).

    Jain & Chlamtac, "The P² algorithm for dynamic calculation of quantiles
    and histograms without storing observations", CACM 1985.  Five markers
    track the minimum, the target quantile, the two intermediate quantiles
    and the maximum; marker heights are adjusted with a piecewise-parabolic
    fit as observations stream in.  For fewer than five observations the
    estimate is exact (computed from the buffered handful).
    """

    __slots__ = ("fraction", "_heights", "_positions", "_desired", "_rates", "count")

    def __init__(self, fraction: float):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"P2Quantile fraction must be in (0, 1), got {fraction}")
        self.fraction = fraction
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * fraction, 1.0 + 4.0 * fraction,
                         3.0 + 2.0 * fraction, 5.0]
        self._rates = [0.0, fraction / 2.0, fraction, (1.0 + fraction) / 2.0, 1.0]
        self.count = 0

    def observe(self, value: float) -> None:
        """Feed one observation into the sketch."""
        self.count += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            if len(heights) == 5:
                heights.sort()
            return

        positions = self._positions
        # Find the marker cell the observation falls into and bump extremes.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        desired = self._desired
        for index, rate in enumerate(self._rates):
            desired[index] += rate

        # Adjust the three interior markers toward their desired positions.
        for index in (1, 2, 3):
            delta = desired[index] - positions[index]
            if (delta >= 1.0 and positions[index + 1] - positions[index] > 1.0) or (
                delta <= -1.0 and positions[index - 1] - positions[index] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    # Parabolic fit left the bracket: fall back to linear.
                    neighbor = index + int(step)
                    heights[index] += step * (
                        (heights[neighbor] - heights[index])
                        / (positions[neighbor] - positions[index])
                    )
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        return heights[index] + step / (positions[index + 1] - positions[index - 1]) * (
            (positions[index] - positions[index - 1] + step)
            * (heights[index + 1] - heights[index])
            / (positions[index + 1] - positions[index])
            + (positions[index + 1] - positions[index] - step)
            * (heights[index] - heights[index - 1])
            / (positions[index] - positions[index - 1])
        )

    def value(self) -> float:
        """The current quantile estimate."""
        if not self._heights:
            raise ValueError("P2Quantile has no observations")
        if len(self._heights) < 5 or self.count < 5:
            return percentile(self._heights, self.fraction)
        return self._heights[2]


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


#: Summary percentiles, shared by the exact and the sketched paths.
_SUMMARY_FRACTIONS = (0.50, 0.99, 0.999, 0.9999)


class LatencyRecorder:
    """Collects latency samples and summarises them like Table 1.

    Memory is bounded: the first ``exact_window`` samples are stored
    verbatim and the summary percentiles are computed exactly from them —
    every published experiment records well under the default window, so
    their tables are bit-for-bit what the unbounded recorder produced.
    Past the window the stored list stops growing and the summary switches
    to streaming P² sketches; count, mean, min and max stay exact at any
    length.  The sketches are fed only once the window overflows: at that
    moment the stored window is replayed into them in order, so their
    state is exactly what streaming from the very first sample would have
    built, and a run that never overflows never pays for them.  This is
    what lets open-loop runs record millions of operations at O(1)
    incremental cost.
    """

    #: Samples kept verbatim before the summary switches to the sketches.
    DEFAULT_EXACT_WINDOW = 65_536

    def __init__(self, name: str = "latency", *, exact_window: int | None = None):
        self.name = name
        self.exact_window = (
            self.DEFAULT_EXACT_WINDOW if exact_window is None else exact_window
        )
        self.samples: list[float] = []
        self._count = 0
        self._total = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf
        self._sketches = tuple(P2Quantile(f) for f in _SUMMARY_FRACTIONS)

    def record(self, latency: float) -> None:
        """Add one latency sample (microseconds)."""
        if latency < 0:
            raise ValueError(f"negative latency sample: {latency}")
        count = self._count
        if count < self.exact_window:
            self.samples.append(latency)
        else:
            if count == self.exact_window:
                # The window just overflowed: catch the sketches up on it.
                for sample in self.samples:
                    for sketch in self._sketches:
                        sketch.observe(sample)
            for sketch in self._sketches:
                sketch.observe(latency)
        self._count = count + 1
        self._total += latency
        if latency < self._minimum:
            self._minimum = latency
        if latency > self._maximum:
            self._maximum = latency

    def extend(self, latencies: Iterable[float]) -> None:
        """Add many samples at once."""
        for latency in latencies:
            self.record(latency)

    def __len__(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if not self._count:
            raise ValueError(f"no samples recorded in {self.name}")
        return self._total / self._count

    @property
    def saturated(self) -> bool:
        """Whether the exact window overflowed (summary uses the sketches)."""
        return self._count > len(self.samples)

    def summary(self) -> LatencySummary:
        """Return the Table-1 style percentile summary.

        Exact while the sample count fits the window; P² sketch estimates
        (typically within a fraction of a percent) once it overflows.
        """
        if not self._count:
            raise ValueError(f"no samples recorded in {self.name}")
        if not self.saturated:
            median, p99, p999, p9999 = (
                percentile(self.samples, f) for f in _SUMMARY_FRACTIONS
            )
        else:
            median, p99, p999, p9999 = (s.value() for s in self._sketches)
        return LatencySummary(
            count=self._count,
            mean=self.mean,
            median=median,
            p99=p99,
            p999=p999,
            p9999=p9999,
            minimum=self._minimum,
            maximum=self._maximum,
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

    def samples(self) -> list[tuple[float, float]]:
        """List of (time, value) pairs."""
        return list(zip(self.times, self.values))


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
        if time < self._last_time:
            raise ValueError("time went backwards in TimeWeightedStat")
        self._weighted_sum += self._value * (time - self._last_time)
        self._duration += time - self._last_time
        self._last_time = time
        self._value = value
        self.peak = max(self.peak, value)

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
