"""Measurement loops shared by several experiments.

These helpers run a "write N pages then sync" loop inside a simulated stack
and return the latency distribution, the number of application-level context
switches per call, or the device queue-depth trace — the raw material of
Table 1 and Figs. 9–12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stack import IOStack
from repro.fs.errors import FilesystemError
from repro.simulation.stats import LatencyRecorder, TimeSeries


@dataclass
class SyncLoopResult:
    """Result of a write+sync measurement loop."""

    latencies: LatencyRecorder
    context_switches_per_call: float
    elapsed_usec: float
    #: Sync calls that completed: the requested count, unless a
    #: filesystem error stopped the loop early.
    calls: int
    #: Name of the :class:`~repro.fs.errors.FilesystemError` that stopped the
    #: loop early (EIO on a sync, read-only degradation on a write), or
    #: ``None`` when every call completed.  Fault-free runs never stop early.
    stopped_by: str | None = None

    @property
    def iops(self) -> float:
        """Sync calls per second."""
        if self.elapsed_usec <= 0:
            return 0.0
        return self.calls / (self.elapsed_usec / 1_000_000.0)


def measure_sync_latency(
    stack: IOStack,
    *,
    calls: int,
    sync_call: str = "fsync",
    allocating: bool = True,
    pages_per_write: int = 1,
    file_name: str = "bench.dat",
) -> SyncLoopResult:
    """Run up to ``calls`` iterations of write+sync and record latencies.

    The result counts completed calls only, so an early-stopped loop
    reports (and averages over) the syncs it really finished.
    """
    fs = stack.fs
    sim = stack.sim
    latencies = LatencyRecorder(sync_call)
    switches = {"total": 0}
    elapsed = {"usec": 0.0}
    stopped: dict[str, str | None] = {"by": None}

    def loop():
        handle = fs.create(file_name, preallocate_pages=0 if allocating else 4096)
        sync = getattr(fs, sync_call)
        process = sim.active_process
        start = sim.now
        for index in range(calls):
            # A degrading mount ends the measurement instead of killing the
            # run: an EIO on the sync or a read-only mount on the write stops
            # the loop with the error recorded (fault-free runs never stop).
            try:
                if not allocating:
                    fs.write(handle, pages_per_write, offset_page=index % 4000)
                else:
                    fs.write(handle, pages_per_write)
                call_start = sim.now
                switches_before = process.context_switches
                yield from sync(handle, issuer="bench")
            except FilesystemError as error:
                stopped["by"] = type(error).__name__
                break
            latencies.record(sim.now - call_start)
            switches["total"] += process.context_switches - switches_before
        elapsed["usec"] = sim.now - start
        return None

    stack.run_process(loop())
    completed = len(latencies)
    return SyncLoopResult(
        latencies=latencies,
        context_switches_per_call=switches["total"] / completed if completed else 0.0,
        elapsed_usec=elapsed["usec"],
        calls=completed,
        stopped_by=stopped["by"],
    )


def measure_context_switches(stack: IOStack, *, calls: int, sync_call: str,
                             allocating: bool = True) -> float:
    """Average application context switches per sync call (Fig. 11)."""
    result = measure_sync_latency(
        stack, calls=calls, sync_call=sync_call, allocating=allocating
    )
    return result.context_switches_per_call


def queue_depth_trace(stack: IOStack) -> TimeSeries:
    """The device command-queue depth trace of a run (Figs. 10 and 12).

    The stack must have been built with ``track_queue_depth=True``.
    """
    series = stack.device.queue_depth_series
    if series is None:
        raise ValueError(
            "queue depth tracking disabled; build the stack with track_queue_depth=True"
        )
    return series
