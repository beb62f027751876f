"""Deterministic pins on the host work of the BFS-DR fsync path.

Timings on a shared machine jitter by tens of percent; these counts do not.
They pin the per-IO host-cost levers of docs/PERFORMANCE.md: timed waits go
through ``Simulator.sleep`` (no Event), and flag tests and updates run no
``enum`` code.
"""

import enum
import sys

from repro.analysis.measure import measure_sync_latency
from repro.core import build_stack, standard_config
from repro.simulation import Simulator

CALLS = 100


def _profile_fsync_loop():
    stack = build_stack(standard_config("BFS-DR", "plain-ssd"))
    measure_sync_latency(stack, calls=10, sync_call="fsync", file_name="warm.dat")
    timeout_code = Simulator.timeout.__code__
    counts = {"timeout": 0, "enum": 0}

    def profiler(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code is timeout_code:
            counts["timeout"] += 1
        elif code.co_filename == enum.__file__:
            counts["enum"] += 1

    sys.setprofile(profiler)
    try:
        result = measure_sync_latency(
            stack, calls=CALLS, sync_call="fsync", file_name="pinned.dat"
        )
    finally:
        sys.setprofile(None)
    assert result.calls == CALLS
    return counts


def test_bfs_fsync_hot_path_builds_few_timers_and_runs_no_enum_code():
    counts = _profile_fsync_loop()
    # Three flusher deadline arms (the ``any_of`` needs an Event) plus one
    # flash program round per call; every other timed wait is a sleep.
    assert counts["timeout"] <= 4 * CALLS, counts
    assert counts["enum"] == 0, counts
