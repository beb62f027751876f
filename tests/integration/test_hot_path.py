"""Deterministic pins on the host work of the sync paths.

Timings on a shared machine jitter by tens of percent; these counts do not.
They pin the per-IO host-cost levers of docs/PERFORMANCE.md: timed waits go
through ``Simulator.sleep`` and condition waits park (no Event), flag tests
and updates run no ``enum`` code, each loop schedules an exact number of
engine events and spends at most a pinned number of Python calls and Event
constructions, and an installed hook that does nothing (an inert fault
injector, a recording tracer) changes no simulated output.
"""

import enum
import gc
import sys

import pytest

from repro.analysis.measure import measure_sync_latency
from repro.core import build_stack, standard_config
from repro.hooks import install
from repro.simulation import Event, Simulator
from repro.trace import Tracer

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
    # One flash program round per call (its Event goes to the tracer's
    # hook); the flusher's deadline is a parked wait and every other timed
    # wait is a sleep.
    assert counts["timeout"] <= CALLS, counts
    assert counts["enum"] == 0, counts


#: Sync calls per pinned loop (allocating one-page writes on plain-ssd).
LOOP_CALLS = 200

#: (stack, sync call) -> (engine events, Python calls of the bare loop,
#: Event objects the bare loop builds, Python calls of the loop with an
#: installed inert fault injector).  Events are exact; the other counts are
#: ceilings, so a leaner path passes and one extra call or Event per
#: request (hundreds per loop) fails.  A hooked device keeps its commands'
#: own milestone events and relays, so the injected loop costs more than
#: the bare one by those.
LOOP_PINS = {
    ("BFS-DR", "fsync"): (10_006, 70_855, 3_402, 86_061),
    ("EXT4-DR", "fsync"): (9_605, 64_648, 2_601, 75_648),
    ("BFS-OD", "fdatabarrier"): (2_101, 14_512, 605, 17_939),
}

#: The code objects that build an Event: its constructor (subclasses and
#: processes run it too) and the two direct-store factories.
EVENT_BUILDERS = frozenset(
    (Event.__init__.__code__, Simulator.event.__code__, Simulator.timeout.__code__)
)


def _pinned_loop(config, sync_call, **hooks):
    """Run one drained loop under ``sys.setprofile``; return (calls, Events
    built, outputs).

    The collector is off while counting: a cyclic-garbage pass would
    finalize suspended generators from earlier tests inside the window.
    """
    stack = build_stack(standard_config(config, "plain-ssd"))
    install(stack, **hooks)
    calls = events = 0

    def profiler(frame, event, _arg):
        nonlocal calls, events
        if event == "call":
            calls += 1
            if frame.f_code in EVENT_BUILDERS:
                events += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = measure_sync_latency(stack, calls=LOOP_CALLS, sync_call=sync_call)
        # fdatabarrier returns before its writes complete: count them too.
        stack.sim.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert result.calls == LOOP_CALLS
    device = {
        key: value
        for key, value in vars(stack.device.stats).items()
        if isinstance(value, int)
    }
    outputs = {
        "events": next(stack.sim._sequence),
        "device": device,
        "block": dict(vars(stack.block.stats)),
        "fs": stack.fs.stats.snapshot(),
        "mean_latency": result.latencies.mean,
    }
    return calls, events, outputs


@pytest.mark.parametrize("config,sync_call", list(LOOP_PINS))
def test_sync_loop_work_is_pinned_and_inert_hooks_change_no_output(config, sync_call):
    events, bare_ceiling, event_ceiling, injected_ceiling = LOOP_PINS[config, sync_call]
    calls, built, bare = _pinned_loop(config, sync_call)
    assert bare["events"] == events, bare
    assert calls <= bare_ceiling, calls
    assert built <= event_ceiling, built
    # A fault plan that cannot fire and a recording tracer only observe.
    injected_calls, _, injected = _pinned_loop(
        config, sync_call, faults=("torn-write:p=0",)
    )
    assert injected == bare
    assert injected_calls <= injected_ceiling, injected_calls
    tracer = Tracer()
    _, _, traced = _pinned_loop(config, sync_call, tracer=tracer)
    assert traced == bare
    assert tracer.contexts
