"""``Simulator.sleep``: a timed wait with no Event behind it.

``yield sim.sleep(d)`` must be indistinguishable from ``yield
sim.timeout(d)`` in everything the simulation exposes — resume order and
times, context switches, sequence numbers — so the IO stack could switch to
it without moving a single simulated output.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.simulation import Condition, SimulationError, Simulator

#: One process: when it starts, then its waits.  An int is a timed wait of
#: that many microseconds (small, so ties are common); ``None`` yields an
#: already-triggered event, the path that never blocks.
process_scripts = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.lists(st.one_of(st.integers(min_value=0, max_value=4), st.none()), max_size=8),
)


def _run(scripts, context_switch_cost, timed_wait):
    """Run ``scripts`` with ``timed_wait(sim, delay)`` as the timed wait."""
    sim = Simulator(context_switch_cost=context_switch_cost)
    log = []

    def body(pid, waits):
        for step, delay in enumerate(waits):
            if delay is None:
                yield sim.event().succeed(step)
            else:
                value = yield timed_wait(sim, delay)
                assert value is None
            log.append((pid, step, sim.now))

    def starter(pid, start, waits):
        # Processes start at staggered times, from inside the simulation.
        yield sim.timeout(start)
        child = sim.process(body(pid, waits))
        yield child
        return child.context_switches

    starters = [
        sim.process(starter(pid, start, waits))
        for pid, (start, waits) in enumerate(scripts)
    ]
    sim.run()
    return {
        "log": log,
        "switches": [process.context_switches for process in starters],
        "child_switches": [process.value for process in starters],
        "seq": next(sim._sequence),  # noqa: SLF001 - the engine's event count
        "now": sim.now,
    }


@given(
    scripts=st.lists(process_scripts, min_size=1, max_size=6),
    context_switch_cost=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_sleep_is_exactly_a_timeout_wait(scripts, context_switch_cost):
    with_timeout = _run(scripts, context_switch_cost, lambda sim, d: sim.timeout(d))
    with_sleep = _run(scripts, context_switch_cost, lambda sim, d: sim.sleep(d))
    assert with_sleep == with_timeout


def test_sleep_charges_one_context_switch_and_its_cost():
    sim = Simulator(context_switch_cost=2.0)

    def sleeper():
        yield sim.sleep(5)
        return sim.now

    process = sim.process(sleeper())
    sim.run()
    assert process.value == 7.0
    assert process.context_switches == 1


def test_zero_sleep_lets_processes_due_now_run_first():
    sim = Simulator()
    log = []

    def sleeper():
        log.append("before")
        yield sim.sleep(0)
        log.append("after")

    def other():
        log.append("other")
        yield sim.sleep(1)

    process = sim.process(sleeper())
    sim.process(other())
    sim.run()
    assert log == ["before", "other", "after"]
    assert process.context_switches == 1


def test_stale_sleep_entry_of_a_finished_process_is_inert():
    # A notified deadline wait leaves its wake entry on the heap; the
    # process has returned by the time it pops.
    sim = Simulator()
    cond = Condition(sim)

    def waiter():
        return (yield cond.wait(100))

    def notifier():
        yield sim.sleep(1)
        cond.notify_all("notified")

    process = sim.process(waiter())
    sim.process(notifier())
    assert sim.run() == 100  # the stale entry still drains, doing nothing
    assert process.value == "notified"
    assert process.context_switches == 1


@pytest.mark.parametrize("park", ["sleep", "wait", "deadline-wait"])
def test_stale_sleep_entry_does_not_cut_a_later_park_short(park):
    # The deadline of the first wait is due at t=10, while the process is
    # parked again; only the second park's own wake may resume it.
    sim = Simulator()
    cond, later = Condition(sim), Condition(sim)
    log = []

    def waiter():
        log.append(((yield cond.wait(10)), sim.now))
        if park == "sleep":
            value = yield sim.sleep(15)
        elif park == "wait":
            value = yield later.wait()
        else:
            value = yield later.wait(30)
        log.append((value, sim.now))

    def notifier():
        yield sim.sleep(5)
        cond.notify_all("first")
        yield sim.sleep(15)
        later.notify_all("second")

    process = sim.process(waiter())
    sim.process(notifier())
    sim.run()
    second = (None, 20) if park == "sleep" else ("second", 20)
    assert log == [("first", 5), second]
    assert process.context_switches == 2


def test_sleep_outside_a_process_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.sleep(1)


def test_negative_sleep_raises():
    sim = Simulator()

    def sleeper():
        yield sim.sleep(-1)

    sim.process(sleeper())
    with pytest.raises(SimulationError):
        sim.run()
