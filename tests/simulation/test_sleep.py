"""``Simulator.sleep``: a timed wait with no Event behind it.

``yield sim.sleep(d)`` must be indistinguishable from ``yield
sim.timeout(d)`` in everything the simulation exposes — resume order and
times, context switches, sequence numbers — so the IO stack could switch to
it without moving a single simulated output.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.simulation import Interrupt, SimulationError, Simulator

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


def test_interrupting_a_sleeper_delivers_interrupt_once():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.sleep(100)
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))
        # Sleep again before the first sleep's wake entry is due: that
        # entry is stale and must not cut this sleep short.
        yield sim.sleep(200)
        log.append(("woke", sim.now))

    def killer(victim):
        yield sim.sleep(5)
        victim.interrupt("stop")

    victim = sim.process(sleeper())
    sim.process(killer(victim))
    sim.run()
    assert log == [("interrupted", "stop", 5), ("woke", 205)]
    # Only the second sleep woke the process; the interrupt is no wakeup.
    assert victim.context_switches == 1
    assert victim.triggered


def test_stale_sleep_entry_does_not_cut_a_later_event_wait_short():
    sim = Simulator()
    log = []
    later = sim.event()

    def sleeper():
        try:
            yield sim.sleep(100)
        except Interrupt:
            log.append(("interrupted", sim.now))
        value = yield later
        log.append(("event", value, sim.now))

    def killer(victim):
        yield sim.sleep(5)
        victim.interrupt()
        yield sim.sleep(145)
        later.succeed("fired")

    victim = sim.process(sleeper())
    sim.process(killer(victim))
    sim.run()
    assert log == [("interrupted", 5), ("event", "fired", 150)]
    assert victim.context_switches == 1


def test_stale_sleep_entry_of_a_finished_process_is_inert():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.sleep(100)
        except Interrupt:
            return "interrupted"

    def killer(victim):
        yield sim.sleep(1)
        victim.interrupt()

    victim = sim.process(sleeper())
    sim.process(killer(victim))
    assert sim.run() == 100  # the stale entry still drains, doing nothing
    assert victim.value == "interrupted"
    assert victim.context_switches == 0


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
