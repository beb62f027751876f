"""Edge-case tests for the engine's fast path.

These pin the behaviours that the zero-allocation refactor must preserve:
degenerate AllOf/AnyOf inputs and failures caught by the waiting process,
the trampoline for already-triggered yields, the ``run(until=...)``
boundary semantics, and the races of a process parked on a condition with a
deadline (the loser of notify against deadline is inert).
"""

import pytest

from repro.simulation import (
    AllOf,
    Condition,
    Event,
    SimulationError,
    Simulator,
)


# ---------------------------------------------------------------- AllOf / AnyOf
def test_all_of_empty_iterable_fires_with_empty_list():
    sim = Simulator()
    results = []

    def proc():
        values = yield sim.all_of([])
        results.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert results == [(0, [])]


def test_all_of_empty_is_not_triggered_synchronously():
    sim = Simulator()
    gathered = AllOf(sim, [])
    assert not gathered.triggered  # fires on the next dispatch cycle
    sim.run()
    assert gathered.triggered
    assert gathered.value == []


def test_all_of_failure_propagates_first_error():
    sim = Simulator()
    caught = []

    def fail_later(event):
        yield sim.timeout(1)
        event.fail(ValueError("broken leg"))

    def proc():
        ok = sim.timeout(5)
        bad = sim.event()
        sim.process(fail_later(bad))
        try:
            yield sim.all_of([ok, bad])
        except ValueError as error:
            caught.append((sim.now, str(error)))

    sim.process(proc())
    sim.run()
    assert caught == [(1, "broken leg")]


def test_any_of_failure_propagation():
    sim = Simulator()
    caught = []

    def fail_later(event):
        yield sim.timeout(2)
        event.fail(RuntimeError("first loser"))

    def proc():
        slow = sim.timeout(50)
        doomed = sim.event()
        sim.process(fail_later(doomed))
        try:
            yield sim.any_of([slow, doomed])
        except RuntimeError as error:
            caught.append((sim.now, str(error)))

    sim.process(proc())
    sim.run()
    assert caught == [(2, "first loser")]


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_any_of_ignores_later_failures():
    """Once AnyOf fired with the winner, a later failure must not resurface."""
    sim = Simulator()
    results = []

    def proc():
        fast = sim.timeout(1, "fast")
        doomed = sim.event()
        sim.process(fail_later(doomed))
        value = yield sim.any_of([fast, doomed])
        results.append(value)
        yield sim.timeout(10)  # outlive the failure
        results.append("survived")

    def fail_later(event):
        yield sim.timeout(5)
        event.fail(RuntimeError("late failure"))

    sim.process(proc())
    sim.run()
    assert results == ["fast", "survived"]


# ---------------------------------------------------------------- error routing
@pytest.mark.parametrize(
    "drive",
    [
        lambda sim, process: sim.run(),
        lambda sim, process: sim.run(until=5),
        lambda sim, process: sim.run_until_complete(process),
    ],
    ids=["run", "run-until", "run-until-complete"],
)
def test_an_escaping_exception_aborts_the_run(drive):
    # No process records the failure: it leaves the loop through whichever
    # entry point is driving, and the waiting parent never resumes.
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaboom")

    def parent():
        yield sim.process(bad())

    process = sim.process(parent())
    with pytest.raises(RuntimeError, match="kaboom"):
        drive(sim, process)
    assert not process.triggered


# ---------------------------------------------------------------- trampoline
def test_triggered_yields_trampoline_without_context_switches():
    """A long chain of already-triggered yields completes without blocking."""
    sim = Simulator()
    hops = 10_000
    done = []

    def spinner():
        for index in range(hops):
            event = Event(sim)
            event.succeed(index)
            value = yield event
            assert value == index
        done.append(sim.now)

    process = sim.process(spinner())
    sim.run()
    assert done == [0]
    assert process.context_switches == 0


def test_trampoline_bound_still_makes_progress():
    """Even past the trampoline bound the process keeps running at t=now."""
    sim = Simulator()
    results = []

    def spinner():
        for _ in range(1000):  # far above _TRAMPOLINE_LIMIT
            gate = Event(sim)
            gate.fail(ValueError("pre-failed"))
            try:
                yield gate
            except ValueError:
                pass
        results.append(sim.now)

    sim.process(spinner())
    sim.run()
    assert results == [0]


# ---------------------------------------------------------------- run(until=...)
def test_run_until_executes_event_exactly_at_boundary():
    """Pinned semantics: entries scheduled exactly at ``until`` execute."""
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(50)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=50)
    assert fired == [50]
    assert sim.now == 50


def test_run_until_leaves_later_events_pending():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(50)
        fired.append("at-50")
        yield sim.timeout(0.0001)
        fired.append("after-50")

    sim.process(proc())
    sim.run(until=50)
    assert fired == ["at-50"]
    sim.run()
    assert fired == ["at-50", "after-50"]


def test_run_until_in_the_past_never_moves_time_backwards():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.process(proc())
    sim.run()
    assert sim.now == 100
    # Empty heap and until < now: no-op either way.
    sim.run(until=10)
    assert sim.now == 100
    # Non-empty heap with the next entry beyond until: still a no-op.
    sim.process(proc())
    sim.run(until=10)
    assert sim.now == 100
    sim.run()
    assert sim.now == 200


def test_run_until_idle_clock_jumps_to_until():
    sim = Simulator()
    sim.run(until=123.5)
    assert sim.now == 123.5


def test_zero_delay_event_scheduled_at_until_runs_in_same_call():
    """A t==until entry scheduled *by* a t==until entry also executes."""
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(50)
        fired.append("first")
        yield sim.timeout(0)
        fired.append("second")

    sim.process(proc())
    sim.run(until=50)
    assert fired == ["first", "second"]
    assert sim.now == 50


# ---------------------------------------------------------------- parked waits


def test_a_notify_leaves_the_parked_deadline_inert():
    # The deadline's wake entry outlives the notify that won the race; when
    # it pops, the process is parked on an Event wait and must stay there.
    sim = Simulator()
    cond = Condition(sim)
    later = sim.event()
    log = []

    def waiter():
        log.append(((yield cond.wait(10)), sim.now))
        log.append(((yield later), sim.now))

    def notifier():
        yield sim.sleep(5)
        cond.notify_all("notified")
        yield sim.sleep(15)
        later.succeed("event")

    process = sim.process(waiter())
    sim.process(notifier())
    sim.run(until=10)  # the inert deadline entry pops here
    assert log == [("notified", 5)]
    sim.run()
    assert log == [("notified", 5), ("event", 20)]
    assert process.context_switches == 2


@pytest.mark.parametrize("notify_first", [True, False])
def test_notify_and_deadline_at_the_same_instant_wake_once(notify_first):
    sim = Simulator(context_switch_cost=2.0)
    cond = Condition(sim)
    woken = []

    def waiter():
        value = yield cond.wait(5)
        woken.append((value, sim.now))
        # Parked elsewhere when the loser of the race fires.
        yield sim.sleep(20)

    def arm():
        sim.timeout(5).add_callback(lambda _event: cond.notify_all("notified"))

    if notify_first:
        arm()  # its entry precedes the deadline's at t=5
    process = sim.process(waiter())
    sim.run(until=0)
    if not notify_first:
        arm()
    sim.run()
    assert woken == [("notified" if notify_first else None, 7.0)]
    assert process.context_switches == 2  # the wait and the sleep
    assert sim.now == 29.0
