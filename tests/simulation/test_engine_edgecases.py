"""Edge-case tests for the engine's fast path.

These pin the behaviours that the zero-allocation refactor must preserve:
interrupt/timeout races, degenerate AllOf/AnyOf inputs, error routing with
``propagate_process_errors=False``, the trampoline for already-triggered
yields, the ``run(until=...)`` boundary semantics, and the races of a
process parked on a condition (interrupt, notify against deadline).
"""

import pytest

from repro.simulation import (
    AllOf,
    Condition,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


# ---------------------------------------------------------------- interrupts
def test_interrupt_racing_pending_timeout_detaches():
    """Interrupting a process whose timeout entry is still in the heap.

    The interrupt must detach the process from the timeout: the Interrupt is
    delivered, no context switch is charged for the abandoned wait, and the
    stale timeout entry later fires into the void without resurrecting the
    process.
    """
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(10)
            log.append("timeout")
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))
            return
        log.append("never")

    victim_proc = sim.process(victim())
    sim.run(until=5)
    victim_proc.interrupt("race")
    sim.run()
    assert log == [("interrupted", "race", 5)]
    assert victim_proc.triggered
    # Interrupt delivery is not a wakeup: no context switch is charged.
    assert victim_proc.context_switches == 0
    assert sim.now == 10  # the detached timeout entry still drained


def test_same_instant_interrupt_loses_to_fired_timeout():
    """FIFO at identical timestamps: a timeout that fired first wins the race."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(10)
            log.append(("timeout", sim.now))
        except Interrupt:
            log.append("interrupted")

    def killer(process):
        yield sim.timeout(10)
        process.interrupt("race")

    victim_proc = sim.process(victim())
    sim.process(killer(victim_proc))
    sim.run()
    # The victim's timeout entry precedes the killer's resume, so the victim
    # wakes with the timeout value; the late interrupt is a no-op.
    assert log == [("timeout", 10)]
    assert victim_proc.triggered


def test_interrupt_after_timeout_fired_is_delivered_at_next_wait():
    """If the wait already completed, the interrupt hits the next yield."""
    sim = Simulator()
    log = []

    def victim():
        yield sim.timeout(5)
        log.append("first")
        try:
            yield sim.timeout(100)
        except Interrupt:
            log.append("interrupted")
            return

    def killer(process):
        yield sim.timeout(7)
        process.interrupt()

    sim.process(killer(sim.process(victim())))
    sim.run()
    assert log == ["first", "interrupted"]


def test_interrupt_on_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    process = sim.process(quick())
    sim.run()
    assert process.triggered
    process.interrupt("too late")  # must not raise or reschedule
    sim.run()
    assert process.triggered


def test_uncaught_interrupt_completes_process_with_none():
    sim = Simulator()

    def victim():
        yield sim.timeout(100)

    def killer(process):
        yield sim.timeout(1)
        process.interrupt()

    victim_proc = sim.process(victim())
    sim.process(killer(victim_proc))
    sim.run()
    assert victim_proc.triggered
    assert victim_proc.value is None


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
    sim = Simulator(propagate_process_errors=False)
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
    sim = Simulator(propagate_process_errors=False)
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
def test_propagate_false_records_failure_on_process_event():
    sim = Simulator(propagate_process_errors=False)

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("contained")

    process = sim.process(bad())
    sim.run()  # must not raise
    assert process.triggered
    assert not process.ok
    with pytest.raises(RuntimeError, match="contained"):
        _ = process.value


def test_propagate_false_failure_wakes_waiter_with_exception():
    sim = Simulator(propagate_process_errors=False)
    caught = []

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("child down")

    def parent():
        try:
            yield sim.process(bad())
        except RuntimeError as error:
            caught.append(str(error))

    sim.process(parent())
    sim.run()
    assert caught == ["child down"]


def test_propagate_true_aborts_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaboom")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="kaboom"):
        sim.run()


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
def test_interrupt_of_a_parked_process_resumes_it_once_and_a_later_notify_is_inert():
    sim = Simulator(context_switch_cost=1.0)
    cond = Condition(sim)
    log = []

    def victim():
        try:
            yield cond.wait()
            log.append("woken")
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))
        yield sim.sleep(10)
        log.append(("slept", sim.now))

    process = sim.process(victim())
    sim.run(until=5)
    process.interrupt("stop")
    sim.run(until=6)
    cond.notify_all()  # the victim is asleep: its old record is stale
    sim.run()
    assert log == [("interrupted", "stop", 5), ("slept", 16)]
    # The interrupt is no wakeup; only the sleep charged a context switch.
    assert process.context_switches == 1


def test_interrupt_leaves_a_parked_deadline_inert():
    sim = Simulator()
    cond = Condition(sim)
    log = []

    def victim():
        try:
            yield cond.wait(10)
        except Interrupt:
            log.append(("interrupted", sim.now))

    process = sim.process(victim())
    sim.run(until=5)
    process.interrupt()
    sim.run()
    assert log == [("interrupted", 5)]
    assert process.context_switches == 0
    assert sim.now == 10  # the inert deadline entry still drained


def test_interrupt_issued_while_a_wake_is_pending_reaches_the_next_wait_only():
    sim = Simulator()
    cond = Condition(sim)
    log = []

    def victim():
        value = yield cond.wait()
        log.append((value, sim.now))
        try:
            yield cond.wait()
        except Interrupt:
            log.append(("interrupted", sim.now))
        # An Event wait: the ended park's record must not wake it.
        value = yield sim.timeout(10, "timeout")
        log.append((value, sim.now))

    process = sim.process(victim())
    sim.run(until=1)
    cond.notify_all("woken")  # the resume is pending at t=1 ...
    process.interrupt()  # ... when the interrupt is issued
    sim.run(until=3)
    cond.notify_all("stale")  # the second wait ended with the interrupt
    sim.run()
    assert log == [("woken", 1), ("interrupted", 1), ("timeout", 11)]
    assert process.context_switches == 2


def test_interrupt_issued_while_a_wake_is_pending_detaches_the_next_event_wait():
    # The Event form of the race above: the event the interrupt lands on
    # must not wake the process once it waits elsewhere.
    sim = Simulator()
    first, second = sim.event(), sim.event()
    log = []

    def victim():
        log.append((yield first))
        try:
            yield second
        except Interrupt:
            log.append(("interrupted", sim.now))
        log.append(((yield sim.timeout(10, "timeout")), sim.now))

    process = sim.process(victim())
    sim.run(until=1)
    first.succeed("woken")
    process.interrupt()
    sim.run(until=2)
    second.succeed("stale")
    sim.run()
    assert log == ["woken", ("interrupted", 1), ("timeout", 11)]


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
