"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.simulation import Event, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(10)
        done.append(sim.now)
        yield sim.timeout(5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [10, 15]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(3)
        return 42

    def parent():
        value = yield sim.process(child())
        return value * 2

    proc = sim.process(parent())
    sim.run()
    assert proc.triggered
    assert proc.value == 84


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event("gate")
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(7)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(7, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_an_exception_instance():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        event.fail("boom")  # type: ignore[arg-type]
    assert not event.triggered


def test_callbacks_run_in_registration_order_and_at_once_after_the_trigger():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda fired: seen.append(("first", fired.value)))
    event.add_callback(lambda fired: seen.append(("second", fired.value)))
    assert seen == []
    event.succeed("v")
    assert seen == [("first", "v"), ("second", "v")]
    event.add_callback(lambda fired: seen.append(("late", fired.value)))
    assert seen[-1] == ("late", "v")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as error:
            caught.append(str(error))

    sim.process(waiter())
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    results = []

    def proc():
        timeouts = [sim.timeout(delay, value=delay) for delay in (5, 1, 9)]
        values = yield sim.all_of(timeouts)
        results.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert results == [(9, [5, 1, 9])]


def test_any_of_fires_on_first_event():
    sim = Simulator()
    results = []

    def proc():
        value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
        results.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert results == [(1, "fast")]


def test_context_switches_counted_only_when_blocking():
    sim = Simulator()

    def proc():
        # Already-triggered event: no context switch.
        done = sim.event()
        done.succeed()
        yield done
        # Blocking timeout: one context switch.
        yield sim.timeout(1)
        yield sim.timeout(1)

    process = sim.process(proc())
    sim.run()
    assert process.context_switches == 2


def test_context_switch_cost_delays_resumption():
    sim = Simulator(context_switch_cost=100)
    times = []

    def proc():
        yield sim.timeout(10)
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [110]


def test_a_wake_whose_resume_falls_past_until_resumes_in_the_next_slice():
    # The wake entry at t=5 is due by the bound, its resume at t=15 is not:
    # the resume goes back on the heap instead of running in place.
    sim = Simulator(context_switch_cost=10)
    times = []

    def sleeper():
        yield sim.sleep(5)
        times.append(sim.now)

    process = sim.process(sleeper())
    assert sim.run(until=8) == 8
    assert times == []
    assert process.context_switches == 1  # counted when the wake entry popped
    sim.run()
    assert times == [15]


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run_until_complete(never)


def test_run_until_complete_stops_before_an_entry_due_after_its_limit():
    sim = Simulator()

    def sleeper():
        yield sim.sleep(100)
        return "woke"

    process = sim.process(sleeper())
    with pytest.raises(SimulationError, match="reached limit t=50"):
        sim.run_until_complete(process, limit=50)
    assert sim.now == 0  # the wake entry due at t=100 did not run
    # An entry due exactly at the limit runs.
    assert sim.run_until_complete(process, limit=100) == "woke"
    assert sim.now == 100


def test_run_until_complete_returns_at_once_for_a_triggered_event():
    sim = Simulator()
    done = sim.event()
    done.succeed(3)
    sim.timeout(5)
    assert sim.run_until_complete(done) == 3
    assert sim.now == 0  # nothing was dispatched
    assert sim.run() == 5


def test_run_until_complete_leaves_later_entries_for_the_next_run():
    sim = Simulator()
    log = []

    def worker():
        yield sim.sleep(10)
        return "done"

    def bystander():
        yield sim.sleep(20)
        log.append(sim.now)

    process = sim.process(worker())
    sim.process(bystander())
    assert sim.run_until_complete(process) == "done"
    assert (sim.now, log) == (10, [])
    sim.run()
    assert (sim.now, log) == (20, [20])


def test_run_until_complete_raises_the_failure_of_its_event():
    sim = Simulator()
    gate = sim.event()

    def breaker():
        yield sim.sleep(3)
        gate.fail(ValueError("broken"))

    sim.process(breaker())
    with pytest.raises(ValueError, match="broken"):
        sim.run_until_complete(gate)
    assert sim.now == 3


def test_run_until_respects_limit():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.process(proc())
    sim.run(until=50)
    assert sim.now == 50


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_raises():
    sim = Simulator()

    def proc():
        yield 5  # type: ignore[misc]

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_error_propagates_by_default():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        raise RuntimeError("kaboom")

    sim.process(proc())
    with pytest.raises(RuntimeError):
        sim.run()


def test_many_sequential_wakeups_do_not_recurse():
    sim = Simulator()
    count = 10_000
    hops = []

    def hopper():
        for _ in range(count):
            yield sim.timeout(0)
        hops.append(sim.now)

    sim.process(hopper())
    sim.run()
    assert hops == [0]


def test_active_process_is_set_only_while_a_process_runs():
    sim = Simulator()
    seen = []

    def proc():
        seen.append(sim.active_process)
        yield sim.sleep(1)
        seen.append(sim.active_process)

    process = sim.process(proc())
    assert sim.active_process is None
    sim.run()
    assert seen == [process, process]
    assert sim.active_process is None


def test_started_turns_true_once_a_live_process_has_run():
    sim = Simulator()

    def proc():
        yield sim.sleep(10)

    sim.process(proc())
    assert not sim.started  # created, not yet dispatched
    sim.run(until=1)
    assert sim.started  # parked in its sleep
    sim.run()
    assert not sim.started  # finished processes are no longer live


def test_event_repr_mentions_state():
    sim = Simulator()
    event = Event(sim, name="probe")
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
