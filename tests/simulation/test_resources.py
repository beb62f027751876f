"""Unit tests for simulation synchronisation primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.simulation import Condition, SimulationError, Simulator, Store


def test_store_fifo_ordering():
    sim = Simulator()
    received = []

    def producer(store):
        for item in range(5):
            store.put(item)
            yield sim.timeout(1)

    def consumer(store):
        for _ in range(5):
            item = yield store.get()
            received.append(item)

    store = Store(sim)
    sim.process(producer(store))
    sim.process(consumer(store))
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_an_item_is_put():
    sim = Simulator(context_switch_cost=2.0)
    store = Store(sim)
    got = []

    def consumer():
        got.append(((yield store.get()), sim.now))

    def producer():
        yield sim.sleep(5)
        got.append(store.put("item"))

    process = sim.process(consumer())
    sim.process(producer())
    sim.run()
    # put returns nothing; the getter wakes a context switch after the put.
    assert got == [None, ("item", 9.0)]
    assert process.context_switches == 1


def test_store_serves_waiting_getters_in_arrival_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(name, delay):
        yield sim.sleep(delay)
        got.append((name, (yield store.get())))

    def producer():
        yield sim.sleep(10)
        for item in "abc":
            store.put(item)

    for name, delay in (("late", 3), ("early", 1), ("middle", 2)):
        sim.process(consumer(name, delay))
    sim.process(producer())
    sim.run()
    assert got == [("early", "a"), ("middle", "b"), ("late", "c")]


def test_store_get_with_an_item_queued_does_not_block():
    sim = Simulator()
    store = Store(sim)
    store.put("queued")
    got = []

    def consumer():
        event = store.get()
        assert event.triggered
        got.append((yield event))

    process = sim.process(consumer())
    sim.run()
    assert got == ["queued"]
    assert process.context_switches == 0


def test_condition_notify_all_wakes_every_waiter():
    sim = Simulator()
    woken = []

    def waiter(cond, name):
        yield cond.wait()
        woken.append((name, sim.now))

    def notifier(cond):
        yield sim.timeout(5)
        cond.notify_all()

    cond = Condition(sim)
    sim.process(waiter(cond, "x"))
    sim.process(waiter(cond, "y"))
    sim.process(notifier(cond))
    sim.run()
    assert sorted(name for name, _ in woken) == ["x", "y"]
    assert all(time == 5 for _, time in woken)


def test_notify_all_hands_its_value_to_every_waiter():
    sim = Simulator()
    cond = Condition(sim)
    got = []

    def waiter(name):
        got.append((name, (yield cond.wait())))

    def notifier():
        yield sim.sleep(1)
        cond.notify_all("go")

    sim.process(waiter("x"))
    sim.process(waiter("y"))
    sim.process(notifier())
    sim.run()
    assert got == [("x", "go"), ("y", "go")]
    assert cond.waiters == []


def test_a_notify_with_no_waiter_is_not_remembered():
    sim = Simulator()
    cond = Condition(sim)
    got = []

    def notifier():
        yield sim.sleep(1)
        cond.notify_all("lost")

    def waiter():
        yield sim.sleep(2)
        got.append(((yield cond.wait(10)), sim.now))

    sim.process(notifier())
    sim.process(waiter())
    sim.run()
    assert got == [(None, 12)]  # only the deadline woke it


def test_a_timed_out_wait_resumes_with_none_and_ignores_a_later_notify():
    sim = Simulator(context_switch_cost=1.0)
    cond = Condition(sim)
    log = []

    def waiter():
        log.append(((yield cond.wait(5)), sim.now))
        yield sim.sleep(20)  # parked elsewhere when the notify comes
        log.append(("slept", sim.now))

    def notifier():
        yield sim.sleep(10)
        cond.notify_all("late")

    process = sim.process(waiter())
    sim.process(notifier())
    sim.run()
    assert log == [(None, 6.0), ("slept", 27.0)]
    assert process.context_switches == 2  # the deadline and the sleep


def test_negative_wait_timeout_raises_and_parks_nothing():
    sim = Simulator()
    cond = Condition(sim)

    def proc():
        with pytest.raises(SimulationError):
            cond.wait(-1)
        yield sim.sleep(1)

    process = sim.process(proc())
    sim.run()
    assert process.triggered
    assert cond.waiters == []


def test_a_rewaiting_process_is_woken_once_in_its_new_place():
    # ``a``'s deadline wins and it waits again behind ``b``: the stale
    # record of its first wait stays ahead of ``b`` in the list, and must
    # neither wake it twice nor move it ahead.
    sim = Simulator(context_switch_cost=1.0)
    cond = Condition(sim)
    order = []

    def a():
        yield cond.wait(1)
        yield cond.wait()
        order.append(("a", sim.now))

    def b():
        yield sim.sleep(0.5)
        yield cond.wait()
        order.append(("b", sim.now))

    def notifier():
        yield sim.sleep(5)
        cond.notify_all()

    first, second = sim.process(a()), sim.process(b())
    sim.process(notifier())
    sim.run()
    assert order == [("b", 7.0), ("a", 7.0)]
    assert (first.context_switches, second.context_switches) == (2, 2)


def test_a_woken_process_is_not_woken_again_before_it_runs():
    sim = Simulator(context_switch_cost=1.0)
    cond = Condition(sim)
    log = []

    def waiter():
        while True:
            log.append((yield cond.wait()))

    def notifier():
        yield sim.sleep(2)
        cond.notify_all("first")
        cond.notify_all("second")  # the waiter has not run again yet
        yield sim.sleep(5)
        cond.notify_all("third")

    process = sim.process(waiter())
    sim.process(notifier())
    sim.run()
    assert log == ["first", "third"]
    assert process.context_switches == 2


def test_condition_wait_must_be_yielded_by_a_running_process():
    sim = Simulator()
    cond = Condition(sim)
    with pytest.raises(SimulationError):
        cond.wait()

    def negative():
        yield cond.wait(-1)

    sim.process(negative())
    with pytest.raises(SimulationError):
        sim.run()


class _EventCondition:
    """The Event-based condition the parked one replaced: a wait is an
    Event, and a deadline wait the ``any_of`` of it and a timeout."""

    def __init__(self, sim):
        self.sim = sim
        self.waiters = []

    def wait(self, timeout=None):
        event = self.sim.event()
        self.waiters.append(event)
        if timeout is None:
            return event
        return self.sim.any_of([event, self.sim.timeout(timeout)])

    def notify_all(self, value=None):
        waiters, self.waiters = self.waiters, []
        for event in waiters:
            event.succeed(value)


#: One process: when it starts, then its actions on two conditions.  A
#: wait's deadline is ``None`` (no deadline) or small, so ties are common.
_actions = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, 1), st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("notify"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("sleep"), st.integers(0, 4)),
)
_scripts = st.tuples(st.integers(0, 4), st.lists(_actions, max_size=8))


def _run_script(scripts, cost, make_condition):
    sim = Simulator(context_switch_cost=cost)
    conditions = [make_condition(sim), make_condition(sim)]
    log = []

    def body(pid, actions):
        for step, action in enumerate(actions):
            if action[0] == "wait":
                value = yield conditions[action[1]].wait(action[2])
                log.append((pid, step, sim.now, value))
            elif action[0] == "notify":
                conditions[action[1]].notify_all(action[2])
            else:
                yield sim.sleep(action[1])

    def starter(pid, start, actions):
        yield sim.sleep(start)
        child = sim.process(body(pid, actions))
        sim.process(_watch(child, pid))

    switches = {}

    def _watch(child, pid):
        yield child
        switches[pid] = child.context_switches

    for pid, (start, actions) in enumerate(scripts):
        sim.process(starter(pid, start, actions))
    sim.run()
    return {
        "log": log,
        "switches": switches,
        "seq": next(sim._sequence),  # noqa: SLF001 - the engine's event count
        "now": sim.now,
    }


@given(scripts=st.lists(_scripts, min_size=1, max_size=5), cost=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_parked_waits_are_exactly_the_event_waits_they_replace(scripts, cost):
    # Same resume values, times and order, the same context switches and
    # the same seqs: a deadline wait's entry takes the seq the old
    # ``any_of([wait(), timeout()])`` form's timeout took.
    parked = _run_script(scripts, cost, Condition)
    reference = _run_script(scripts, cost, _EventCondition)
    assert parked == reference
