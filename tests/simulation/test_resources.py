"""Unit tests for simulation synchronisation primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.simulation import (
    Condition,
    Interrupt,
    Mutex,
    Semaphore,
    SimulationError,
    Simulator,
    Store,
)


def test_mutex_grants_in_fifo_order():
    sim = Simulator()
    order = []

    def worker(name, mutex, hold):
        yield mutex.acquire()
        order.append((sim.now, name, "acquired"))
        yield sim.timeout(hold)
        mutex.release()

    mutex = Mutex(sim)
    sim.process(worker("a", mutex, 10))
    sim.process(worker("b", mutex, 10))
    sim.process(worker("c", mutex, 10))
    sim.run()
    assert [entry[1] for entry in order] == ["a", "b", "c"]
    assert [entry[0] for entry in order] == [0, 10, 20]


def test_mutex_release_without_hold_raises():
    sim = Simulator()
    mutex = Mutex(sim)
    with pytest.raises(SimulationError):
        mutex.release()


def test_mutex_holding_releases_on_error():
    sim = Simulator(propagate_process_errors=False)
    mutex = Mutex(sim)

    def body():
        yield sim.timeout(1)
        raise ValueError("inner failure")

    def proc():
        yield from mutex.holding().run(body)

    process = sim.process(proc())
    sim.run()
    assert process.triggered
    assert not mutex.locked


def test_semaphore_limits_concurrency():
    sim = Simulator()
    active = []
    peak = []

    def worker(sem):
        yield sem.acquire()
        active.append(1)
        peak.append(len(active))
        yield sim.timeout(5)
        active.pop()
        sem.release()

    sem = Semaphore(sim, capacity=2)
    for _ in range(6):
        sim.process(worker(sem))
    sim.run()
    assert max(peak) == 2
    assert sem.available == 2


def test_semaphore_over_release_raises():
    sim = Simulator()
    sem = Semaphore(sim, capacity=1)
    with pytest.raises(SimulationError):
        sem.release()


def test_store_fifo_ordering():
    sim = Simulator()
    received = []

    def producer(store):
        for item in range(5):
            yield store.put(item)
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


def test_store_capacity_blocks_putter():
    sim = Simulator()
    timeline = []

    def producer(store):
        for item in range(3):
            yield store.put(item)
            timeline.append(("put", item, sim.now))

    def consumer(store):
        yield sim.timeout(10)
        for _ in range(3):
            item = yield store.get()
            timeline.append(("get", item, sim.now))

    store = Store(sim, capacity=1)
    sim.process(producer(store))
    sim.process(consumer(store))
    sim.run()
    puts = [entry for entry in timeline if entry[0] == "put"]
    assert puts[0][2] == 0
    assert puts[1][2] == 10  # blocked until the consumer drained the store
    assert [entry[1] for entry in timeline if entry[0] == "get"] == [0, 1, 2]


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


def test_condition_wait_for_predicate():
    sim = Simulator()
    state = {"ready": False}
    finished = []

    def waiter(cond):
        yield from cond.wait_for(lambda: state["ready"])
        finished.append(sim.now)

    def setter(cond):
        yield sim.timeout(3)
        cond.notify_all()  # spurious: predicate still false
        yield sim.timeout(3)
        state["ready"] = True
        cond.notify_all()

    cond = Condition(sim)
    sim.process(waiter(cond))
    sim.process(setter(cond))
    sim.run()
    assert finished == [6]


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


def test_an_interrupted_waiter_that_waits_again_keeps_its_new_place():
    # The interrupted wait's record stays ahead of ``b``; only the new one
    # may wake ``a`` (each wait has its own token, not one per process).
    sim = Simulator()
    cond = Condition(sim)
    order = []

    def a():
        try:
            yield cond.wait()
        except Interrupt:
            pass
        yield cond.wait()
        order.append("a")

    def b():
        yield sim.sleep(1)
        yield cond.wait()
        order.append("b")

    first = sim.process(a())
    sim.process(b())
    sim.run(until=2)  # both parked: a's record, then b's
    first.interrupt()
    sim.run(until=3)  # a parked again, behind b
    cond.notify_all()
    sim.run()
    assert order == ["b", "a"]


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
