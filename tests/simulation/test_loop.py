"""One dispatch loop behind every way of driving the simulator.

``sim.run()``, ``sim.run(until=...)`` called in slices and
``sim.run_until_complete(process)`` all dispatch through the same loop, so
a random script of sleeps, timeouts, condition waits (with and without a
deadline), notifications and already-triggered yields must leave the same
log, the same context switches, the same clock and the same sequence
counter whichever of them drives it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Condition, Simulator

#: When the joining process wakes every waiter and tells the scripts to
#: stop, so no wait is left parked forever.
CLOSE_AT = 12
#: How long the joining process sleeps after the last script ends: longer
#: than any deadline plus a context switch, so it is the run's last entry.
PAD = 10

#: One script: when it starts, then its actions.  Delays and deadlines are
#: small so ties are common; a wait's deadline is ``None`` or 0-4 us.
_actions = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 4)),
    st.tuples(st.just("timeout"), st.integers(0, 4)),
    st.tuples(st.just("wait"), st.integers(0, 1), st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("notify"), st.integers(0, 1)),
    st.just(("triggered",)),
)
_scripts = st.tuples(st.integers(0, 4), st.lists(_actions, max_size=8))


def _build(scripts, cost):
    """A simulator loaded with ``scripts``, the process joining them, and a
    function that reads what the run left behind."""
    sim = Simulator(context_switch_cost=cost)
    conditions = [Condition(sim), Condition(sim)]
    log = []
    processes = []
    children = []
    closed = False

    def body(pid, actions):
        for step, action in enumerate(actions):
            if closed:
                return
            kind = action[0]
            if kind == "notify":
                conditions[action[1]].notify_all((pid, step))
                continue
            if kind == "sleep":
                value = yield sim.sleep(action[1])
            elif kind == "timeout":
                value = yield sim.timeout(action[1], step)
            elif kind == "wait":
                value = yield conditions[action[1]].wait(action[2])
            else:
                value = yield sim.event().succeed(step)
            log.append((pid, step, sim.now, value))

    def starter(pid, start, actions):
        yield sim.sleep(start)
        child = sim.process(body(pid, actions))
        children.append(child)
        processes.append(child)

    def joiner():
        nonlocal closed
        yield sim.sleep(CLOSE_AT)
        closed = True
        for condition in conditions:
            condition.notify_all("closing")
        for child in children:
            yield child
        yield sim.sleep(PAD)

    for pid, (start, actions) in enumerate(scripts):
        processes.append(sim.process(starter(pid, start, actions)))
    join = sim.process(joiner())
    processes.append(join)

    def outcome():
        return {
            "log": log,
            "switches": [process.context_switches for process in processes],
            "now": sim.now,
            "seq": next(sim._sequence),  # noqa: SLF001 - the engine's event count
        }

    return sim, join, outcome


def _run(scripts, cost):
    sim, _, outcome = _build(scripts, cost)
    sim.run()
    return outcome()


def _run_in_slices(scripts, cost, bounds):
    sim, _, outcome = _build(scripts, cost)
    for until in bounds:
        sim.run(until=until)
        # Nothing due after ``until`` ran, not even a resume due next.
        assert sim.now == until
    sim.run()
    return outcome()


def _run_until_complete(scripts, cost, limit):
    sim, join, outcome = _build(scripts, cost)
    sim.run_until_complete(join, limit=limit)
    return outcome()


@given(
    scripts=st.lists(_scripts, min_size=1, max_size=5),
    cost=st.integers(0, 2),
    cuts=st.lists(st.integers(0, 200), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_every_entry_point_runs_the_same_simulation(scripts, cost, cuts):
    reference = _run(scripts, cost)
    end = reference["now"]
    # Slice bounds land on entry times and between them, all before the
    # joining process ends (a later bound would move the final clock).
    bounds = sorted(cut / 2 for cut in cuts if cut / 2 < end)
    assert _run_in_slices(scripts, cost, bounds) == reference
    assert _run_until_complete(scripts, cost, None) == reference
    # Entries due exactly at the limit run.
    assert _run_until_complete(scripts, cost, end) == reference
