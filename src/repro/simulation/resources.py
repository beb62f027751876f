"""Synchronisation primitives for simulated processes.

These are the simulated counterparts of the two kernel primitives the
paper's IO stack runs on: condition variables, on which the JBD/commit/flush
threads, the block-layer dispatcher and the storage controller wait for
work or for "transaction committed" / "conflicts resolved", and the FIFO
queue that hands each dispatched transaction from BarrierFS's commit thread
to its flush thread.

A condition builds no Event at all: its waiters are parked processes (see
docs/PERFORMANCE.md).  A store's ``get`` with an item queued returns a fresh
event marked triggered directly: it cannot have callbacks yet, so the
``succeed()`` dispatch machinery is skipped.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Optional

from repro.simulation.engine import (
    _KIND_RESUME,
    _KIND_SLEEP,
    Event,
    Process,
    SimulationError,
    Simulator,
)


class Store:
    """An unbounded FIFO queue of items between processes."""

    __slots__ = ("sim", "_items", "_getters", "_get_name")

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._get_name = f"{name}.get"

    def put(self, item: Any) -> None:
        """Hand ``item`` to the longest-waiting getter, or queue it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Dequeue the oldest item; the event fires with the item."""
        event = Event(self.sim, self._get_name)
        if self._items:
            event._triggered = True  # noqa: SLF001 - no callbacks can exist yet
            event._value = self._items.popleft()  # noqa: SLF001
        else:
            self._getters.append(event)
        return event


class Condition:
    """A broadcast condition variable.

    ``yield cond.wait()`` blocks the running process until the next
    ``notify_all()``; ``yield cond.wait(timeout)`` also wakes it ``timeout``
    microseconds from now if no notification came first.  Neither builds an
    Event: the process is parked on a waiter record ``(process, token)``,
    as ``sim.sleep`` parks it on a wake entry, and ``notify_all`` pushes
    each resume itself, with the seq, value and context switch an Event's
    wakeup would have given.  The deadline's wake entry takes the seq a
    ``sim.timeout(timeout)`` would have taken, so a deadline wait is the
    ``any_of([wait, timeout])`` it replaces, seq for seq; whichever of the
    notification and the deadline comes second finds the token cleared and
    does nothing.  ``wait`` must be yielded at once, by the process that
    called it.  A waiter that needs a predicate to hold re-checks it and
    waits again, as the commit thread does for "conflict-page list empty".
    """

    __slots__ = ("sim", "name", "waiters")

    def __init__(self, sim: Simulator, name: str = "condition"):
        self.sim = sim
        self.name = name
        #: Waiter records ``(process, token)``; a record whose token is no
        #: longer its process's is stale.  Hot callers test it before
        #: calling :meth:`notify_all`.
        self.waiters: list[tuple[Process, int]] = []

    def wait(self, timeout: Optional[float] = None) -> Process:
        """Park the running process until the next notification (or ``timeout``)."""
        sim = self.sim
        process = sim._current_process  # noqa: SLF001
        if process is None:
            raise SimulationError(f"{self.name}.wait() must be yielded by a running process")
        if timeout is None:
            token = next(sim._park_tokens)  # noqa: SLF001
        else:
            if timeout < 0:
                raise SimulationError(f"negative wait timeout: {timeout}")
            token = next(sim._sequence)  # noqa: SLF001
            heappush(sim._heap, (sim.now + timeout, token, _KIND_SLEEP, process, None, None))  # noqa: SLF001
        process._token = token  # noqa: SLF001
        self.waiters.append((process, token))
        return process

    def notify_all(self, value: Any = None) -> None:
        """Wake every current waiter."""
        waiters = self.waiters
        if waiters:
            self.waiters = []
            sim = self.sim
            heap = sim._heap  # noqa: SLF001
            sequence = sim._sequence  # noqa: SLF001
            when = sim.now + sim.context_switch_cost
            for process, token in waiters:
                if process._token == token:  # noqa: SLF001 - else stale
                    process._token = None  # noqa: SLF001
                    process.context_switches += 1
                    heappush(heap, (when, next(sequence), _KIND_RESUME, process, value, None))
