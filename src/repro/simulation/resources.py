"""Synchronisation primitives for simulated processes.

These are the simulated counterparts of the kernel primitives the paper's IO
stack relies on: mutexes protecting the running transaction, wait queues used
by the JBD/commit/flush threads, bounded command queues at the device, and
condition variables used to signal "transaction committed" or "cache
flushed".

All primitives use ``__slots__``.  Mutex, semaphore and store grant on their
uncontended fast paths by marking a freshly created event as triggered
directly: a fresh event cannot have callbacks yet, so the ``succeed()``
dispatch machinery is skipped entirely.  A condition builds no Event at
all: its waiters are parked processes (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Generator, Optional

from repro.simulation.engine import (
    _KIND_RESUME,
    _KIND_SLEEP,
    Event,
    Process,
    SimulationError,
    Simulator,
)


def _granted(sim: Simulator, name: str, value: Any) -> Event:
    """A fresh event born triggered — the callback-free grant path."""
    event = Event(sim, name)
    event._triggered = True  # noqa: SLF001 - no callbacks can exist yet
    event._value = value  # noqa: SLF001
    return event


class Mutex:
    """A non-reentrant mutual-exclusion lock.

    ``acquire()`` returns an :class:`Event` that fires when the lock is
    granted; ``release()`` hands the lock to the longest waiting requester.
    """

    __slots__ = ("sim", "name", "_locked", "_waiters", "_acquire_name")

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: Deque[Event] = deque()
        self._acquire_name = f"{name}.acquire"

    @property
    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._locked

    def acquire(self) -> Event:
        """Request the lock; the returned event fires when it is granted."""
        if not self._locked:
            self._locked = True
            return _granted(self.sim, self._acquire_name, self)
        event = Event(self.sim, self._acquire_name)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release the lock, granting it to the next waiter if any."""
        if not self._locked:
            raise SimulationError(f"{self.name} released while not held")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._locked = False

    def holding(self) -> "_MutexContext":
        """Generator-friendly context helper; see :class:`_MutexContext`."""
        return _MutexContext(self)


class _MutexContext:
    """Helper so process code can write ``yield from mutex.holding().run(fn)``."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: Mutex):
        self.mutex = mutex

    def run(self, body: Callable[[], Generator[Event, Any, Any]]) -> Generator[Event, Any, Any]:
        """Acquire the mutex, run the generator ``body()``, always release."""
        yield self.mutex.acquire()
        try:
            result = yield from body()
        finally:
            self.mutex.release()
        return result


class Semaphore:
    """A counting semaphore with FIFO wakeup order."""

    __slots__ = ("sim", "name", "capacity", "_available", "_waiters", "_acquire_name")

    def __init__(self, sim: Simulator, capacity: int, name: str = "semaphore"):
        if capacity < 0:
            raise SimulationError("semaphore capacity must be non-negative")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._available = capacity
        self._waiters: Deque[Event] = deque()
        self._acquire_name = f"{name}.acquire"

    @property
    def available(self) -> int:
        """Number of currently free slots."""
        return self._available

    def acquire(self) -> Event:
        """Take one slot; the returned event fires when a slot is available."""
        if self._available > 0:
            self._available -= 1
            return _granted(self.sim, self._acquire_name, self)
        event = Event(self.sim, self._acquire_name)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one slot, waking the longest waiting acquirer if any."""
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._available += 1
            if self._available > self.capacity:
                raise SimulationError(f"{self.name} released more than acquired")


class Resource(Semaphore):
    """Alias of :class:`Semaphore` with a name that reads better for devices."""

    __slots__ = ()


class Store:
    """An unbounded (or bounded) FIFO queue of items between processes."""

    __slots__ = (
        "sim",
        "name",
        "capacity",
        "_items",
        "_getters",
        "_putters",
        "_put_name",
        "_get_name",
    )

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store"):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self._put_name = f"{name}.put"
        self._get_name = f"{name}.get"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of the queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the event fires once the item is accepted."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            return _granted(self.sim, self._put_name, item)
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return _granted(self.sim, self._put_name, item)
        event = Event(self.sim, self._put_name)
        self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Dequeue the oldest item; the event fires with the item."""
        if self._items:
            item = self._items.popleft()
            event = _granted(self.sim, self._get_name, item)
            self._admit_putter()
            return event
        event = Event(self.sim, self._get_name)
        self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            put_event, item = self._putters.popleft()
            self._items.append(item)
            put_event.succeed(item)


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
    called it.  ``wait_for(predicate)`` keeps re-arming until the
    predicate holds, which is how the commit thread waits for
    "conflict-page list empty" and the application thread waits for
    "transaction durable".
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

    def wait_for(self, predicate: Callable[[], bool]) -> Generator[Event, Any, None]:
        """Generator: block until ``predicate()`` is true."""
        while not predicate():
            yield self.wait()
