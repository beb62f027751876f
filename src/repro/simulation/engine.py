"""Core discrete-event simulation engine.

The engine provides four concepts:

* :class:`Simulator` — the event loop.  It owns the simulated clock (in
  microseconds) and a priority queue of pending entries.
* :class:`Event` — a one-shot occurrence that processes can wait on.  An
  event is *triggered* exactly once, either successfully (with a value) or
  with an exception.
* :class:`Timeout` — an event that triggers after a fixed simulated delay
  (built by :meth:`Simulator.timeout`).
* :class:`Process` — a generator-based coroutine.  The generator yields
  events; whenever the yielded event triggers, the process resumes with the
  event's value (or the exception is thrown into the generator).  A process
  is itself an event which triggers when the generator returns.  A process
  that only waits for time to pass yields :meth:`Simulator.sleep` instead
  of a :class:`Timeout`: same wake-up, no Event behind it.

The design is intentionally close to SimPy so that the IO-stack code reads
like ordinary concurrent systems code, but the implementation is self
contained (no external dependency) and adds first-class context-switch
accounting which the paper's evaluation (Fig. 11) requires.

Hot-path design (see docs/PERFORMANCE.md)
-----------------------------------------

Every figure of the paper is regenerated by running this loop millions of
times, so the per-entry overhead is kept allocation-free:

* Heap entries are flat tuples ``(time, seq, kind, item, value, exc)``.
  ``kind`` selects between triggering an :class:`Event`, resuming a
  :class:`Process` generator and waking a sleeping process — so a process
  wake-up is a single tuple on the heap instead of an Event object plus a
  closure.
* ``yield sim.sleep(delay)`` is a timed wait with no Event: it pushes one
  wake entry at ``now + delay`` with the seq a :meth:`Simulator.timeout`
  would have taken, and popping it does what :meth:`Process._wakeup` does
  for a fired timeout (count the context switch, push the resume at
  ``now + context_switch_cost`` with the next seq).  Seq consumption, tie
  order and the Fig. 11 accounting are those of ``yield sim.timeout(delay)``
  exactly; only the Event, its callback list and the ``_wakeup`` call are
  gone.  The wake entry's seq is the process's park token; an entry that
  pops after its process's token changed (the loser of a deadline wait's
  race) is stale and does nothing.
* A :class:`~repro.simulation.resources.Condition` wait parks the process
  the same way, on a waiter record ``(process, token)`` instead of an
  Event; ``notify_all`` pushes each resume itself, with the seq, value and
  context switch :meth:`Process._wakeup` would have given.  A wait with a
  deadline is parked on both the record and a wake entry under one token,
  so whichever fires first clears it and the other goes inert.
* A wake entry whose resume would be the next entry popped anyway (nothing
  else is due by the resume time) runs the resume at once: its seq is
  still consumed, only the heap round trip is skipped.
* A process that yields an already-triggered event is continued in place by
  a bounded trampoline in :meth:`Process._resume` instead of a zero-delay
  heap round-trip.  No context switch is charged either way, keeping the
  Fig. 11 accounting identical.
* One loop, :meth:`Simulator._loop`, dispatches every entry for both
  :meth:`Simulator.run` and :meth:`Simulator.run_until_complete`, with no
  method call per entry.  It stops when a given event has fired, the heap
  empties or the next entry is due after a bound.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from inspect import GEN_CREATED, getgeneratorstate
from typing import Any, Callable, Generator, Iterable, Optional

#: One microsecond, the base time unit of the simulator.
USEC: float = 1.0
#: One millisecond expressed in microseconds.
MSEC: float = 1000.0
#: One second expressed in microseconds.
SEC: float = 1_000_000.0

#: Heap-entry kinds.  ``seq`` is unique per entry, so tuple comparison never
#: reaches the kind/item slots.
_KIND_EVENT = 0  # item is an Event: trigger it with ``value``
_KIND_RESUME = 1  # item is a Process: resume its generator with (value, exc)
_KIND_SLEEP = 2  # item is a sleeping Process: wake it if ``seq`` is its token

#: How many consecutive already-triggered yields a process consumes in one
#: resumption before falling back to the heap.  The bound keeps a pathological
#: ``while True: yield triggered_event`` loop from starving the event queue;
#: real stacks never get near it.
_TRAMPOLINE_LIMIT = 128

_INFINITY = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation primitives."""


class Event:
    """A one-shot occurrence that processes may wait for.

    An event starts *pending*; it becomes *triggered* when either
    :meth:`succeed` or :meth:`fail` is called.  Callbacks registered before
    the trigger are invoked (in registration order) when the event fires;
    callbacks registered afterwards are invoked immediately.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self.name = name

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (only meaningful if triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if not self._triggered:
            raise SimulationError(f"event {self!r} has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"event {self!r} has already been triggered")
        self._triggered = True
        self._value = value
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError(f"event {self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (or now if it has)."""
        if self._triggered:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now:.1f}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after its creation.

    Built only by :meth:`Simulator.timeout`, which stores the fields directly.
    """

    __slots__ = ("delay",)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Timeout({self.delay}) {state} at t={self.sim.now:.1f}>"


class AllOf(Event):
    """Fires when every event in ``events`` has fired successfully."""

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._pending = 0
        self._values: list[Any] = []
        events = list(events)
        if not events:
            # Nothing to wait for: trigger on the next dispatch cycle.
            heappush(sim._heap, (sim.now, next(sim._sequence), _KIND_EVENT, self, [], None))
            return
        self._pending = len(events)
        self._values = [None] * len(events)
        for index, event in enumerate(events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def _on_fire(event: Event) -> None:
            if self._triggered:
                return
            if not event.ok:
                self.fail(event._exception)  # noqa: SLF001 - intra-module
                return
            self._values[index] = event._value  # noqa: SLF001
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))

        return _on_fire


class AnyOf(Event):
    """Fires as soon as any of ``events`` fires."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for event in events:
            event.add_callback(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self._triggered:
            return
        if event.ok:
            self.succeed(event._value)  # noqa: SLF001
        else:
            self.fail(event._exception)  # noqa: SLF001


class _Never:
    """Stands in for the stop event of a plain :meth:`Simulator.run`: it
    never fires."""

    __slots__ = ()
    _triggered = False


_NEVER = _Never()

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event has already triggered the process continues immediately (no context
    switch is recorded); otherwise the process blocks, and when the event
    eventually fires the process is woken up, a context switch is recorded
    and — if the simulator was configured with a non-zero
    ``context_switch_cost`` — the resumption is delayed by that cost.

    A process that yields ``sim.sleep(delay)`` or a condition's ``wait()``
    blocks the same way, parked on a wake entry or a waiter record instead
    of an event, and is charged the same context switch when it is woken.
    Both must be yielded at once, by the process that called them.

    A process is itself an event: it triggers with the generator's return
    value.  An exception that escapes the generator aborts the run: it
    propagates out of :meth:`Simulator.run` or
    :meth:`Simulator.run_until_complete`.
    """

    __slots__ = ("generator", "context_switches", "_token", "_wakeup_cb")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: str = "",
    ):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator; did you forget to call the "
                "generator function?"
            )
        self.generator = generator
        #: Number of times this process blocked and was later woken up.
        self.context_switches = 0
        #: Token of the current park: the seq of a sleep's or deadline's
        #: wake entry, or a negative number for a condition wait with no
        #: deadline.  ``None`` while not parked; any wake entry or waiter
        #: record of this process bearing another token is stale.
        self._token: Optional[int] = None
        # The bound method is cached so blocking does not allocate one per
        # wait (callbacks.append(self._wakeup) would otherwise build a fresh
        # method object every time the process blocks).
        self._wakeup_cb = self._wakeup
        sim._register_process(self)
        # Start on the next dispatch cycle at the current time: processes
        # never begin executing synchronously inside ``sim.process()``.
        heappush(
            sim._heap, (sim.now, next(sim._sequence), _KIND_RESUME, self, None, None)
        )

    # -- internal ----------------------------------------------------------
    def _wakeup(self, event: Event, _push=heappush, _KR=_KIND_RESUME) -> None:
        """Callback attached to the event the process is blocked on."""
        self.context_switches += 1
        exc = event._exception  # noqa: SLF001
        # Always go through the scheduler, even with zero cost, so that long
        # chains of wakeups never recurse on the Python stack.
        sim = self.sim
        _push(
            sim._heap,
            (
                sim.now + sim.context_switch_cost,
                next(sim._sequence),
                _KR,
                self,
                event._value if exc is None else None,  # noqa: SLF001
                exc,
            ),
        )

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        sim = self.sim
        generator = self.generator
        send = generator.send
        hops = 0
        # ``_current_process`` stays set across trampoline hops: nothing
        # between two ``send`` calls reads it, and hoisting the store out of
        # the loop saves two attribute writes per yield.
        sim._current_process = self
        while True:
            try:
                if exc is None:
                    event = send(value)
                else:
                    event = generator.throw(exc)
            except StopIteration as stop:
                sim._current_process = None
                sim._unregister_process(self)
                self.succeed(stop.value)
                return
            except Exception:  # an escaping exception aborts the run
                sim._current_process = None
                sim._unregister_process(self)
                raise
            try:
                if not event._triggered:  # noqa: SLF001
                    sim._current_process = None
                    # A process yielding itself is parked: its wake entry or
                    # waiter record is in place.
                    if event is not self:
                        event.callbacks.append(self._wakeup_cb)
                    return
            except AttributeError:
                sim._current_process = None
                raise SimulationError(
                    f"process {self.name!r} yielded {event!r}; processes must "
                    "yield Event instances"
                ) from None
            # The yielded event has already fired: continue without blocking
            # (no context switch is charged).  Trampoline in place instead of
            # a zero-delay heap round-trip; bounded so a pathological spin
            # cannot starve the event queue.
            hops += 1
            exception = event._exception  # noqa: SLF001
            if exception is None:
                value, exc = event._value, None  # noqa: SLF001
            else:
                value, exc = None, exception
            if hops >= _TRAMPOLINE_LIMIT:
                sim._current_process = None
                heappush(
                    sim._heap,
                    (sim.now, next(sim._sequence), _KIND_RESUME, self, value, exc),
                )
                return


class Simulator:
    """The discrete-event simulation loop.

    Parameters
    ----------
    context_switch_cost:
        Cost, in microseconds, charged every time a blocked process is woken
        up.  The paper measures roughly 100–200 µs of scheduling delay
        between cooperating kernel threads on their testbed; profiles choose
        their own value and pass it here.

    An exception escaping any process aborts the run that dispatched it.
    """

    def __init__(self, context_switch_cost: float = 0.0):
        self.now: float = 0.0
        self.context_switch_cost = context_switch_cost
        self._heap: list[tuple] = []
        self._sequence = itertools.count()
        #: Tokens of condition waits with no deadline: negative, so they
        #: never equal a seq, and drawn without consuming one.
        self._park_tokens = itertools.count(-1, -1)
        self._current_process: Optional[Process] = None
        self._live_processes: set[Process] = set()

    # -- event construction helpers ----------------------------------------
    def event(self, name: str = "", _new=object.__new__, _cls=Event) -> Event:
        """Create a fresh, untriggered :class:`Event`.

        Direct-store construction (same trick as :meth:`timeout`): the stack
        allocates milestone events for every IO, so the ``type.__call__``
        dispatch is worth skipping here too.
        """
        event = _new(_cls)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._exception = None
        event._triggered = False
        event.name = name
        return event

    def timeout(
        self,
        delay: float,
        value: Any = None,
        _new=object.__new__,
        _cls=Timeout,
        _push=heappush,
        _KE=_KIND_EVENT,
    ) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now.

        The only constructor of :class:`Timeout`: it stores the fields
        directly instead of going through ``type.__call__`` (``__new__`` +
        ``__init__`` dispatch), which is measurably cheaper for what is the
        hottest Event allocation of the stack.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        timeout = _new(_cls)
        timeout.sim = self
        timeout.callbacks = []
        timeout._value = None
        timeout._exception = None
        timeout._triggered = False
        timeout.name = "timeout"
        timeout.delay = delay
        _push(
            self._heap,
            (self.now + delay, next(self._sequence), _KE, timeout, value, None),
        )
        return timeout

    def sleep(self, delay: float, _push=heappush, _KS=_KIND_SLEEP) -> Process:
        """Block the calling process for ``delay`` microseconds.

        ``yield sim.sleep(delay)`` behaves exactly like
        ``yield sim.timeout(delay)`` — same seqs, same tie order, same
        context switch and resume value (``None``) — without building an
        Event: the wake entry takes the seq the timeout would have taken,
        and popping it schedules the resume as :meth:`Process._wakeup`
        would.  Only the running process may sleep.  It gets itself back:
        a process yielding itself is parked without a callback (waiting on
        its own completion could never end otherwise).
        """
        process = self._current_process
        if process is None:
            raise SimulationError("sleep() must be yielded by a running process")
        if delay < 0:
            raise SimulationError(f"negative sleep delay: {delay}")
        seq = next(self._sequence)
        process._token = seq  # noqa: SLF001
        _push(self._heap, (self.now + delay, seq, _KS, process, None, None))
        return process

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- process bookkeeping ------------------------------------------------
    def _register_process(self, process: Process) -> None:
        self._live_processes.add(process)

    def _unregister_process(self, process: Process) -> None:
        self._live_processes.discard(process)
        # A finished process never waits again; its cached bound method
        # would keep it in a reference cycle with itself.
        process._wakeup_cb = None  # noqa: SLF001

    # -- running ------------------------------------------------------------
    def _loop(self, stop: Event, bound: float) -> None:
        """Dispatch entries until ``stop`` has fired, the heap empties or the
        next entry is due after ``bound``.

        The one entry-dispatch loop: every entry of :meth:`run` and
        :meth:`run_until_complete` runs here, inline, with no method call of
        its own.  ``self.now`` only ever changes in this loop (callbacks and
        process code cannot advance the clock), so the local mirror needs no
        reload after dispatching an entry.
        """
        heap = self._heap
        now = self.now
        if bound < now:
            return  # every entry is due at ``now`` or later
        pop = heappop
        push = heappush
        sequence = self._sequence
        cost = self.context_switch_cost
        while not stop._triggered:  # noqa: SLF001
            try:
                when, seq, kind, item, value, exc = pop(heap)
            except IndexError:
                return
            if when > now:
                if when > bound:
                    push(heap, (when, seq, kind, item, value, exc))
                    return
                self.now = now = when
            elif when < now:
                raise SimulationError("time went backwards")
            if kind == 1:  # _KIND_RESUME
                item._resume(value, exc)  # noqa: SLF001
            elif kind:  # _KIND_SLEEP: what Process._wakeup does
                if item._token == seq:  # noqa: SLF001 - else a stale wake entry
                    item._token = None  # noqa: SLF001
                    item.context_switches += 1
                    when = now + cost
                    # Popping the wake entry triggered nothing, so running
                    # the resume now skips no check of ``stop`` or the
                    # bound that the heap round trip would have made.
                    if when > bound or (heap and heap[0][0] <= when):
                        push(heap, (when, next(sequence), 1, item, None, None))
                    else:  # the resume is due next: run it now
                        next(sequence)
                        self.now = now = when
                        item._resume(None, None)  # noqa: SLF001
            elif not item._triggered:  # noqa: SLF001 - _KIND_EVENT
                item._triggered = True  # noqa: SLF001
                item._value = value  # noqa: SLF001
                # No copy/clear dance: nothing can mutate a triggered
                # event's callback list (``add_callback`` and a blocking
                # process both check the flag first), so iterating in place
                # is safe.
                for callback in item.callbacks:
                    callback(item)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue empties or ``until`` (absolute time).

        Boundary semantics (pinned by tests): every entry scheduled at a time
        ``<= until`` — including exactly at ``until`` — is executed, and the
        clock then ends at ``max(now, until)``.  The clock never moves
        backwards: ``run(until=past)`` is a no-op.
        """
        if until is None:
            self._loop(_NEVER, _INFINITY)
        else:
            self._loop(_NEVER, until)
            if until > self.now:
                self.now = until
        return self.now

    def run_until_complete(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` fires; return its value.

        Every entry due by the optional time ``limit`` may run.  Raises
        :class:`SimulationError` if the event queue drains, or the next
        entry is due after ``limit``, before the event triggers — usually a
        sign of a deadlock in the modelled IO stack.
        """
        self._loop(event, _INFINITY if limit is None else limit)
        if event._triggered:  # noqa: SLF001
            return event.value
        if self._heap:
            raise SimulationError(
                f"simulation reached limit t={limit} before {event!r} fired"
            )
        raise SimulationError(
            f"simulation ran out of events before {event!r} fired "
            "(deadlock in the modelled stack?)"
        )

    @property
    def started(self) -> bool:
        """Whether any live process has begun executing (see :mod:`repro.hooks`)."""
        return any(
            getgeneratorstate(process.generator) != GEN_CREATED
            for process in self._live_processes
        )

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._current_process
