"""Core discrete-event simulation engine.

The engine provides four concepts:

* :class:`Simulator` — the event loop.  It owns the simulated clock (in
  microseconds) and a priority queue of pending entries.
* :class:`Event` — a one-shot occurrence that processes can wait on.  An
  event is *triggered* exactly once, either successfully (with a value) or
  with an exception.
* :class:`Timeout` — an event that triggers after a fixed simulated delay.
* :class:`Process` — a generator-based coroutine.  The generator yields
  events; whenever the yielded event triggers, the process resumes with the
  event's value (or the exception is thrown into the generator).  A process
  is itself an event which triggers when the generator returns.

The design is intentionally close to SimPy so that the IO-stack code reads
like ordinary concurrent systems code, but the implementation is self
contained (no external dependency) and adds first-class context-switch
accounting which the paper's evaluation (Fig. 11) requires.

Hot-path design (see docs/PERFORMANCE.md)
-----------------------------------------

Every figure of the paper is regenerated by running this loop millions of
times, so the per-entry overhead is kept allocation-free:

* Heap entries are flat tuples ``(time, seq, kind, item, value, exc)``.
  ``kind`` selects between triggering an :class:`Event` and resuming a
  :class:`Process` generator — so a process wake-up is a single tuple on
  the heap instead of an Event object plus a closure.
* A process that yields an already-triggered event is continued in place by
  a bounded trampoline in :meth:`Process._resume` instead of a zero-delay
  heap round-trip.  No context switch is charged either way, keeping the
  Fig. 11 accounting identical.
* :meth:`Simulator.run` and :meth:`Simulator.run_until_complete` inline the
  body of :meth:`Simulator.step` so the loop costs no method call per entry.
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

#: How many consecutive already-triggered yields a process consumes in one
#: resumption before falling back to the heap.  The bound keeps a pathological
#: ``while True: yield triggered_event`` loop from starving the event queue;
#: real stacks never get near it.
_TRAMPOLINE_LIMIT = 128


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation primitives."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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
    """An event that fires ``delay`` microseconds after its creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ — timeouts are the single hottest allocation.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self.name = "timeout"
        self.delay = delay
        heappush(
            sim._heap,
            (sim.now + delay, next(sim._sequence), _KIND_EVENT, self, value, None),
        )

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
            sim._schedule(0.0, self, [])
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


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event has already triggered the process continues immediately (no context
    switch is recorded); otherwise the process blocks, and when the event
    eventually fires the process is woken up, a context switch is recorded
    and — if the simulator was configured with a non-zero
    ``context_switch_cost`` — the resumption is delayed by that cost.

    A process is itself an event: it triggers with the generator's return
    value, or fails with the exception that escaped the generator.
    """

    __slots__ = ("generator", "context_switches", "_waiting_on", "daemon", "_wakeup_cb")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: str = "",
        daemon: bool = False,
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
        self._waiting_on: Optional[Event] = None
        # The bound method is cached so blocking does not allocate one per
        # wait (callbacks.append(self._wakeup) would otherwise build a fresh
        # method object every time the process blocks).
        self._wakeup_cb = self._wakeup
        #: Daemon processes do not keep the run loop's callers alive.
        self.daemon = daemon
        sim._register_process(self)
        # Start on the next dispatch cycle at the current time: processes
        # never begin executing synchronously inside ``sim.process()``.
        heappush(
            sim._heap, (sim.now, next(sim._sequence), _KIND_RESUME, self, None, None)
        )

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait."""
        if self._triggered:
            return
        target = self._waiting_on
        self._waiting_on = None
        if target is not None and not target._triggered:  # noqa: SLF001
            # Detach: the interrupt wins the race.
            try:
                target.callbacks.remove(self._wakeup_cb)
            except ValueError:
                pass
        sim = self.sim
        heappush(
            sim._heap,
            (sim.now, next(sim._sequence), _KIND_RESUME, self, None, Interrupt(cause)),
        )

    # -- internal ----------------------------------------------------------
    def _wakeup(self, event: Event, _push=heappush, _KR=_KIND_RESUME) -> None:
        """Callback attached to the event the process is blocked on."""
        if self._triggered:
            return
        self._waiting_on = None
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
        if self._triggered:
            return
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
                if exc is not None:
                    event = generator.throw(exc)
                else:
                    event = send(value)
            except StopIteration as stop:
                sim._current_process = None
                sim._unregister_process(self)
                self.succeed(stop.value)
                return
            except Interrupt:
                sim._current_process = None
                sim._unregister_process(self)
                self.succeed(None)
                return
            except Exception as error:  # escaped exception fails the process
                sim._current_process = None
                sim._unregister_process(self)
                if sim.propagate_process_errors:
                    raise
                self.fail(error)
                return
            try:
                if not event._triggered:  # noqa: SLF001
                    sim._current_process = None
                    self._waiting_on = event
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
    propagate_process_errors:
        When ``True`` (the default) an exception escaping any process aborts
        the simulation run — the right behaviour for tests.  Set to ``False``
        to record the failure on the process event instead.
    """

    def __init__(
        self,
        context_switch_cost: float = 0.0,
        propagate_process_errors: bool = True,
    ):
        self.now: float = 0.0
        self.context_switch_cost = context_switch_cost
        self.propagate_process_errors = propagate_process_errors
        self._heap: list[tuple] = []
        self._sequence = itertools.count()
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

        Bypasses ``type.__call__`` (``__new__`` + ``__init__`` dispatch):
        timeouts are the single hottest allocation in the whole suite, and
        the direct-store construction here is measurably cheaper than
        ``Timeout(self, delay, value)``.  Behaviour is identical.
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

    def process(
        self, generator: ProcessGenerator, name: str = "", daemon: bool = False
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, delay: float, event: Event, value: Any) -> None:
        heappush(
            self._heap,
            (self.now + delay, next(self._sequence), _KIND_EVENT, event, value, None),
        )

    def _register_process(self, process: Process) -> None:
        self._live_processes.add(process)

    def _unregister_process(self, process: Process) -> None:
        self._live_processes.discard(process)
        # A finished process never waits again; its cached bound method
        # would keep it in a reference cycle with itself.
        process._wakeup_cb = None  # noqa: SLF001

    # -- running ------------------------------------------------------------
    # The entry-execution body below is intentionally duplicated in step(),
    # run() and run_until_complete(): the per-entry method call it saves is
    # the single largest constant in the whole evaluation suite.

    def step(self) -> bool:
        """Process the next scheduled entry.  Returns ``False`` when idle."""
        heap = self._heap
        if not heap:
            return False
        when, _seq, kind, item, value, exc = heappop(heap)
        if when < self.now:
            raise SimulationError("time went backwards")
        self.now = when
        if kind == _KIND_EVENT:
            if not item._triggered:  # noqa: SLF001 - e.g. timeout raced interrupt
                item._triggered = True  # noqa: SLF001
                item._value = value  # noqa: SLF001
                callbacks = item.callbacks
                if callbacks:
                    item.callbacks = []
                    for callback in callbacks:
                        callback(item)
        else:
            item._resume(value, exc)  # noqa: SLF001
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue empties or ``until`` (absolute time).

        Boundary semantics (pinned by tests): every entry scheduled at a time
        ``<= until`` — including exactly at ``until`` — is executed, and the
        clock then ends at ``max(now, until)``.  The clock never moves
        backwards: ``run(until=past)`` is a no-op.
        """
        heap = self._heap
        now = self.now
        pop = heappop
        if until is None:
            # Specialized drain: no deadline peek, no bound check per entry.
            # ``self.now`` only ever changes inside this loop (callbacks and
            # process code cannot advance the clock), so the local mirror
            # needs no reload after dispatching an entry.
            while heap:
                entry = pop(heap)
                when = entry[0]
                if when > now:
                    self.now = now = when
                elif when < now:
                    raise SimulationError("time went backwards")
                if entry[2]:  # _KIND_RESUME
                    entry[3]._resume(entry[4], entry[5])  # noqa: SLF001
                else:
                    item = entry[3]
                    if not item._triggered:  # noqa: SLF001
                        item._triggered = True  # noqa: SLF001
                        item._value = entry[4]  # noqa: SLF001
                        for callback in item.callbacks:
                            callback(item)
            return now
        while heap:
            entry = heap[0]
            when = entry[0]
            if when > until:
                break
            pop(heap)
            if when > now:
                self.now = now = when
            elif when < now:
                raise SimulationError("time went backwards")
            if entry[2]:  # _KIND_RESUME
                entry[3]._resume(entry[4], entry[5])  # noqa: SLF001
            else:
                item = entry[3]
                if not item._triggered:  # noqa: SLF001
                    item._triggered = True  # noqa: SLF001
                    item._value = entry[4]  # noqa: SLF001
                    # No copy/clear dance: nothing can mutate a triggered
                    # event's callback list (append and remove both check the
                    # flag first), so iterating in place is safe.
                    for callback in item.callbacks:
                        callback(item)
        if until > self.now:
            self.now = until
        return self.now

    def run_until_complete(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` fires; return its value.

        Raises :class:`SimulationError` if the event queue drains (or the
        optional time ``limit`` is reached) before the event triggers —
        usually a sign of a deadlock in the modelled IO stack.
        """
        heap = self._heap
        pop = heappop
        if limit is None:
            now = self.now
            while not event._triggered:  # noqa: SLF001
                if not heap:
                    raise SimulationError(
                        f"simulation ran out of events before {event!r} fired "
                        "(deadlock in the modelled stack?)"
                    )
                entry = pop(heap)
                when = entry[0]
                if when > now:
                    self.now = now = when
                elif when < now:
                    raise SimulationError("time went backwards")
                if entry[2]:  # _KIND_RESUME
                    entry[3]._resume(entry[4], entry[5])  # noqa: SLF001
                else:
                    item = entry[3]
                    if not item._triggered:  # noqa: SLF001
                        item._triggered = True  # noqa: SLF001
                        item._value = entry[4]  # noqa: SLF001
                        for callback in item.callbacks:
                            callback(item)
            return event.value
        while not event._triggered:  # noqa: SLF001
            if self.now >= limit:
                raise SimulationError(
                    f"simulation reached limit t={limit} before {event!r} fired"
                )
            if not heap:
                raise SimulationError(
                    f"simulation ran out of events before {event!r} fired "
                    "(deadlock in the modelled stack?)"
                )
            when, _seq, kind, item, value, exc = pop(heap)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
            if kind == _KIND_EVENT:
                if not item._triggered:  # noqa: SLF001
                    item._triggered = True  # noqa: SLF001
                    item._value = value  # noqa: SLF001
                    for callback in item.callbacks:
                        callback(item)
            else:
                item._resume(value, exc)  # noqa: SLF001
        return event.value

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
