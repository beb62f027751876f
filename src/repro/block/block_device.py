"""The block device: request queue, IO scheduler and dispatcher.

:class:`BlockDevice` is what the filesystems submit :class:`BlockRequest`
objects to.  It owns an IO scheduler (FIFO, or the epoch scheduler), a
dispatcher process that turns scheduled requests into device commands, and
the bookkeeping the verification and experiment code rely on (epoch
numbering, per-request milestone events, and -- after
:meth:`BlockDevice.record_history` -- the dispatch log).

``BlockDevice(sim, device)`` is the barrier-enabled configuration: epoch
scheduler + order-preserving dispatch, on a barrier-capable device.
``BlockDevice(sim, device, order_preserving=False)`` is the legacy one: the
FIFO scheduler + legacy dispatch; ordering then has to be enforced by the
caller with Wait-on-Transfer and explicit flushes, exactly as in the paper's
baseline measurements.  Everything else the dispatcher charges or bounds
(per-request CPU cost, error retries and their backoff, busy-queue
requeues) is a module constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.block.dispatch import request_to_command
from repro.block.request import _BARRIER_BIT, BlockRequest, RequestFlag, RequestOp
from repro.block.scheduler import EpochIOScheduler, NoopScheduler
from repro.simulation.engine import Event, Simulator
from repro.simulation.history import recorded, start_history
from repro.simulation.resources import Condition
from repro.storage.command import WrittenBlock
from repro.storage.device import StorageDevice
from repro.storage.errors import PowerLossError


#: Host-side CPU cost (µs) charged per dispatched request (block layer work).
SUBMIT_OVERHEAD = 3.0
#: Retry budget for a command the device completes with an error status
#: (``repro.faults`` io-error injection); once it is spent the request fails
#: with ``request.error`` set instead of retrying forever.
MAX_RETRIES = 3
#: Linear backoff between error retries (µs): retry *n* waits
#: ``n * RETRY_BACKOFF`` before re-driving the command.
RETRY_BACKOFF = 50.0
#: Bounded backpressure for a busy device: after this many queue-full
#: requeues of one request the block layer gives up and fails it with
#: ``device-busy`` rather than waiting indefinitely.  Healthy runs need one
#: or two requeues at most; the bound only matters when the device stops
#: draining.
BUSY_REQUEUE_LIMIT = 256


@dataclass
class BlockDeviceStats:
    """Counters exposed to the experiments."""

    requests_submitted: int = 0
    requests_dispatched: int = 0
    barrier_requests: int = 0
    flush_requests: int = 0
    busy_waits: int = 0
    pages_submitted: int = 0
    #: Error completions the device reported (one per errored command).
    io_errors: int = 0
    #: Commands re-driven after an error completion.
    io_retries: int = 0
    #: Requests failed after exhausting a bound: the error-retry budget
    #: (``MAX_RETRIES``) or the busy-queue requeues (``BUSY_REQUEUE_LIMIT``).
    io_failures: int = 0
    #: Queue-full requeues of the head request (bounded backpressure path).
    busy_requeues: int = 0
    #: Requests failed because the device lost power mid-dispatch.
    power_failures: int = 0


class BlockDevice:
    """Block layer instance bound to one storage device."""

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        *,
        order_preserving: bool = True,
    ):
        self.sim = sim
        self.device = device
        #: Whether the barrier-enabled path is active: the epoch scheduler
        #: replaces the plain FIFO one and barrier writes are dispatched as
        #: ``ordered`` commands.  ``False`` is the legacy stack.
        self.order_preserving = order_preserving
        if order_preserving and not device.barrier_mode.supports_barrier:
            raise ValueError(
                "order-preserving block layer requires a barrier-capable device; "
                f"{device.profile.name} is configured with mode {device.barrier_mode.value}"
            )
        self.scheduler: NoopScheduler = (
            EpochIOScheduler() if order_preserving else NoopScheduler()
        )
        self.stats = BlockDeviceStats()
        self._dispatch_log: Optional[list[BlockRequest]] = None
        self._issue_seq = itertools.count(1)
        self._dispatch_seq = itertools.count(1)
        self._issue_epoch = 0
        self._work = Condition(sim, name="blkdev.work")
        self._idle = Condition(sim, name="blkdev.idle")
        self._outstanding = 0
        sim.process(self._dispatcher_loop(), name="blkdev.dispatcher")

    # ------------------------------------------------------------------ submission
    def record_history(self) -> None:
        """Keep the dispatch log from now on (before the first IO)."""
        self._dispatch_log = start_history(
            self._dispatch_log,
            self.stats.requests_submitted > 0,
            "the block dispatch log",
        )

    @property
    def dispatch_log(self) -> list[BlockRequest]:
        """Every dispatched request, in dispatch order (needs :meth:`record_history`)."""
        return recorded(self._dispatch_log, "the block dispatch log")

    def submit(self, request: BlockRequest) -> BlockRequest:
        """Submit a request to the IO scheduler (returns immediately)."""
        sim = self.sim
        stats = self.stats
        # The milestone events, with constant names (``describe()`` still
        # identifies requests).  A fresh ``completed`` has no callbacks, so
        # the completion hook is appended without add_callback's check.
        request.dispatched = Event(sim, "req.dispatched")
        request.transferred = Event(sim, "req.transferred")
        completed = request.completed = Event(sim, "req.completed")
        completed.callbacks.append(self._on_request_complete)
        request.issue_seq = next(self._issue_seq)
        request.issue_time = sim.now
        request.issue_epoch = self._issue_epoch
        if request.flags._value_ & _BARRIER_BIT:
            if self.order_preserving:
                self._issue_epoch += 1
            stats.barrier_requests += 1
        if request.op is RequestOp.FLUSH:
            stats.flush_requests += 1
        stats.requests_submitted += 1
        stats.pages_submitted += request.num_pages
        self._outstanding += 1
        self.scheduler.add_request(request)
        if self._work.waiters:
            self._work.notify_all()
        return request

    def write(
        self,
        lba: int,
        num_pages: int = 1,
        *,
        payload: Optional[Sequence[WrittenBlock]] = None,
        flags: RequestFlag = RequestFlag.NONE,
        issuer: str = "app",
    ) -> BlockRequest:
        """Build and submit a write request."""
        request = BlockRequest(
            op=RequestOp.WRITE,
            lba=lba,
            num_pages=num_pages,
            flags=flags,
            payload=tuple(payload) if payload is not None else tuple(),
            issuer=issuer,
        )
        return self.submit(request)

    def flush(self, *, issuer: str = "app") -> BlockRequest:
        """Build and submit a cache-flush request."""
        return self.submit(BlockRequest(op=RequestOp.FLUSH, issuer=issuer))

    def read(
        self, lba: int, num_pages: int = 1, *, issuer: str = "app"
    ) -> BlockRequest:
        """Build and submit a read request."""
        request = BlockRequest(
            op=RequestOp.READ, lba=lba, num_pages=num_pages, issuer=issuer
        )
        return self.submit(request)

    def drain(self) -> Generator[Event, object, None]:
        """Generator: wait until every submitted request has completed."""
        while self._outstanding > 0:
            yield self._idle.wait()

    def _on_request_complete(self, _event: Event) -> None:
        self._outstanding -= 1
        if self._outstanding <= 0 and self._idle.waiters:
            self._idle.notify_all()

    # ------------------------------------------------------------------ dispatcher
    def _dispatcher_loop(self):
        sim = self.sim
        stats = self.stats
        sleep = sim.sleep
        next_batch = self.scheduler.next_batch
        try_submit = self.device.try_submit
        order_preserving = self.order_preserving
        dispatch_seq = self._dispatch_seq
        wait_for_work = self._work.wait
        # The device fires an unmerged request's own milestone events.  A
        # hooked device keeps the command's events and relays them: a fault
        # injector fails commands, and a tracer's command watch must fire
        # before the request's, as it always has.
        device = self.device
        direct = device.fault_injector is None and "try_submit" not in vars(device)
        while True:
            batch = next_batch()
            if not batch:
                yield wait_for_work()
                continue
            for request in batch:
                yield sleep(SUBMIT_OVERHEAD)
                command = request_to_command(request, order_preserving)
                shared = direct and not request.merged_requests
                if shared:
                    command.transferred = request.transferred
                    command.completed = request.completed
                # Fast path inlined: an accepting queue needs no generator
                # delegation; busy/powered-off falls back to the slow path.
                try:
                    submitted = try_submit(command)
                except PowerLossError:
                    stats.power_failures += 1
                    command.error = "power-loss"
                    submitted = False
                else:
                    if not submitted:
                        submitted = yield from self._backpressure_retry(command)
                if not submitted:
                    self._fail_request(request, command.error or "device-busy")
                    continue
                request.dispatch_seq = next(dispatch_seq)
                request.dispatch_time = sim.now
                stats.requests_dispatched += 1
                dispatch_log = self._dispatch_log
                if dispatch_log is not None:
                    dispatch_log.append(request)
                request.dispatched.succeed()
                for merged in request.merged_requests:
                    if merged.dispatched is not None and not merged.dispatched.triggered:
                        merged.dispatch_seq = request.dispatch_seq
                        merged.dispatch_time = request.dispatch_time
                        merged.dispatched.succeed()
                if not shared:
                    self._wire_completion(request, command)

    def _submit_with_backpressure(self, command):
        """Submit ``command``, absorbing busy and power-loss conditions.

        Returns ``True`` once the device accepted the command.  A full queue
        is retried on the device's slot event up to
        ``BUSY_REQUEUE_LIMIT`` requeues; exhausting the bound, or the device
        being powered off, returns ``False`` with ``command.error`` set so
        the caller can fail the request instead of propagating
        :class:`DeviceBusyError`/:class:`PowerLossError` into workload code.
        """
        try:
            if self.device.try_submit(command):
                return True
        except PowerLossError:
            self.stats.power_failures += 1
            command.error = "power-loss"
            return False
        return (yield from self._backpressure_retry(command))

    def _backpressure_retry(self, command):
        """Busy-queue slow path, entered after one rejected ``try_submit``.

        Accounts the rejection that brought us here, waits for a slot, and
        re-drives — the accounting/wait/attempt cycle is the same the single
        inline loop used to run.
        """
        requeues = 0
        while True:
            self.stats.busy_waits += 1
            requeues += 1
            self.stats.busy_requeues += 1
            if requeues >= BUSY_REQUEUE_LIMIT:
                self.stats.io_failures += 1
                command.error = "device-busy"
                return False
            yield self.device.slot_available()
            try:
                if self.device.try_submit(command):
                    return True
            except PowerLossError:
                self.stats.power_failures += 1
                command.error = "power-loss"
                return False

    def _fail_request(self, request: BlockRequest, error: str) -> None:
        request.fail(error)

    def _wire_completion(self, request: BlockRequest, command) -> None:
        # Bound methods instead of per-request closures: the dispatcher used
        # to build two closure cells for every dispatched command.  The
        # closure-based error-aware wiring only runs under fault injection,
        # keeping the hot path allocation-free.
        if self.device.fault_injector is None:
            command.transferred.add_callback(request.relay_transferred)
            command.completed.add_callback(request.relay_completed)
            return

        def on_transferred(event: Event) -> None:
            if command.error is None:
                request.relay_transferred(event)

        def on_completed(event: Event) -> None:
            if command.error is None:
                request.relay_completed(event)
            else:
                self._on_command_error(request, command)

        command.transferred.add_callback(on_transferred)
        command.completed.add_callback(on_completed)

    def _on_command_error(self, request: BlockRequest, command) -> None:
        """Bounded deterministic retry of a command the device failed."""
        self.stats.io_errors += 1
        if request.retries >= MAX_RETRIES:
            self.stats.io_failures += 1
            self._fail_request(request, command.error)
            return
        request.retries += 1
        self.stats.io_retries += 1
        self.sim.process(self._retry_request(request), name="blkdev.retry")

    def _retry_request(self, request: BlockRequest):
        # Linear deterministic backoff, then re-drive the rebuilt command
        # directly (the request keeps its original dispatch bookkeeping — a
        # retry is not a second dispatch).
        yield self.sim.sleep(RETRY_BACKOFF * request.retries)
        command = request_to_command(request, self.order_preserving)
        submitted = yield from self._submit_with_backpressure(command)
        if not submitted:
            self._fail_request(request, command.error or "device-busy")
            return
        self._wire_completion(request, command)

    # ------------------------------------------------------------------ queries
    @property
    def queued_requests(self) -> int:
        """Requests sitting in the IO scheduler right now."""
        return len(self.scheduler)
