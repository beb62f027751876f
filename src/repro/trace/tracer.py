"""The cross-layer tracer: method-swapped hooks over one IO stack.

Wiring follows the fault injector's: nothing in the fs/journal/block/
storage code knows about tracing.  :meth:`Tracer.install` swaps
instrumented wrappers over a handful of instance methods through a
:class:`repro.hooks.Hooks` ledger —

* the filesystem's sync family (``fsync``/``fdatasync``/``fbarrier``/
  ``fdatabarrier``/``osync``) to open a :class:`TraceContext` per syscall
  and scope a *current-context window* around every execution slice of the
  syscall's own generator, so block requests submitted from inside the
  syscall are attributed to it;
* ``journal.request_commit`` to watch transaction milestones;
* ``block.submit`` to tag requests and observe their milestone events;
* ``device.try_submit`` to observe command milestones;
* ``device.flash.program`` to time flash program rounds —

and :meth:`uninstall` restores the originals.  An untraced stack therefore
carries **zero** tracing branches on any hot path, and because every hook
only *observes* (it creates no simulation events, advances no RNG, changes
no timing), a traced run produces bit-identical workload results to an
untraced one — the same discipline ``crash_tap`` follows.

Install a tracer right after building the stack, before the simulation
first runs (:func:`repro.hooks.install` is the ordered way to do that):
the dispatcher loop hoists bound methods on its first resume, so a late
install would miss the device-submit hook and raises instead.

Span ids, context ids and the request aliases recorded in span details all
come from per-tracer counters, never from the process-global
request/command id counters — that is what makes the exported trace
bit-identical no matter how many other simulations the worker process ran
before this one (``--jobs 1`` vs ``--jobs 4``).
"""

from __future__ import annotations

from typing import Optional

from repro.fs.vfs import SYNC_CALLS, FilesystemBase
from repro.hooks import Hooks, require_unstarted
from repro.trace.metrics import MetricsRegistry
from repro.trace.spans import Span, SpanBuffer, TraceContext


class _RequestRecord:
    """In-flight bookkeeping for one traced block request."""

    __slots__ = ("alias", "ctx", "request", "transfer_time")

    def __init__(self, alias: int, ctx: Optional[TraceContext], request):
        self.alias = alias
        self.ctx = ctx
        self.request = request
        self.transfer_time: Optional[float] = None


class Tracer:
    """Collects spans and streaming metrics from one installed IO stack."""

    def __init__(self, *, buffer_size: int = 65_536, metrics: bool = True):
        self.spans = SpanBuffer(buffer_size)
        self.contexts: list[TraceContext] = []
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self._stack = None
        self._sim = None
        self._hooks = Hooks()
        self._current: Optional[TraceContext] = None
        self._ctx_counter = 0
        self._span_counter = 0
        self._alias_counter = 0
        #: request_id -> record; live while the request is in flight, so
        #: device commands (tagged with the request id) can be attributed to
        #: the same context.
        self._open_requests: dict[int, _RequestRecord] = {}
        self._watched_txids: set[int] = set()

    # ------------------------------------------------------------------ install
    @property
    def installed(self) -> bool:
        """Whether the tracer is currently hooked into a stack."""
        return self._stack is not None

    def install(self, stack) -> "Tracer":
        """Swap the instrumented wrappers over ``stack``'s hook points."""
        if self._stack is not None:
            raise RuntimeError("tracer is already installed")
        require_unstarted(stack.sim, "a tracer")
        self._stack = stack
        self._sim = stack.sim
        swap = self._hooks.swap
        fs = stack.fs
        # Every sync-family call the filesystem implements.
        for name in SYNC_CALLS:
            implementation = getattr(type(fs), name, None)
            if implementation is None:
                continue
            if implementation is getattr(FilesystemBase, name, None):
                continue  # unimplemented base stub (raises, never yields)
            swap(fs, name, self._make_sync_wrapper(getattr(fs, name), name))
        journal = getattr(fs, "journal", None)
        if journal is not None and hasattr(journal, "request_commit"):
            swap(journal, "request_commit", self._make_commit_wrapper(journal.request_commit))
        block, device, flash = stack.block, stack.device, stack.device.flash
        swap(block, "submit", self._make_submit_wrapper(block.submit))
        swap(device, "try_submit", self._make_try_submit_wrapper(device.try_submit))
        swap(flash, "program", self._make_program_wrapper(flash.program))
        return self

    def uninstall(self) -> None:
        """Restore every swapped method and detach from the stack."""
        self._hooks.restore()
        self._stack = None
        self._sim = None
        self._current = None

    # ------------------------------------------------------------------ recording
    def _emit(
        self,
        layer: str,
        op: str,
        start: float,
        end: float,
        *,
        ctx: Optional[TraceContext] = None,
        epoch: Optional[int] = None,
        detail: Optional[dict] = None,
    ) -> Span:
        self._span_counter += 1
        span = Span(
            seq=self._span_counter,
            layer=layer,
            op=op,
            start=start,
            end=end,
            ctx=ctx.ctx_id if ctx is not None else None,
            epoch=epoch,
            detail=detail if detail is not None else {},
        )
        self.spans.append(span)
        metrics = self.metrics
        if metrics is not None:
            metrics.count(f"spans.{layer}")
            metrics.observe_duration(f"{layer}.{op}", span.duration)
            # Queue-depth gauges, sampled at every span boundary: the block
            # scheduler's backlog, the device command queue, and the block
            # layer's outstanding (submitted, not completed) requests.
            stack = self._stack
            if stack is not None:
                now = self._sim.now
                metrics.gauge("queue.block", now, stack.block.queued_requests)
                metrics.gauge("queue.device", now, stack.device.queue_occupancy)
                metrics.gauge("outstanding.block", now, stack.block._outstanding)
        return span

    def new_context(self, op: str, issuer: str) -> TraceContext:
        """Open a syscall-level trace context."""
        self._ctx_counter += 1
        ctx = TraceContext(
            ctx_id=self._ctx_counter, op=op, issuer=issuer, start=self._sim.now
        )
        self.contexts.append(ctx)
        if self.metrics is not None:
            self.metrics.count(f"syscalls.{op}")
        return ctx

    # ------------------------------------------------------------------ fs hooks
    def _make_sync_wrapper(self, original, name: str):
        tracer = self

        def traced_sync(file, *, issuer: str = "app", **kwargs):
            return tracer._traced_sync(original, name, file, issuer, kwargs)

        traced_sync.__name__ = name
        return traced_sync

    def _traced_sync(self, original, name: str, file, issuer: str, kwargs):
        # The current-context window: ``self._current`` is set only while
        # the syscall's own generator executes, so any block.submit() on
        # this slice is attributed to this context.  Other simulated
        # processes (journal threads, the dispatcher) run outside the
        # window and stay unattributed.  Nested sync calls (fbarrier ->
        # fdatabarrier) join the enclosing context instead of opening a
        # second one.
        parent = self._current
        ctx = parent if parent is not None else self.new_context(name, issuer)
        start = self._sim.now
        inner = original(file, issuer=issuer, **kwargs)
        value = None
        pending_exc: Optional[BaseException] = None
        result = None
        try:
            while True:
                previous = self._current
                self._current = ctx
                try:
                    if pending_exc is not None:
                        exc, pending_exc = pending_exc, None
                        item = inner.throw(exc)
                    else:
                        item = inner.send(value)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    self._current = previous
                try:
                    value = yield item
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as thrown:  # forwarded on the next slice
                    pending_exc = thrown
                    value = None
        finally:
            detail = {"issuer": issuer}
            file_name = getattr(file, "name", None)
            if file_name is not None:
                detail["file"] = str(file_name)
            if parent is not None:
                detail["nested"] = True
            else:
                ctx.end = self._sim.now
            self._emit("fs", name, start, self._sim.now, ctx=ctx, detail=detail)
        return result

    # ------------------------------------------------------------------ journal hooks
    def _make_commit_wrapper(self, original):
        tracer = self

        def traced_request_commit(*args, **kwargs):
            txn = original(*args, **kwargs)
            if txn is not None:
                tracer._watch_transaction(txn)
            return txn

        return traced_request_commit

    def _watch_transaction(self, txn) -> None:
        txid = txn.txid
        if txid in self._watched_txids:
            return
        self._watched_txids.add(txid)
        ctx = self._current
        sim = self._sim
        start = sim.now

        def on_dispatched(_event) -> None:
            self._emit(
                "journal", "dispatch", start, sim.now, ctx=ctx,
                detail={"txid": txid},
            )

        def on_durable(_event) -> None:
            self._emit(
                "journal", "commit", start, sim.now, ctx=ctx,
                detail={"txid": txid},
            )

        if txn.dispatched_event is not None:
            txn.dispatched_event.add_callback(on_dispatched)
        if txn.durable_event is not None:
            txn.durable_event.add_callback(on_durable)

    # ------------------------------------------------------------------ block hooks
    def _make_submit_wrapper(self, original):
        tracer = self

        def traced_submit(request):
            result = original(request)
            tracer._watch_request(request)
            return result

        return traced_submit

    def _watch_request(self, request) -> None:
        self._alias_counter += 1
        ctx = self._current
        record = _RequestRecord(self._alias_counter, ctx, request)
        self._open_requests[request.request_id] = record
        sim = self._sim
        if ctx is not None:
            issue = request.issue_time
            ctx.note_issue(issue if issue is not None else sim.now)

        def on_dispatched(_event) -> None:
            if ctx is not None:
                dispatch = request.dispatch_time
                ctx.note_dispatch(dispatch if dispatch is not None else sim.now)

        def on_transferred(_event) -> None:
            record.transfer_time = sim.now
            if ctx is not None:
                ctx.note_transfer(sim.now)

        def on_completed(_event) -> None:
            self._close_request(record)

        request.dispatched.add_callback(on_dispatched)
        request.transferred.add_callback(on_transferred)
        request.completed.add_callback(on_completed)

    def _close_request(self, record: _RequestRecord, *, unfinished: bool = False) -> None:
        request = record.request
        if self._open_requests.pop(request.request_id, None) is None:
            return  # already closed
        now = self._sim.now
        ctx = record.ctx
        epoch = request.issue_epoch
        detail = {
            "req": record.alias,
            "op": request.op.value,
            "pages": request.num_pages,
            "issuer": request.issuer,
        }
        if request.is_barrier:
            detail["barrier"] = True
        if request.error is not None:
            detail["error"] = request.error
        if request.retries:
            detail["retries"] = request.retries
        if unfinished:
            detail["unfinished"] = True
        # Milestones, clamped monotonically: merged requests never get their
        # own dispatch_time, and failed requests may skip milestones.
        issue = request.issue_time if request.issue_time is not None else now
        dispatch = request.dispatch_time if request.dispatch_time is not None else issue
        dispatch = min(max(dispatch, issue), now)
        transfer = record.transfer_time if record.transfer_time is not None else dispatch
        transfer = min(max(transfer, dispatch), now)
        self._emit("block", "queue", issue, dispatch, ctx=ctx, epoch=epoch,
                   detail=detail)
        self._emit("block", "transfer", dispatch, transfer, ctx=ctx, epoch=epoch,
                   detail={"req": record.alias})
        self._emit("block", "complete", transfer, now, ctx=ctx, epoch=epoch,
                   detail={"req": record.alias})

    # ------------------------------------------------------------------ device hooks
    def _make_try_submit_wrapper(self, original):
        tracer = self

        def traced_try_submit(command):
            accepted = original(command)
            if accepted:
                tracer._watch_command(command)
            return accepted

        return traced_try_submit

    def _watch_command(self, command) -> None:
        record = self._open_requests.get(command.tag)
        alias = record.alias if record is not None else None
        ctx = record.ctx if record is not None else None

        def on_completed(_event) -> None:
            detail = {"cmd": command.kind.value, "pages": command.num_pages}
            if alias is not None:
                detail["req"] = alias
            if command.is_barrier:
                detail["barrier"] = True
            if command.error is not None:
                detail["error"] = command.error
            epoch = command.epoch
            now = self._sim.now
            accept = command.accept_time if command.accept_time is not None else now
            service = command.service_start_time
            service = min(max(service if service is not None else accept, accept), now)
            transfer = command.transfer_time
            transfer = min(max(transfer if transfer is not None else service, service), now)
            self._emit("device", "queue", accept, service, ctx=ctx, epoch=epoch,
                       detail={"cmd": command.kind.value})
            self._emit("device", command.kind.value, service, transfer,
                       ctx=ctx, epoch=epoch, detail=detail)
            self._emit("device", "complete", transfer, now, ctx=ctx, epoch=epoch,
                       detail={"cmd": command.kind.value})

        command.completed.add_callback(on_completed)

    # ------------------------------------------------------------------ flash hooks
    def _make_program_wrapper(self, original):
        tracer = self

        def traced_program(num_pages: int, **kwargs):
            event = original(num_pages, **kwargs)
            if num_pages > 0:
                start = tracer._sim.now

                def on_programmed(_event) -> None:
                    tracer._emit(
                        "flash", "program", start, tracer._sim.now,
                        detail={"pages": num_pages},
                    )

                event.add_callback(on_programmed)
            return event

        return traced_program

    # ------------------------------------------------------------------ finalize
    def finalize(self) -> None:
        """Close any request bookkeeping still open at the end of a run.

        Requests outstanding when the measured process finished (trailing
        writeback, a journal commit the workload never waited for) emit
        their partial spans flagged ``unfinished``; everything that did
        complete was already closed by its completion callback.
        """
        for record in list(self._open_requests.values()):
            self._close_request(record, unfinished=True)

    def trace_tail(self, count: int = 12) -> list[str]:
        """The most recent ``count`` spans, rendered compactly."""
        return [span.describe() for span in self.spans.tail(count)]

    def finalized_tail(self, count: int = 12) -> list[str]:
        """The tail :meth:`finalize` would leave, without closing anything.

        Renders the ``unfinished`` spans of the requests still in flight
        into a scratch copy of the ring, then restores the ring, the
        open-request map and the span counter, so the run can go on exactly
        as if nothing had been asked.  Metrics do not observe the scratch
        spans.
        """
        spans, metrics = self.spans, self.metrics
        ring, dropped = spans._spans.copy(), spans.dropped
        open_requests, counter = dict(self._open_requests), self._span_counter
        self.metrics = None
        try:
            self.finalize()
            return self.trace_tail(count)
        finally:
            spans._spans, spans.dropped = ring, dropped
            self._open_requests, self._span_counter = open_requests, counter
            self.metrics = metrics
