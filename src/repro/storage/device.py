"""The simulated barrier-capable flash storage device.

:class:`StorageDevice` glues the command queue, the writeback cache, the
flash backend and (for the in-order-recovery barrier mode) the log-structured
FTL into the device the block layer talks to.  Its behaviour follows the
anatomy the paper lays out:

* Commands are accepted into a bounded command queue; the host observes
  *device busy* when the queue is full.
* A controller loop picks queued commands according to their SCSI task
  attribute (``simple`` / ``ordered`` / ``head-of-queue``) and services them
  one at a time over the (serial) host link: command decode, DMA transfer,
  completion.  This is where order-preserving dispatch gets its transfer
  order guarantee from: an ``ordered`` barrier write cannot be serviced
  before older commands nor after younger ones.
* Transferred pages land in the volatile writeback cache tagged with the
  current *persist epoch*; a barrier write closes the epoch.
* A background flusher drains the cache to flash according to the configured
  :class:`~repro.storage.barrier_modes.BarrierMode` — in arbitrary order for
  a legacy device, in log order for the paper's in-order-recovery UFS
  firmware, epoch-by-epoch for in-order write-back, or as atomic groups for
  transactional write-back.  Power-loss-protected devices treat pages as
  durable on arrival.
* ``FLUSH`` commands wait until everything dirty at their service time is
  durable; ``FUA`` writes program their payload synchronously.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.simulation.engine import Event, Simulator
from repro.simulation.resources import Condition
from repro.simulation.stats import TimeSeries, TimeWeightedStat
from repro.storage.barrier_modes import BarrierMode, default_barrier_mode
from repro.storage.command import Command, CommandKind
from repro.storage.command_queue import CommandQueue
from repro.storage.errors import DeviceBusyError, PowerLossError
from repro.storage.flash import FlashBackend
from repro.storage.ftl import LogStructuredFTL
from repro.storage.profiles import DeviceProfile
from repro.storage.writeback_cache import CacheEntry, WritebackCache

__all__ = ["DeviceBusyError", "DeviceStats", "StorageDevice"]


@dataclass
class DeviceStats:
    """Aggregate counters the experiments read after a run."""

    writes_serviced: int = 0
    reads_serviced: int = 0
    flushes_serviced: int = 0
    pages_transferred: int = 0
    barrier_writes: int = 0
    fua_writes: int = 0
    busy_rejections: int = 0
    commands_submitted: int = 0
    io_errors: int = 0
    queue_depth: TimeWeightedStat = field(default_factory=TimeWeightedStat)


class StorageDevice:
    """A barrier-capable flash device exposed to the block layer."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        *,
        barrier_mode: Optional[BarrierMode] = None,
        seed: int = 0,
        track_queue_depth: bool = False,
        max_dirty_age: float = 5000.0,
    ):
        self.sim = sim
        self.profile = profile
        self.barrier_mode = barrier_mode if barrier_mode is not None else default_barrier_mode(profile)
        if self.barrier_mode.supports_barrier and not profile.supports_barrier:
            raise ValueError(
                f"device {profile.name} does not support the barrier command; "
                f"requested mode {self.barrier_mode.value}"
            )
        self.queue = CommandQueue(profile.queue_depth, seed=seed)
        self.cache = WritebackCache(profile.cache_pages)
        self.flash = FlashBackend(sim, profile)
        self.ftl: Optional[LogStructuredFTL] = (
            LogStructuredFTL(profile.segment_pages)
            if self.barrier_mode is BarrierMode.IN_ORDER_RECOVERY
            else None
        )
        self.stats = DeviceStats()
        self.current_epoch = 0
        #: How long the controller lets a dirty page sit in the cache before
        #: writing it back even without pressure (background drain interval).
        self.max_dirty_age = max_dirty_age
        self._rng = random.Random(seed)
        self._flush_group_counter = 0
        self._in_flight: set[int] = set()
        self._drain_watermark: Optional[int] = None
        #: Crash-point tap: when set, called with the boundary kind
        #: (``"transfer"`` / ``"program"`` / ``"flush"``) and the page count
        #: every time the transferred or durable state changes.  The crash
        #: exploration subsystem (:mod:`repro.crashlab`) uses it to record
        #: boundaries during a pre-run and to cut power at an exact boundary
        #: during a replay (by raising from inside the tap).  Must not touch
        #: the simulation or any RNG — a tap that only observes leaves the
        #: run bit-identical to an untapped one.
        self.crash_tap: Optional[Callable[[str, int], None]] = None
        #: Fault-injection hook (:class:`repro.faults.FaultInjector`).  Like
        #: ``crash_tap`` this is duck-typed so the storage layer does not
        #: import :mod:`repro.faults`.  Installing an injector also swaps
        #: ``_service_write``/``_service_read`` for the checked variants that
        #: run the per-command hook site, so with no injector the hot path
        #: contains zero injector branches.  Cold sites (flush, FUA, program
        #: rounds) keep a single attribute test instead.
        self.fault_injector = None

        self._queue_activity = Condition(sim, name="device.queue")
        self._slot_freed = Condition(sim, name="device.slot")
        self._cache_work = Condition(sim, name="device.cachework")
        self._durability_advanced = Condition(sim, name="device.durability")

        self.queue_depth_series: Optional[TimeSeries] = (
            TimeSeries("device.queue_depth") if track_queue_depth else None
        )
        self._powered_on = True

        sim.process(self._controller_loop(), name=f"{profile.name}.controller", daemon=True)
        sim.process(self._flusher_loop(), name=f"{profile.name}.flusher", daemon=True)

    # ------------------------------------------------------------------ host API
    def submit(self, command: Command) -> Command:
        """Submit a command; raises :class:`DeviceBusyError` if the queue is full."""
        if not self.try_submit(command):
            raise DeviceBusyError(f"{self.profile.name}: command queue full")
        return command

    def try_submit(self, command: Command) -> bool:
        """Submit a command if the queue has space; returns ``True`` on success."""
        if not self._powered_on:
            raise PowerLossError()
        command.attach(self.sim)
        if not self.queue.try_insert(command):
            self.stats.busy_rejections += 1
            return False
        command.submit_time = self.sim.now if command.submit_time is None else command.submit_time
        command.accept_time = self.sim.now
        self.stats.commands_submitted += 1
        self._record_queue_depth()
        self._queue_activity.notify_all()
        return True

    @property
    def has_queue_space(self) -> bool:
        """Whether a submit right now would be accepted."""
        return self.queue.has_space

    def slot_available(self) -> Event:
        """Event that fires the next time a queue slot frees up."""
        if self.queue.has_space:
            event = self.sim.event(name="device.slot.ready")
            event.succeed()
            return event
        return self._slot_freed.wait()

    @property
    def queue_occupancy(self) -> int:
        """Number of commands currently sitting in the command queue."""
        return self.queue.occupancy

    # ------------------------------------------------------------------ controller
    def _record_queue_depth(self) -> None:
        depth = self.queue.occupancy
        self.stats.queue_depth.update(self.sim.now, depth)
        if self.queue_depth_series is not None:
            self.queue_depth_series.record(self.sim.now, depth)

    def _controller_loop(self):
        # The loop drains every queued command before it sleeps: one
        # selection per service completion (selection timing is load-bearing:
        # the SCSI-attribute RNG draws must see exactly the commands that
        # arrived while the previous command was in service).  All per-entry
        # attribute lookups are hoisted out of the loop.
        sim = self.sim
        timeout = sim.timeout
        select_next = self.queue.select_next
        command_overhead = self.profile.command_overhead
        flush_kind = CommandKind.FLUSH
        read_kind = CommandKind.READ
        wait_for_work = self._queue_activity.wait
        record_depth = self._record_queue_depth
        notify_slot = self._slot_freed.notify_all
        while True:
            command = select_next()
            if command is None:
                yield wait_for_work()
                continue
            record_depth()
            notify_slot()
            command.service_start_time = sim.now
            yield timeout(command_overhead)

            kind = command.kind
            if kind is flush_kind:
                # Flushes proceed asynchronously so that the device keeps
                # accepting and transferring queued writes while the cache
                # drains (this is what lets the dual-mode journal pipeline
                # journal commits).
                sim.process(
                    self._service_flush(command), name="device.flush", daemon=True
                )
            elif kind is read_kind:
                yield from self._service_read(command)
            else:
                yield from self._service_write(command)

    def _fail_command(self, command: Command, error: str):
        """Complete ``command`` with an error status instead of servicing it.

        The command transfers nothing and admits nothing to the cache — the
        device state is exactly as if the command had never been picked, which
        is what lets the block layer retry it without perturbing transfer
        order bookkeeping.  Both milestone events still fire (with
        ``command.error`` set) so waiters never deadlock.
        """
        self.stats.io_errors += 1
        yield self.sim.timeout(self.profile.completion_overhead)
        command.error = error
        command.transfer_time = self.sim.now
        command.transferred.succeed()
        command.complete_time = self.sim.now
        command.completed.succeed()

    def _service_read_fast(self, command: Command):
        """Service a read (the hot path; the checked form delegates here)."""
        sim = self.sim
        yield self.flash.read(command.num_pages)
        yield sim.timeout(command.num_pages * self.profile.transfer_time_per_page)
        command.transfer_time = sim.now
        command.transferred.succeed()
        yield sim.timeout(self.profile.completion_overhead)
        command.complete_time = sim.now
        self.stats.reads_serviced += 1
        command.completed.succeed()

    def _service_read_checked(self, command: Command):
        """Read service with the fault-injection hook site active."""
        error = self.fault_injector.command_error(command)
        if error is not None:
            yield from self._fail_command(command, error)
            return
        yield from self._service_read_fast(command)

    def _service_write_fast(self, command: Command):
        """Service a write (the hot path; the checked form delegates here)."""
        profile = self.profile
        sim = self.sim
        if command.wants_preflush:
            # A lying device acknowledges the pre-flush without draining the
            # cache; the FUA payload itself is still programmed for real.
            injector = self.fault_injector
            if injector is None or not injector.lie_on_flush():
                yield from self._drain_dirty_upto(self.cache.last_dirty_seq)
            yield sim.timeout(profile.flush_overhead)

        yield sim.timeout(command.num_pages * profile.transfer_time_per_page)
        now = sim.now
        command.transfer_time = now
        epoch = self.current_epoch
        command.epoch = epoch
        entries = self.cache.admit(
            command.payload,
            epoch=epoch,
            time=now,
            command_id=command.command_id,
            durable_immediately=self.barrier_mode is BarrierMode.PLP,
        )
        if command.is_barrier and self.barrier_mode.supports_barrier:
            self.current_epoch = epoch + 1
            self.stats.barrier_writes += 1
        self.stats.pages_transferred += command.num_pages
        command.transferred.succeed()
        self._cache_work.notify_all()
        if self.crash_tap is not None:
            self.crash_tap("transfer", command.num_pages)

        if command.is_fua:
            self.stats.fua_writes += 1
            yield from self._persist_fua(entries)

        yield sim.timeout(profile.completion_overhead)
        command.complete_time = sim.now
        self.stats.writes_serviced += 1
        command.completed.succeed()

    def _service_write_checked(self, command: Command):
        """Write service with the fault-injection hook site active."""
        error = self.fault_injector.command_error(command)
        if error is not None:
            yield from self._fail_command(command, error)
            return
        yield from self._service_write_fast(command)

    #: The service forms the controller calls; a fault injector swaps in the
    #: checked ones on the instance.
    _service_read = _service_read_fast
    _service_write = _service_write_fast

    def _persist_fua(self, entries: list[CacheEntry]):
        """Program a FUA payload synchronously (bypassing the flusher)."""
        pending = [entry for entry in entries if not entry.is_durable]
        if not pending:
            return
        overhead = self.barrier_mode.program_overhead(self.profile)
        for entry in pending:
            self._in_flight.add(entry.transfer_seq)
        if self.ftl is not None:
            pages = self.ftl.append_batch(pending, self.sim.now)
        else:
            pages = None
        yield self.flash.program(len(pending), overhead_factor=overhead)
        if self.fault_injector is not None:
            self.fault_injector.damage_batch(self, pending)
        self.cache.mark_durable(pending, self.sim.now)
        if self.ftl is not None and pages is not None:
            self.ftl.mark_programmed(pages, self.sim.now)
        for entry in pending:
            self._in_flight.discard(entry.transfer_seq)
        self._durability_advanced.notify_all()
        if self.crash_tap is not None:
            self.crash_tap("program", len(pending))

    def _service_flush(self, command: Command):
        injector = self.fault_injector
        if injector is None or not injector.lie_on_flush():
            yield from self._drain_dirty_upto(self.cache.last_dirty_seq)
        yield self.sim.timeout(self.profile.flush_overhead)
        command.transfer_time = self.sim.now
        command.transferred.succeed()
        command.complete_time = self.sim.now
        self.stats.flushes_serviced += 1
        command.completed.succeed()
        if self.crash_tap is not None:
            self.crash_tap("flush", 0)

    def _drain_dirty_upto(self, watermark: Optional[int]):
        """Wait until every cache entry admitted up to ``watermark`` is durable.

        The dirty window is transfer-ordered, so "anything at or below the
        watermark still dirty" is a single head check instead of a scan.
        """
        if watermark is None:
            return
        if self._drain_watermark is None or watermark > self._drain_watermark:
            self._drain_watermark = watermark
        self._cache_work.notify_all()
        cache = self.cache
        while True:
            first = cache.first_dirty
            if first is None or first.transfer_seq > watermark:
                return
            yield self._durability_advanced.wait()

    # ------------------------------------------------------------------ flusher
    def _first_pending(self) -> Optional[CacheEntry]:
        """Oldest dirty entry not already being programmed."""
        first = self.cache.first_dirty
        in_flight = self._in_flight
        if first is None or not in_flight:
            return first
        for entry in self.cache.iter_dirty():
            if entry.transfer_seq not in in_flight:
                return entry
        return None

    def _flusher_loop(self):
        # Drain policy (unchanged from the scan-based implementation, but
        # now O(1) per wakeup): the flusher programs when (i) the host asked
        # for durability (flush/FUA set a drain watermark), (ii) enough pages
        # accumulated to fill one program round, or (iii) the oldest dirty
        # page has sat in the cache longer than ``max_dirty_age``.  Otherwise
        # it keeps coalescing, which is what lets a journal commit's D, JD
        # and JC all go to flash in a single program round.
        sim = self.sim
        cache = self.cache
        in_flight = self._in_flight
        parallelism = self.profile.parallelism
        while True:
            first = self._first_pending()
            if first is None:
                yield self._cache_work.wait()
                continue
            watermark = self._drain_watermark
            oldest_age = sim.now - first.transfer_time
            if not (
                (watermark is not None and first.transfer_seq <= watermark)
                or cache.resident_pages - len(in_flight) >= parallelism
                or oldest_age >= self.max_dirty_age
            ):
                remaining = max(1.0, self.max_dirty_age - oldest_age)
                yield sim.any_of([self._cache_work.wait(), sim.timeout(remaining)])
                continue
            batch = self._select_flush_batch()
            if not batch:
                yield self._cache_work.wait()
                continue
            for entry in batch:
                self._in_flight.add(entry.transfer_seq)
            overhead = self.barrier_mode.program_overhead(self.profile)
            pages = None
            if self.ftl is not None:
                pages = self.ftl.append_batch(batch, self.sim.now)
            flush_group = None
            if self.barrier_mode.is_atomic_flush:
                self._flush_group_counter += 1
                flush_group = self._flush_group_counter
            yield self.flash.program(len(batch), overhead_factor=overhead)
            if self.fault_injector is not None:
                self.fault_injector.damage_batch(self, batch)
            if self.crash_tap is not None and self.barrier_mode is BarrierMode.NONE:
                # Legacy device under crash exploration: the planes of a
                # program round land independently at power cut, so expose a
                # boundary after every page of the (already shuffled) batch.
                # All pages still become durable at the same simulated time —
                # an untapped run is bit-identical.
                for entry in batch:
                    self.cache.mark_durable((entry,), self.sim.now)
                    self.crash_tap("program", 1)
            else:
                self.cache.mark_durable(batch, self.sim.now, flush_group=flush_group)
            if self.ftl is not None and pages is not None:
                self.ftl.mark_programmed(pages, self.sim.now)
                if self.ftl.needs_gc():
                    self.ftl.run_gc(self.sim.now)
            for entry in batch:
                self._in_flight.discard(entry.transfer_seq)
            self._durability_advanced.notify_all()
            if self.crash_tap is not None and self.barrier_mode is not BarrierMode.NONE:
                self.crash_tap("program", len(batch))

    def _select_flush_batch(self) -> list[CacheEntry]:
        """Choose the next set of cache entries to program, per barrier mode.

        Selection walks the transfer-ordered dirty window and stops as soon
        as the batch is full (epochs are nondecreasing in transfer order, so
        the oldest epoch is the first pending entry's epoch and its pages
        form a prefix).  Only the legacy ``NONE`` mode still materializes the
        whole pending set — its controller shuffles it, and the RNG stream
        depends on the full population.
        """
        mode = self.barrier_mode
        if mode is BarrierMode.PLP:
            return []
        in_flight = self._in_flight
        parallelism = self.profile.parallelism

        if mode is BarrierMode.IN_ORDER_WRITEBACK:
            # Only the oldest epoch that still has dirty pages may be
            # programmed; younger epochs wait for it.
            batch: list[CacheEntry] = []
            epoch = -1
            for entry in self.cache.iter_dirty():
                if entry.transfer_seq in in_flight:
                    continue
                if not batch:
                    epoch = entry.epoch
                elif entry.epoch != epoch:
                    break
                batch.append(entry)
                if len(batch) >= parallelism:
                    break
            return batch

        if mode is BarrierMode.TRANSACTIONAL:
            # The whole dirty set is flushed as a single atomic group.
            return [
                entry
                for entry in self.cache.iter_dirty()
                if entry.transfer_seq not in in_flight
            ]

        if mode is BarrierMode.NONE:
            # Legacy device: the controller drains in whatever order it
            # pleases.  Sample without replacement to model that freedom.
            dirty = [
                entry
                for entry in self.cache.iter_dirty()
                if entry.transfer_seq not in in_flight
            ]
            if not dirty:
                return []
            self._rng.shuffle(dirty)
            return dirty[:parallelism]

        # IN_ORDER_RECOVERY: drain in transfer (log) order at full speed.
        batch = []
        for entry in self.cache.iter_dirty():
            if entry.transfer_seq in in_flight:
                continue
            batch.append(entry)
            if len(batch) >= parallelism:
                break
        return batch

    # ------------------------------------------------------------------ crash support
    def power_off(self) -> None:
        """Cut power: no further commands are accepted.

        The durable state at this instant is computed by
        :func:`repro.storage.crash.recover_durable_blocks`.
        """
        self._powered_on = False

    @property
    def powered_on(self) -> bool:
        """Whether the device is still accepting commands."""
        return self._powered_on

    def record_history(self) -> None:
        """Keep every page the cache admits (before the first IO)."""
        self.cache.record_history()

    def written_history(self) -> list[CacheEntry]:
        """Every page ever admitted to the cache, in transfer order."""
        return list(self.cache.history)

    def durable_entries(self) -> list[CacheEntry]:
        """Entries that are durable right now (before any crash recovery)."""
        return [entry for entry in self.cache.history if entry.is_durable]

    def drain(self) -> Iterable[Event]:
        """Generator helper: wait until the writeback cache is fully durable."""
        yield from self._drain_dirty_upto(self.cache.last_dirty_seq)
