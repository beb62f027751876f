"""Crash injection and recovery.

A *crash* in the simulation is an instantaneous power cut: the host stops,
the command queue contents and the volatile writeback cache are lost, and
what survives is determined by the device's barrier mode:

* **PLP** — everything that was transferred survives (the cache is durable).
* **NONE** (legacy) — exactly the pages the controller happened to have
  programmed survive; because the legacy controller drains in arbitrary
  order this is an arbitrary subset of the transferred pages.
* **IN_ORDER_WRITEBACK / TRANSACTIONAL** — the programmed pages survive; the
  drain policy itself guarantees they form an epoch prefix (respectively a
  union of atomic flush groups).
* **IN_ORDER_RECOVERY** — the LFS-style recovery scan of the FTL log keeps
  the programmed prefix of the log and discards everything after the first
  hole, which restores the epoch-prefix guarantee even though programs were
  issued at full parallelism.

A page damaged by an injected media fault (:mod:`repro.faults`) never
survives: recovery cannot read it back, and under in-order recovery it is
a hole that ends the log scan.

:class:`CrashState` performs that computation as a fold over the device's
history that can be advanced as the run goes on: the crash-exploration
engine (:mod:`repro.crashlab`) keeps one per run and advances it at every
judged boundary, and :func:`recover_durable_blocks` is one fold of a fresh
one.  The oracles (:mod:`repro.core.verification`) and the remount
recovery (:mod:`repro.recovery`) read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CrashBoundary:
    """One IO boundary at which a crash may be injected.

    The storage device emits a boundary through its ``crash_tap`` every time
    the durable (or transferred) state changes: after a write command's DMA
    transfer, after a program batch reaches flash, and after a FLUSH
    completes.  The crash-exploration subsystem (:mod:`repro.crashlab`)
    records these and judges the durable state at chosen ones as a run
    reaches them — the simulation being deterministic, boundary *k* of any
    run is exactly boundary *k* of the recording.
    """

    #: Position in the recording (0-based, dense).
    index: int
    #: What happened: ``"transfer"``, ``"program"`` or ``"flush"``.
    kind: str
    #: Simulation time at which the boundary occurred.
    time: float
    #: Pages involved (transferred or programmed; 0 for flush completions).
    pages: int = 0
    #: Device persist epoch at the boundary.
    epoch: int = 0


class CrashState:
    """What a power cut would leave on a device, folded as the run goes on.

    :meth:`advance` folds everything that changed since its previous call:

    * the pages newly transferred (the tail of the device-cache history)
      join the *lost set* — transferred, not (yet) durable;
    * the pages newly durable leave it: lost pages the device has
      programmed undamaged, or — under in-order recovery — the entries by
      which the FTL log's programmed prefix grew since the last call.

    ``lost`` maps the transfer sequence of every lost page to its cache
    entry, in transfer order.  ``durable`` lists the surviving pages in the
    order they were found durable; ``latest`` maps each durable block to
    its entry with the highest transfer sequence; ``newest_epoch`` and
    ``horizon`` are the newest epoch and the highest transfer sequence
    among durable pages (``None`` while none is).  The durable set only
    grows, except across an FTL garbage-collection run (it relocates pages
    and drops stale log segments) or a misdirected write (it damages a
    page that was already durable): when either happened since the last
    call the state starts over from the whole history.  ``generation``
    changes whenever ``durable`` stops being an append-only list — a
    rebuild, or a block's durable version going down (a newer transfer of
    an older version) — and the oracles' checks start over when it does.

    Three stamps let a reader tell in O(1) whether what it read last time
    still stands: ``durable_stamp`` moves whenever the durable set
    changes, ``transfer_stamp`` whenever pages are transferred, and
    ``lost_stamp`` whenever the lost set changes other than by those
    transfers joining its tail.  ``epochs_ordered`` records whether epochs
    never went down along the transfer order (a device's epoch counter
    only grows, so it holds for every simulated run; a hand-built history
    may break it).  While it holds, the oldest lost page carries the
    lowest lost epoch, and a newly transferred page is newer, in transfer
    order and in epoch, than every page before it; once it fails, every
    transfer moves ``lost_stamp`` too.

    The device must have recorded its history from its first IO
    (``IOStack.record_history()``); otherwise construction raises
    :class:`~repro.simulation.history.HistoryNotRecordedError`.
    """

    def __init__(self, device):
        self.device = device
        self.barrier_mode = device.barrier_mode
        self.history = device.cache.history
        #: The FTL whose log prefix is the durable set; the device keeps
        #: one only under in-order recovery (with history recorded).
        self._log = device.ftl
        #: Rebuilds from the whole history (and restarts of the checks).
        self.rebuilds = 0
        #: Entries folded or scanned so far, by the state and the checks:
        #: the deterministic work counter of a crash check.
        self.folds = 0
        self.generation = 0
        self.durable_stamp = 0
        self.transfer_stamp = 0
        self.lost_stamp = 0
        self._gc_runs = self._log.gc_runs if self._log is not None else 0
        self._events = 0
        self._reset()

    @property
    def crash_time(self) -> float:
        """Simulation time of a power cut now."""
        return self.device.sim.now

    @property
    def durable_blocks(self) -> dict[object, int]:
        """Map logical block -> the version that survived (latest durable)."""
        return {block: entry.version for block, entry in self.latest.items()}

    def _reset(self) -> None:
        self.generation += 1
        self.durable_stamp += 1
        self.lost_stamp += 1
        self.lost: dict[int, object] = {}
        self.durable: list = []
        self.latest: dict[object, object] = {}
        #: The newest epoch and the furthest transfer among durable pages.
        self.newest_epoch: Optional[int] = None
        self.horizon: Optional[int] = None
        self.epochs_ordered = True
        self._last_epoch = float("-inf")
        self._seen = 0
        self._segment = 0
        self._offset = 0
        self._log_ended = False
        #: The log's ``program_marks`` when it was last scanned.
        self._marks = None

    def advance(self) -> "CrashState":
        """Fold everything that changed since the previous call."""
        log = self._log
        injector = self.device.fault_injector
        if (log is not None and log.gc_runs != self._gc_runs) or (
            injector is not None and len(injector.events) != self._events
        ):
            self._rebuild_if_broken(log, injector)
        new = self.history[self._seen:]
        if new:
            lost = self.lost
            last = self._last_epoch
            for entry in new:
                lost[entry.transfer_seq] = entry
                epoch = entry.epoch
                if epoch < last:
                    self.epochs_ordered = False
                last = epoch
            self._last_epoch = last
            self._seen += len(new)
            self.folds += len(new)
            self.transfer_stamp += 1
            if not self.epochs_ordered:
                self.lost_stamp += 1
        if log is None:
            found = self._scan_cache()
        elif log.program_marks != self._marks and not self._log_ended:
            found = self._scan_log()
        else:
            return self
        if found:
            self._make_durable(found)
        return self

    def _rebuild_if_broken(self, log, injector) -> None:
        """Start over when durable pages may have been lost since the last call.

        An FTL garbage-collection run or a misdirected write can take
        pages out of the durable set.
        """
        broken = False
        if log is not None and log.gc_runs != self._gc_runs:
            self._gc_runs = log.gc_runs
            broken = True
        if injector is not None:
            events = injector.events
            broken = broken or any(
                event.kind == "misdirected-write" for event in events[self._events:]
            )
            self._events = len(events)
        if broken and self._seen:
            self.rebuilds += 1
            self._reset()

    def _scan_cache(self) -> list:
        """Lost pages the device has programmed undamaged, now out of ``lost``."""
        lost = self.lost
        self.folds += len(lost)
        found = [
            entry
            for entry in lost.values()
            if entry.durable_time is not None and entry.damage is None
        ]
        for entry in found:
            del lost[entry.transfer_seq]
        return found

    def _scan_log(self) -> list:
        """Extend the recovered FTL-log prefix from where it stopped.

        The LFS recovery scan: programmed pages in log order up to the
        first hole, duplicates (GC relocations) skipped, and nothing past
        the first damaged page.  Returns the pages it found durable, now
        out of ``lost``.
        """
        log = self._log
        self._marks = log.program_marks
        order = log.segment_order
        segments = log.segments
        lost = self.lost
        found = []
        index, offset = self._segment, self._offset
        scanned = 0
        while index < len(order):
            segment = segments[order[index]]
            entries = segment.entry_column
            programmed = segment.programmed_column
            end = len(entries)
            while offset < end and programmed[offset] == programmed[offset]:  # NaN: hole
                entry = entries[offset]
                offset += 1
                scanned += 1
                seq = entry.transfer_seq
                if seq not in lost:  # already durable
                    continue
                if entry.damage is not None:
                    self._log_ended = True
                    self.folds += scanned
                    return found
                del lost[seq]
                found.append(entry)
            if offset < end or index + 1 == len(order):
                break
            index += 1
            offset = 0
        self._segment, self._offset = index, offset
        self.folds += scanned
        return found

    def _make_durable(self, found: list) -> None:
        """Add pages just taken out of ``lost`` to the durable set."""
        self.durable += found
        self.durable_stamp += 1
        self.lost_stamp += 1
        latest = self.latest
        newest_epoch, horizon = self.newest_epoch, self.horizon
        for entry in found:
            seq = entry.transfer_seq
            if horizon is None or seq > horizon:
                horizon = seq
            if newest_epoch is None or entry.epoch > newest_epoch:
                newest_epoch = entry.epoch
            block = entry.block
            current = latest.get(block)
            if current is None or seq > current.transfer_seq:
                if current is not None and entry.version < current.version:
                    # A block's durable version went down: the checks'
                    # folded "satisfied" results may no longer hold.
                    self.generation += 1
                    self.rebuilds += 1
                latest[block] = entry
        self.newest_epoch, self.horizon = newest_epoch, horizon


def recover_durable_blocks(device) -> CrashState:
    """What survives if the device loses power *right now*: one fold.

    The device should normally be powered off first via
    :meth:`~repro.storage.device.StorageDevice.power_off`; the fold only
    reads the device, so it may also be used mid-run to ask "what would
    survive a crash at this instant".
    """
    return CrashState(device).advance()
