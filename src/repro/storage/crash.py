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
    its entry with the highest transfer sequence.  The durable set only
    grows, except across an FTL garbage-collection run (it relocates pages
    and drops stale log segments) or a misdirected write (it damages a
    page that was already durable): when either happened since the last
    call the state starts over from the whole history.  ``generation``
    changes whenever ``durable`` stops being an append-only list — a
    rebuild, or a block's durable version going down (a newer transfer of
    an older version) — and the oracles' checks start over when it does.

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
        self.lost: dict[int, object] = {}
        self.durable: list = []
        self.latest: dict[object, object] = {}
        self._seen = 0
        self._segment = 0
        self._offset = 0
        self._log_ended = False

    def _broken(self) -> bool:
        """Whether durable pages may have been lost since the last call."""
        broken = False
        if self._log is not None and self._log.gc_runs != self._gc_runs:
            self._gc_runs = self._log.gc_runs
            broken = True
        injector = self.device.fault_injector
        if injector is not None and len(injector.events) != self._events:
            events = injector.events
            broken = broken or any(
                event.kind == "misdirected-write" for event in events[self._events:]
            )
            self._events = len(events)
        return broken

    def advance(self) -> "CrashState":
        """Fold everything that changed since the previous call."""
        if self._broken() and self._seen:
            self.rebuilds += 1
            self._reset()
        history = self.history
        lost = self.lost
        seen = self._seen
        for position in range(seen, len(history)):
            entry = history[position]
            lost[entry.transfer_seq] = entry
        self._seen = len(history)
        self.folds += self._seen - seen
        if self._log is not None:
            self._scan_log()
            return self
        found = [
            entry
            for entry in lost.values()
            if entry.durable_time is not None and entry.damage is None
        ]
        self.folds += len(lost)
        for entry in found:
            self._make_durable(entry)
        return self

    def _scan_log(self) -> None:
        """Extend the recovered FTL-log prefix from where it stopped.

        The LFS recovery scan: programmed pages in log order up to the
        first hole, duplicates (GC relocations) skipped, and nothing past
        the first damaged page.
        """
        if self._log_ended:
            return
        order = self._log.segment_order
        segments = self._log.segments
        lost = self.lost
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
                if entry.transfer_seq not in lost:  # already durable
                    continue
                if entry.damage is not None:
                    self._log_ended = True
                    self.folds += scanned
                    return
                self._make_durable(entry)
            if offset < end or index + 1 == len(order):
                break
            index += 1
            offset = 0
        self._segment, self._offset = index, offset
        self.folds += scanned

    def _make_durable(self, entry) -> None:
        seq = entry.transfer_seq
        del self.lost[seq]
        self.durable.append(entry)
        current = self.latest.get(entry.block)
        if current is None or seq > current.transfer_seq:
            if current is not None and entry.version < current.version:
                # A block's durable version went down: the checks' folded
                # "satisfied" results may no longer hold.
                self.generation += 1
                self.rebuilds += 1
            self.latest[entry.block] = entry


def recover_durable_blocks(device) -> CrashState:
    """What survives if the device loses power *right now*: one fold.

    The device should normally be powered off first via
    :meth:`~repro.storage.device.StorageDevice.power_off`; the fold only
    reads the device, so it may also be used mid-run to ask "what would
    survive a crash at this instant".
    """
    return CrashState(device).advance()
