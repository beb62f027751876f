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

:func:`recover_durable_blocks` performs that computation and returns a
:class:`CrashState` that the filesystem recovery code and the verification
module consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.storage.barrier_modes import BarrierMode
from repro.storage.device import StorageDevice
from repro.storage.writeback_cache import CacheEntry


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


@dataclass
class CrashState:
    """Durable storage contents reconstructed after a crash.

    A :class:`CrashState` is a *snapshot*: the ``transferred``/``durable``
    lists must not be mutated after construction (derived views such as
    :attr:`durable_blocks` and :attr:`lost` are computed once and cached so
    that repeated oracle calls don't re-sort or re-scan).
    """

    #: Simulation time at which power was cut.
    crash_time: float
    #: Barrier mode the device was operating under.
    barrier_mode: BarrierMode
    #: Every page ever transferred to the device, in transfer order.
    transferred: list[CacheEntry] = field(default_factory=list)
    #: The subset of ``transferred`` that survived the crash, transfer order.
    durable: list[CacheEntry] = field(default_factory=list)
    _durable_blocks: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False
    )
    _durable_seqs: Optional[set] = field(
        default=None, init=False, repr=False, compare=False
    )
    _lost: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    @property
    def durable_blocks(self) -> dict[object, int]:
        """Map logical block -> the version that survived (latest durable)."""
        if self._durable_blocks is None:
            latest: dict[object, int] = {}
            for entry in self.durable:  # transfer order: later versions win
                latest[entry.block] = entry.version
            self._durable_blocks = latest
        return self._durable_blocks

    @property
    def durable_seqs(self) -> set[int]:
        """Transfer sequence numbers of the durable entries."""
        if self._durable_seqs is None:
            self._durable_seqs = {entry.transfer_seq for entry in self.durable}
        return self._durable_seqs

    def survived(self, block: object, version: Optional[int] = None) -> bool:
        """Whether ``block`` (optionally a specific version) is durable."""
        durable = self.durable_blocks
        if block not in durable:
            return False
        if version is None:
            return True
        return durable[block] >= version

    @property
    def lost(self) -> list[CacheEntry]:
        """Transferred pages that did not survive."""
        if self._lost is None:
            durable_seqs = self.durable_seqs
            self._lost = [
                entry
                for entry in self.transferred
                if entry.transfer_seq not in durable_seqs
            ]
        return self._lost

    def durable_epochs(self) -> list[int]:
        """Sorted list of epochs that have at least one durable page."""
        return sorted({entry.epoch for entry in self.durable})


def recover_durable_blocks(device: StorageDevice, *, crash_time: Optional[float] = None) -> CrashState:
    """Compute what survives if the device loses power *right now*.

    The device should normally be powered off first via
    :meth:`StorageDevice.power_off`; this function is read-only and may also
    be used mid-run to ask "what would survive a crash at this instant".
    It reads the device-cache history, so the device must have recorded it
    from its first IO (``IOStack.record_history()``); otherwise it raises
    :class:`~repro.simulation.history.HistoryNotRecordedError`.
    """
    mode = device.barrier_mode
    time = crash_time if crash_time is not None else device.sim.now
    # Already in transfer order, and so is every filtered list below; only
    # the FTL log (which GC may reorder) needs sorting back.
    transferred = device.written_history()

    # Pages damaged by an injected media fault (:mod:`repro.faults`) were
    # never correctly programmed even though the device marked them durable;
    # recovery cannot read them back.
    if mode is BarrierMode.PLP:
        durable = [entry for entry in transferred if entry.damage is None]
    elif mode is BarrierMode.IN_ORDER_RECOVERY:
        durable = sorted(
            _recover_from_log(device),
            key=lambda entry: entry.transfer_seq,
        )
    else:  # NONE, IN_ORDER_WRITEBACK, TRANSACTIONAL: what was programmed.
        durable = [
            entry for entry in transferred
            if entry.is_durable and entry.damage is None
        ]

    return CrashState(
        crash_time=time,
        barrier_mode=mode,
        transferred=transferred,
        durable=durable,
    )


def _recover_from_log(device: StorageDevice) -> list[CacheEntry]:
    """LFS-style recovery: keep the programmed prefix of the FTL log.

    A damaged page is a hole exactly like an unprogrammed one — the scan
    cannot read past it, so recovery keeps only the log prefix up to the
    first damaged entry.  This is what turns every media fault into a clean
    log truncation under in-order recovery.  The log exists: it is crash
    history, built by the same ``record_history()`` call that the
    ``written_history()`` read before this one requires.
    """
    recovered = device.ftl.recover()
    # Entries may have been appended to the log more than once (GC); dedupe
    # while keeping transfer order.
    seen: set[int] = set()
    unique: list[CacheEntry] = []
    for entry in recovered:
        if entry.transfer_seq in seen:
            continue
        if entry.damage is not None:
            break
        seen.add(entry.transfer_seq)
        unique.append(entry)
    return unique
