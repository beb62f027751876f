"""The device writeback cache.

Every page a write command transfers lands here first, tagged with the
*persist epoch* the controller was in when the page arrived (barrier writes
close an epoch).  The background flusher and explicit FLUSH/FUA handling
decide when entries move to flash; each entry records both moments.

The cache itself needs only the *dirty window*: the entries still awaiting
write-back, in transfer order.  Crash recovery (:mod:`repro.storage.crash`)
and order verification also need every entry ever admitted, to tell which
logical blocks were durable at a power cut; the cache keeps that *history*
only after :meth:`WritebackCache.record_history` (see
:mod:`repro.simulation.history`), so a plain run retains nothing that has
persisted.

Dirty bookkeeping is flat and incremental: a transfer-ordered deque plus a
live counter.  Because epochs are nondecreasing in transfer order and
entries persist mostly from the head, the hot flusher queries — is anything
dirty, how many pages, the oldest entry, the newest transfer sequence — are
O(1) head/tail checks instead of the list rebuild they used to be; durable
entries are pruned lazily from both ends and compacted only when a full
ordered snapshot is actually needed.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.simulation.history import recorded, start_history
from repro.storage.command import WrittenBlock


@dataclass(slots=True)
class CacheEntry:
    """One logical page resident in (or flushed from) the writeback cache."""

    block: object
    version: int
    epoch: int
    transfer_seq: int
    transfer_time: float
    command_id: int
    durable_time: Optional[float] = None
    #: Flush group identifier for transactional write-back (all entries of a
    #: group become durable atomically).
    flush_group: Optional[int] = None
    #: Media-fault tag set by :mod:`repro.faults` at program time
    #: (``"torn"`` / ``"dropped"`` / ``"misdirected"`` / ``"clobbered"`` /
    #: ``"latent"``).  The device itself believes the program succeeded —
    #: ``durable_time`` is still set — but crash recovery treats a damaged
    #: page as unreadable.
    damage: Optional[str] = None

    @property
    def is_durable(self) -> bool:
        """Whether the page has reached the storage surface."""
        return self.durable_time is not None


class WritebackCache:
    """Volatile page cache inside the storage device."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("cache capacity must be at least one page")
        self.capacity_pages = capacity_pages
        #: Every admitted entry, once :meth:`record_history` switched it on.
        self._history: Optional[list[CacheEntry]] = None
        #: Transfer-ordered window of entries that were dirty when admitted.
        #: Entries that have since persisted are pruned lazily; the window is
        #: compacted only when an exact ordered snapshot is requested.
        self._dirty: deque[CacheEntry] = deque()
        #: Number of entries in ``_dirty`` that are still not durable.
        self._dirty_count = 0
        self._transfer_seq = itertools.count(1)
        #: Total pages ever admitted (for statistics).
        self.total_admitted = 0

    def record_history(self) -> None:
        """Keep every admitted entry from now on (before the first admission)."""
        self._history = start_history(
            self._history, self.total_admitted > 0, "the writeback-cache history"
        )

    # -- admission ----------------------------------------------------------
    def admit(
        self,
        blocks: Iterable[WrittenBlock],
        *,
        epoch: int,
        time: float,
        command_id: int,
        durable_immediately: bool = False,
    ) -> list[CacheEntry]:
        """Admit the payload of one transferred write command.

        ``durable_immediately`` models power-loss-protected devices where the
        cache contents are durable the moment the DMA completes.
        """
        admitted = []
        history = self._history
        dirty = self._dirty
        sequence = self._transfer_seq
        for block in blocks:
            entry = CacheEntry(
                block=block.block,
                version=block.version,
                epoch=epoch,
                transfer_seq=next(sequence),
                transfer_time=time,
                command_id=command_id,
                durable_time=time if durable_immediately else None,
            )
            if history is not None:
                history.append(entry)
            if entry.durable_time is None:
                dirty.append(entry)
                self._dirty_count += 1
            admitted.append(entry)
        self.total_admitted += len(admitted)
        return admitted

    # -- queries --------------------------------------------------------------
    def _compact(self) -> "deque[CacheEntry]":
        """Drop persisted entries from the dirty window (cheap, in order)."""
        dirty = self._dirty
        if len(dirty) != self._dirty_count:
            self._dirty = dirty = deque(
                entry for entry in dirty if entry.durable_time is None
            )
        return dirty

    @property
    def resident_pages(self) -> int:
        """Pages currently occupying cache space (not yet written back)."""
        return self._dirty_count

    @property
    def dirty_entries(self) -> list[CacheEntry]:
        """Entries that have not yet been persisted, oldest transfer first."""
        return list(self._compact())

    @property
    def first_dirty(self) -> Optional[CacheEntry]:
        """The oldest unpersisted entry (head of the transfer order), O(1)."""
        dirty = self._dirty
        while dirty:
            entry = dirty[0]
            if entry.durable_time is None:
                return entry
            dirty.popleft()
        return None

    @property
    def last_dirty_seq(self) -> Optional[int]:
        """Transfer sequence of the newest unpersisted entry, O(1).

        Equivalent to ``max(entry.transfer_seq for entry in dirty_entries)``:
        the dirty window is kept in transfer order, so the newest dirty entry
        is the (lazily pruned) tail.
        """
        dirty = self._dirty
        while dirty:
            entry = dirty[-1]
            if entry.durable_time is None:
                return entry.transfer_seq
            dirty.pop()
        return None

    def iter_dirty(self):
        """Iterate unpersisted entries in transfer order without copying."""
        for entry in self._dirty:
            if entry.durable_time is None:
                yield entry

    @property
    def history(self) -> list[CacheEntry]:
        """Every entry ever admitted, in transfer order (needs :meth:`record_history`)."""
        return recorded(self._history, "the writeback-cache history")

    def all_entries(self) -> list[CacheEntry]:
        """Every entry ever admitted, in transfer order.

        Without a recorded history only the entries still resident (not yet
        written back) are known, and only those are returned.
        """
        if self._history is not None:
            return list(self._history)
        return list(self._compact())

    # -- persistence bookkeeping ----------------------------------------------
    def mark_durable(self, entries: Iterable[CacheEntry], time: float,
                     flush_group: Optional[int] = None) -> None:
        """Record that ``entries`` reached the storage surface at ``time``.

        ``entries`` must have been admitted through :meth:`admit` — the dirty
        counter assumes every newly-durable entry was counted on admission.
        """
        count = 0
        for entry in entries:
            if entry.durable_time is not None:
                continue
            entry.durable_time = time
            entry.flush_group = flush_group
            count += 1
        self._dirty_count -= count
