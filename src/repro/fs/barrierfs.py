"""BarrierFS: the barrier-enabled filesystem (Section 4).

The four synchronisation primitives:

* ``fsync()`` — dispatch the dirty data as order-preserving writes (no
  Wait-on-Transfer), hand the metadata to the Dual-Mode journal and wait for
  the flush thread to make the transaction durable.  One wake-up for the
  caller instead of EXT4's two.
* ``fdatasync()`` — when no journal commit is required: wait for the data
  DMA, then flush.
* ``fbarrier()`` — ordering-only ``fsync``: returns once the commit thread
  has *dispatched* the journal commit (the osync() analogue).
* ``fdatabarrier()`` — ordering-only ``fdatasync``: dispatch the dirty data
  with a barrier on the last request and return immediately — no flush, no
  DMA wait, no context switch.  If there is nothing dirty, force an (empty)
  journal commit so the epoch is still delimited.

Requests issued by BarrierFS carry ``REQ_ORDERED``/``REQ_BARRIER`` so the
epoch scheduler and order-preserving dispatch keep them in order all the way
to the storage surface.
"""

from __future__ import annotations

from typing import Optional

from repro.block.block_device import BlockDevice
from repro.block.request import RequestFlag
from repro.fs.errors import EIOError
from repro.fs.inode import File
from repro.fs.journal.dual_mode import DualModeJournal
from repro.fs.mount import MountOptions
from repro.fs.vfs import FilesystemBase
from repro.simulation.engine import Simulator


class BarrierFS(FilesystemBase):
    """EXT4 modified for the order-preserving block layer."""

    name = "barrierfs"

    def __init__(
        self,
        sim: Simulator,
        block_device: BlockDevice,
        options: Optional[MountOptions] = None,
    ):
        super().__init__(sim, block_device, options)
        if not block_device.order_preserving:
            raise ValueError(
                "BarrierFS requires an order-preserving block device "
                "(BlockDevice(..., order_preserving=True))"
            )
        self.journal = DualModeJournal(sim, self)

    # ------------------------------------------------------------------ durability
    def fsync(self, file: File, *, issuer: str = "app"):
        """Generator: durability + ordering, one caller wake-up."""
        self.stats.fsync += 1
        yield from self._sync_counted(file, issuer=issuer, metadata_matters=True)

    def fdatasync(self, file: File, *, issuer: str = "app"):
        """Generator: data durability; journals only for fresh allocations."""
        self.stats.fdatasync += 1
        yield from self._sync_counted(file, issuer=issuer, metadata_matters=False)

    def _sync_counted(self, file: File, *, issuer: str, metadata_matters: bool):
        # BarrierFS post-failure semantics: unlike EXT4's fsyncgate behaviour
        # the pages are *kept dirty* across a failed sync — the snapshot taken
        # here is restored on EIOError so a retrying caller re-dispatches the
        # same data instead of silently syncing nothing.
        inode = file.inode
        dirty_snapshot = dict(inode.dirty_pages)
        unallocated_snapshot = set(inode.unallocated_pages)
        metadata_was_dirty = inode.metadata_dirty
        try:
            yield from self._sync(file, issuer=issuer, metadata_matters=metadata_matters)
        except EIOError:
            self.stats.eio_errors += 1
            for page_index, version in dirty_snapshot.items():
                if inode.dirty_pages.get(page_index, -1) < version:
                    inode.dirty_pages[page_index] = version
            inode.unallocated_pages |= unallocated_snapshot
            if metadata_was_dirty:
                inode.metadata_dirty = True
            raise
        self.acknowledge_durable(inode)

    def _sync(self, file: File, *, issuer: str, metadata_matters: bool):
        inode = file.inode
        needs_journal = self._needs_journal(file, metadata_matters)

        if needs_journal:
            writeback = self._dispatch_data(file, issuer, barrier_on_last=False)
            self._capture_metadata(file, writeback)
            txn = self.journal.request_commit(durability=True, force=True)
            # Single wake-up: the flush thread signals full durability.
            yield txn.durable_event
            # The flush that made the commit durable also covers the data
            # writes dispatched above; surface any that failed on the way.
            self._check_requests(writeback.requests)
            return

        # fdatasync() path: wait for the data DMA, then flush the cache.
        writeback = self._dispatch_data(file, issuer, barrier_on_last=True)
        for event in writeback.transfer_events:
            yield event
        self._check_requests(writeback.requests)
        if not writeback.requests:
            # Nothing dirty: still delimit an epoch (paper, Section 4.2).
            self.journal.request_commit(durability=False, force=True)
        yield from self.issue_flush(issuer=issuer)

    # ------------------------------------------------------------------ ordering only
    def fbarrier(self, file: File, *, issuer: str = "app"):
        """Generator: ordering-only fsync (returns at dispatch time)."""
        self.stats.fbarrier += 1
        try:
            yield from self._fbarrier(file, issuer=issuer)
        except EIOError:
            self.stats.eio_errors += 1
            raise

    def _fbarrier(self, file: File, *, issuer: str):
        inode = file.inode
        needs_journal = inode.has_dirty_metadata
        yield from self.throttle_writeback()

        if needs_journal:
            writeback = self._dispatch_data(file, issuer, barrier_on_last=False)
            self._capture_metadata(file, writeback)
            txn = self.journal.request_commit(durability=False, force=True)
            yield txn.dispatched_event
            return

        # Most fbarrier() calls find clean metadata and degenerate into
        # fdatabarrier(), which does not block at all (Section 6.3); the
        # throttle above already ran.
        self._barrier_data(file, issuer)

    def fdatabarrier(self, file: File, *, issuer: str = "app"):
        """Generator: storage-order barrier with no waiting whatsoever.

        The only situation in which the caller blocks is dirty-page
        throttling: when the block-layer queue has grown far beyond the
        device queue depth the writer is paced to the device's drain rate,
        as the kernel would.  The throttle is tested before its generator
        is built, since an ordering-only call almost never waits.
        """
        self.stats.fdatabarrier += 1
        try:
            if len(self.block.scheduler) > self._throttle_limit:
                yield from self.throttle_writeback()
            self._barrier_data(file, issuer)
        except EIOError:
            self.stats.eio_errors += 1
            raise

    def _barrier_data(self, file: File, issuer: str) -> None:
        """Dispatch the dirty data, the last request a barrier (no waiting)."""
        writeback = self._dispatch_data(file, issuer, barrier_on_last=True)
        if not writeback.requests:
            # Delimit the epoch even without dirty pages.
            self.journal.request_commit(durability=False, force=True)

    # ------------------------------------------------------------------ helpers
    def _dispatch_data(self, file: File, issuer: str, *, barrier_on_last: bool):
        return self.writeback_data(
            file,
            flags=RequestFlag.ORDERED,
            barrier_on_last=barrier_on_last,
            issuer=issuer,
        )

    def _capture_metadata(self, file: File, writeback) -> None:
        inode = file.inode
        for block in writeback.blocks:
            self.journal.add_ordered_data(block.block, block.version)
        for name, version in self.metadata_buffers_for(inode):
            self.journal.add_buffer(name, version)
        self.clear_metadata_dirty(inode)
