"""EXT4 with JBD2 journaling (the paper's baseline filesystem).

``fsync()`` follows the anatomy of Fig. 3: write back the file's dirty data
and *wait for the DMA transfer*, hand the dirty metadata buffers to the
running transaction (blocking on a page conflict with the committing
transaction), then wait for the JBD thread to make the transaction durable
with the transfer-and-flush sequence (``JD`` → wait → ``JC`` with
``FLUSH|FUA`` → wait).  With the ``nobarrier`` mount option the FLUSH/FUA is
omitted — the configuration the paper calls EXT4-OD (ordering only).
"""

from __future__ import annotations

from typing import Optional

from repro.block.block_device import BlockDevice
from repro.block.request import RequestFlag
from repro.fs.errors import EIOError
from repro.fs.inode import File
from repro.fs.journal.jbd2 import JBD2Journal
from repro.fs.mount import JournalMode, MountOptions
from repro.fs.vfs import FilesystemBase
from repro.simulation.engine import Simulator


class Ext4Filesystem(FilesystemBase):
    """Stock EXT4: ordering through Wait-on-Transfer and FLUSH/FUA."""

    name = "ext4"

    def __init__(
        self,
        sim: Simulator,
        block_device: BlockDevice,
        options: Optional[MountOptions] = None,
    ):
        super().__init__(sim, block_device, options)
        self.journal = JBD2Journal(
            sim, self, use_flush_fua=not self.options.no_barrier
        )

    # ------------------------------------------------------------------ sync calls
    def fsync(self, file: File, *, issuer: str = "app"):
        """Generator: durability (and ordering) of data + metadata of ``file``."""
        self.stats.fsync += 1
        yield from self._sync_counted(file, issuer=issuer, metadata_matters=True)

    def fdatasync(self, file: File, *, issuer: str = "app"):
        """Generator: durability of the file's data (metadata only if it
        is needed to reach the data, i.e. block allocation)."""
        self.stats.fdatasync += 1
        yield from self._sync_counted(file, issuer=issuer, metadata_matters=False)

    def _sync_counted(self, file: File, *, issuer: str, metadata_matters: bool):
        # EXT4 post-failure semantics are the fsyncgate ones: the dirty pages
        # were claimed clean when the writeback was submitted, so a failed
        # fsync leaves the file *clean* — retrying the call syncs nothing.
        try:
            yield from self._sync(file, issuer=issuer, metadata_matters=metadata_matters)
        except EIOError:
            self.stats.eio_errors += 1
            raise
        # Successful return: POSIX promised the caller everything written so
        # far is durable (EXT4-OD makes that promise without the flush —
        # which is exactly what the recovered-acked-prefix oracle witnesses).
        self.acknowledge_durable(file.inode)

    def _sync(self, file: File, *, issuer: str, metadata_matters: bool):
        inode = file.inode
        needs_journal = self._needs_journal(file, metadata_matters)
        journal_mode = self.options.journal_mode

        if needs_journal and journal_mode is JournalMode.DATA:
            # Full data journaling: dirty pages travel inside the journal.
            for page_index, version in sorted(inode.dirty_pages.items()):
                self.journal.add_journaled_data(
                    inode.data_block_name(page_index), version
                )
            inode.dirty_pages.clear()
            inode.unallocated_pages.clear()
            writeback = None
        else:
            # Write back D and wait for the DMA transfer (Wait-on-Transfer).
            writeback = self.writeback_data(file, issuer=issuer)
            for event in writeback.transfer_events:
                yield event
            self._check_requests(writeback.requests)

        if not needs_journal:
            # fdatasync()-like path: data transferred; make it durable.
            yield from self._flush_unless_nobarrier(issuer)
            return

        if writeback is not None and journal_mode is JournalMode.ORDERED:
            for block in writeback.blocks:
                self.journal.add_ordered_data(block.block, block.version)
        for name, version in self.metadata_buffers_for(inode):
            yield from self.journal.add_buffer(name, version)
        self.clear_metadata_dirty(inode)

        txn = self.journal.request_commit(durability=True)
        if txn is not None:
            yield txn.durable_event

    def _flush_unless_nobarrier(self, issuer: str):
        if self.options.no_barrier:
            return
        yield from self.issue_flush(issuer=issuer)
