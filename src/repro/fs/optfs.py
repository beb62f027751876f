"""OptFS-style optimistic crash consistency baseline.

OptFS (Chidambaram et al., SOSP'13) provides ``osync()``: the journal commit
is ordered but not immediately durable.  Two traits matter for the paper's
comparison and are reproduced here:

* ``osync()`` still relies on **Wait-on-Transfer**: the data and the journal
  descriptor must finish their DMA before the commit record is issued, and
  ``osync()`` returns once the commit record has been transferred.
* **Selective data journaling**: overwrites of already-allocated blocks are
  routed through the journal (so that in-place updates cannot break the
  ordering guarantee).  This inflates the journal payload and adds CPU scan
  work, which is why OptFS loses to EXT4-OD on the overwrite-heavy MySQL
  workload (Fig. 15) while matching it on varmail.

Durability is provided in the background: a checkpoint process periodically
flushes the device cache, bounding the window of data loss, exactly like the
delayed-durability semantics of the original system.
"""

from __future__ import annotations

from typing import Optional

from repro.block.block_device import BlockDevice
from repro.fs.errors import EIOError
from repro.fs.inode import File
from repro.fs.journal.jbd2 import JBD2Journal
from repro.fs.mount import MountOptions
from repro.fs.vfs import FilesystemBase
from repro.simulation.engine import Simulator


class OptFS(FilesystemBase):
    """Optimistic crash consistency: ``osync()`` / ``dsync()``."""

    name = "optfs"

    #: CPU cost of scanning one journaled data page during osync (models the
    #: selective-data-journaling bookkeeping the paper blames for the MySQL
    #: slowdown).
    scan_cost_per_page = 4.0
    #: Interval (µs) between the background checkpoints that flush the
    #: device cache (the delayed-durability window).
    checkpoint_interval = 50_000.0

    def __init__(
        self,
        sim: Simulator,
        block_device: BlockDevice,
        options: Optional[MountOptions] = None,
    ):
        super().__init__(sim, block_device, options)
        # OptFS orders its commits without FLUSH/FUA.
        self.journal = JBD2Journal(sim, self, use_flush_fua=False)
        self.data_pages_journaled = 0
        sim.process(self._checkpointer(), name="optfs.checkpointer")

    # ------------------------------------------------------------------ osync/dsync
    def osync(self, file: File, *, issuer: str = "app"):
        """Generator: ordering guarantee without durability."""
        self.stats.osync += 1
        yield from self._commit_counted(file, issuer=issuer, durable=False)

    def dsync(self, file: File, *, issuer: str = "app"):
        """Generator: osync() plus a cache flush (full durability)."""
        yield from self._commit_counted(file, issuer=issuer, durable=True)

    def fsync(self, file: File, *, issuer: str = "app"):
        """Generator: POSIX fsync maps to dsync (ordering + durability)."""
        self.stats.fsync += 1
        yield from self._commit_counted(file, issuer=issuer, durable=True)

    def fdatasync(self, file: File, *, issuer: str = "app"):
        """Generator: treated like fsync (OptFS journals metadata anyway)."""
        self.stats.fdatasync += 1
        yield from self._commit_counted(file, issuer=issuer, durable=True)

    def _commit_counted(self, file: File, *, issuer: str, durable: bool):
        # Like EXT4 (and unlike BarrierFS) the pages are claimed clean at
        # writeback submission, so a failed commit leaves the file clean.
        try:
            yield from self._commit(file, issuer=issuer, durable=durable)
        except EIOError:
            self.stats.eio_errors += 1
            raise
        if durable:
            # Only the durability-claiming calls move the acked high-water
            # mark; osync() promises ordering, not persistence.
            self.acknowledge_durable(file.inode)

    def _commit(self, file: File, *, issuer: str, durable: bool):
        inode = file.inode

        # Selective data journaling: overwrites travel inside the journal,
        # appends are written in place (ordered by Wait-on-Transfer).
        overwrites = {
            page: version
            for page, version in inode.dirty_pages.items()
            if page not in inode.unallocated_pages
        }
        for page, version in sorted(overwrites.items()):
            self.journal.add_journaled_data(inode.data_block_name(page), version)
            del inode.dirty_pages[page]
        self.data_pages_journaled += len(overwrites)
        if overwrites:
            # CPU cost of scanning the journaled pages.
            yield self.sim.sleep(self.scan_cost_per_page * len(overwrites))

        writeback = self.writeback_data(file, issuer=issuer)
        for event in writeback.transfer_events:
            yield event
        self._check_requests(writeback.requests)
        for block in writeback.blocks:
            self.journal.add_ordered_data(block.block, block.version)

        for name, version in self.metadata_buffers_for(inode):
            yield from self.journal.add_buffer(name, version)
        self.clear_metadata_dirty(inode)

        txn = self.journal.request_commit(durability=durable, force=True)
        if txn is not None:
            yield txn.durable_event
        if durable:
            yield from self.issue_flush(issuer=issuer)

    # ------------------------------------------------------------------ background durability
    def _checkpointer(self):
        """Periodically flush the device cache (delayed durability).

        A failed background flush must not kill the daemon: delayed
        durability degrades, it does not crash the mount.
        """
        while True:
            yield self.sim.sleep(self.checkpoint_interval)
            try:
                yield from self.issue_flush(issuer="optfs-checkpoint")
            except EIOError:
                self.stats.eio_errors += 1
