"""VFS layer shared by all the filesystems.

:class:`FilesystemBase` owns the namespace (name → inode), the page-cache
dirty state, the LBA layout and the buffered ``write()`` path.  The concrete
filesystems (EXT4, BarrierFS, OptFS) implement the sync-family calls on top
of two primitives this class provides:

* :meth:`writeback_data` — turn a file's dirty pages into block-layer write
  requests (contiguous pages are submitted as a single request, which is the
  behaviour the paper relies on when it reports the number of requests per
  journal commit);
* :meth:`issue_flush` — submit a cache-flush request and wait for it.

Every sync-family call is a *generator*: application code runs it with
``yield from fs.fsync(file)`` inside a simulation process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from repro.block.block_device import BlockDevice
from repro.block.request import BlockRequest, RequestFlag
from repro.fs.errors import EIOError, ReadOnlyFSError
from repro.fs.inode import (
    File, Inode, PageCacheStats, group_bitmap_block, grow_versions, make_inode, timestamp_tick,
)
from repro.fs.mount import MountOptions
from repro.simulation.engine import Event, Simulator
from repro.simulation.history import refuse_late_start
from repro.storage.command import WrittenBlock

#: The sync-family system calls; each filesystem implements a subset.
SYNC_CALLS = ("fsync", "fdatasync", "fbarrier", "fdatabarrier", "osync")

#: Dirty-page throttling starts when the block-layer queue holds more than
#: this many device queues' worth of requests.
THROTTLE_FACTOR = 4


@dataclass
class SyscallStats:
    """Counts of the sync-family system calls (used by the experiments)."""

    writes: int = 0
    fsync: int = 0
    fdatasync: int = 0
    fbarrier: int = 0
    fdatabarrier: int = 0
    osync: int = 0
    journal_commits: int = 0
    data_requests: int = 0
    flush_requests: int = 0
    reads: int = 0
    #: Sync-family calls that surfaced an :class:`EIOError` to the caller.
    eio_errors: int = 0
    #: Times a durable journal failure flipped the mount read-only.
    remount_ro_events: int = 0
    #: Application-level sync retries issued by a :class:`SyncPolicy`.
    sync_retries: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view of the counters."""
        return dict(vars(self))


@dataclass
class WritebackResult:
    """What a data writeback produced (used by the sync implementations)."""

    requests: list[BlockRequest] = field(default_factory=list)
    blocks: list[WrittenBlock] = field(default_factory=list)

    @property
    def transfer_events(self) -> list[Event]:
        """The DMA-completion events of the issued requests."""
        return [request.transferred for request in self.requests]


class FilesystemBase:
    """Namespace, page cache and buffered-write path."""

    #: Human-readable filesystem name (overridden by subclasses).
    name = "vfs"

    def __init__(
        self,
        sim: Simulator,
        block_device: BlockDevice,
        options: Optional[MountOptions] = None,
    ):
        self.sim = sim
        self.block = block_device
        self.options = options or MountOptions()
        self.stats = SyscallStats()
        self.page_cache_stats = PageCacheStats()
        self._inodes: dict[str, Inode] = {}
        #: Moves whenever a name starts or stops resolving to an inode, so a
        #: reader can tell whether a resolution it cached still stands.
        self.namespace_version = 0
        self._inode_numbers = itertools.count(1)
        self._journal_lba = 1 << 30
        #: Whether the mount has degraded to read-only (``errors=remount-ro``
        #: after a durable journal failure).  Writes raise
        #: :class:`ReadOnlyFSError` while the flag is set; reads keep working.
        self.read_only = False
        #: Whether new inodes keep a size log (:meth:`record_history`).
        self._record_sizes = False
        #: Block-layer queue length beyond which writers are throttled.
        self._throttle_limit = THROTTLE_FACTOR * block_device.device.profile.queue_depth

    def record_history(self) -> None:
        """Keep every inode's size log from now on (before the first inode).

        The log (``Inode.metadata_history``) is crash history: only journal
        recovery (:func:`repro.recovery.image.capture_image`) reads it.
        """
        if not self._record_sizes:
            refuse_late_start(bool(self._inodes), "the inode size log")
            self._record_sizes = True

    # ------------------------------------------------------------------ namespace
    def create(self, name: str, *, preallocate_pages: int = 0) -> File:
        """Create (or truncate) a file and return an open handle."""
        inode = make_inode(
            next(self._inode_numbers), name,
            preallocated_pages=preallocate_pages, record_sizes=self._record_sizes,
        )
        self._inodes[name] = inode
        self.namespace_version += 1
        return File(inode=inode, append_page=0)

    def open(self, name: str) -> File:
        """Open an existing file (appending at its current size)."""
        inode = self._inodes[name]
        return File(inode=inode, append_page=inode.size_pages)

    def exists(self, name: str) -> bool:
        """Whether a file with this name exists."""
        return name in self._inodes

    def unlink(self, name: str) -> None:
        """Remove a file from the namespace (its inode is forgotten)."""
        del self._inodes[name]
        self.namespace_version += 1

    @property
    def files(self) -> list[str]:
        """Names of all existing files."""
        return sorted(self._inodes)

    # ------------------------------------------------------------------ write()
    def write(
        self,
        file: File,
        num_pages: int = 1,
        *,
        offset_page: Optional[int] = None,
    ) -> list[int]:
        """Buffered write of ``num_pages`` pages.

        Marks the pages dirty in the page cache and dirties the inode's
        metadata when the write allocates new blocks or crosses a timestamp
        tick; no IO is issued.  Returns the page indexes written.
        """
        if self.read_only:
            raise ReadOnlyFSError(
                f"{self.name}: mount is read-only after a journal failure"
            )
        inode = file.inode
        start = offset_page if offset_page is not None else file.append_page
        pages = list(range(start, start + num_pages))
        allocating = False
        versions = inode.page_versions
        for page_index in pages:
            end = len(versions)
            if page_index < end:
                version = versions[page_index] + 1
                versions[page_index] = version
            else:
                if page_index > end:
                    grow_versions(versions, page_index)
                versions.append(1)
                version = 1
            inode.dirty_pages[page_index] = version
            if page_index >= inode.size_pages:
                allocating = True
                inode.unallocated_pages.add(page_index)
        if offset_page is None:
            file.append_page = start + num_pages
        if allocating:
            inode.size_pages = max(inode.size_pages, pages[-1] + 1)
            self._dirty_metadata(inode)
            self.page_cache_stats.allocating_writes += 1
        else:
            tick = timestamp_tick(self.sim.now)
            if tick != inode.last_timestamp_tick:
                inode.last_timestamp_tick = tick
                self._dirty_metadata(inode)
        self.stats.writes += 1
        self.page_cache_stats.buffered_writes += 1
        self.page_cache_stats.pages_dirtied += num_pages
        return pages

    def _dirty_metadata(self, inode: Inode) -> None:
        inode.metadata_dirty = True
        inode.metadata_version += 1
        history = inode.metadata_history
        if history is not None:
            history[inode.metadata_version] = inode.size_pages
        self.page_cache_stats.metadata_dirties += 1

    # ------------------------------------------------------------------ writeback
    def writeback_data(
        self,
        file: File,
        *,
        flags: RequestFlag = RequestFlag.NONE,
        barrier_on_last: bool = False,
        issuer: str = "app",
    ) -> WritebackResult:
        """Submit write requests for the file's dirty pages (no waiting).

        Contiguous dirty pages are coalesced into single requests.  When
        ``barrier_on_last`` is set the final request carries the BARRIER
        attribute (used by ``fdatabarrier``/BarrierFS).
        """
        inode = file.inode
        result = WritebackResult()
        if not inode.dirty_pages:
            return result
        dirty_pages = inode.dirty_pages
        runs = self._contiguous_runs(sorted(dirty_pages))
        data_block_name = inode.data_block_name
        for run in runs:
            payload = [
                WrittenBlock(block=data_block_name(page), version=dirty_pages[page])
                for page in run
            ]
            request = self.block.write(
                inode.lba_of(run[0]),
                len(run),
                payload=payload,
                flags=flags,
                issuer=issuer,
            )
            result.requests.append(request)
            result.blocks.extend(payload)
        if barrier_on_last and result.requests:
            result.requests[-1].set_barrier()
        inode.dirty_pages.clear()
        inode.unallocated_pages.clear()
        self.stats.data_requests += len(result.requests)
        return result

    @staticmethod
    def _contiguous_runs(pages: Sequence[int]) -> list[list[int]]:
        runs: list[list[int]] = []
        for page in pages:
            if runs and page == runs[-1][-1] + 1:
                runs[-1].append(page)
            else:
                runs.append([page])
        return runs

    def issue_flush(self, *, issuer: str = "app") -> Generator[Event, object, BlockRequest]:
        """Generator: submit a cache flush and wait for it to complete.

        A flush that completed with an error status raises
        :class:`EIOError` here instead of returning.
        """
        self.stats.flush_requests += 1
        request = self.block.flush(issuer=issuer)
        yield request.completed
        self._check_requests((request,))
        return request

    # ------------------------------------------------------------------ read()
    def read(
        self,
        file: File,
        num_pages: int = 1,
        *,
        offset_page: int = 0,
        issuer: str = "app",
    ) -> Generator[Event, object, list[int]]:
        """Generator: read ``num_pages`` pages from the device.

        Models a cold-cache read (every call issues a device read command);
        what matters to the robustness scenarios is that reads keep being
        serviced after the mount degrades to read-only.  Returns the page
        indexes read (clamped to the file size).
        """
        inode = file.inode
        count = max(0, min(num_pages, inode.size_pages - offset_page))
        if count == 0:
            return []
        request = self.block.read(inode.lba_of(offset_page), count, issuer=issuer)
        yield request.completed
        self._check_requests((request,))
        self.stats.reads += 1
        return list(range(offset_page, offset_page + count))

    def throttle_writeback(self) -> Generator[Event, object, None]:
        """Generator: block the caller while the IO queues are overloaded.

        Models the kernel's dirty-page throttling: a caller that only issues
        asynchronous (ordering-only) writes must still slow down to the
        device's drain rate once the block-layer queue grows beyond a few
        multiples (``THROTTLE_FACTOR``) of the device queue depth.
        """
        scheduler = self.block.scheduler
        while len(scheduler) > self._throttle_limit:
            yield self.sim.sleep(50.0)

    # ------------------------------------------------------------------ metadata capture
    def metadata_buffers_for(self, inode: Inode) -> list[tuple[tuple, int]]:
        """The metadata buffers an fsync of this inode must journal.

        An allocating write dirties two: the inode and the bitmap of its
        block group.
        """
        version = inode.metadata_version
        return [
            (inode.metadata_block_name(), version),
            (group_bitmap_block(inode.inode_no), version),
        ]

    def _needs_journal(self, file: File, metadata_matters: bool) -> bool:
        """Whether a sync of ``file`` must commit a journal transaction."""
        inode = file.inode
        if metadata_matters:
            return inode.has_dirty_metadata
        # fdatasync only journals when the data cannot be reached without the
        # metadata (freshly allocated blocks).
        return bool(inode.unallocated_pages)

    def clear_metadata_dirty(self, inode: Inode) -> None:
        """Mark the inode's metadata clean (its buffers joined a transaction)."""
        inode.metadata_dirty = False

    # ------------------------------------------------------------------ journal layout
    def allocate_journal_lba(self, num_pages: int) -> int:
        """Reserve journal-area LBAs for a JD/JC write."""
        lba = self._journal_lba
        self._journal_lba += num_pages
        return lba

    # ------------------------------------------------------------------ error propagation
    def _check_requests(self, requests) -> None:
        """Raise :class:`EIOError` for the first request that failed.

        Requests fail only under faults (an injected error, a power cut, a
        device busy past its requeue bound), so on a fault-free run this
        finds nothing: the check costs one call and raises nowhere.
        """
        for request in requests:
            if request.error is not None:
                raise EIOError(
                    f"{request.op.value} lba={request.lba} "
                    f"pages={request.num_pages}: {request.error}"
                )

    def journal_failed(self, error: str) -> str:
        """Apply the mount's ``errors=`` behaviour to a durable journal failure.

        Returns the behaviour applied so the journal can decide whether to
        abort itself (``remount-ro``), keep committing (``continue``), or
        raise out of its daemon (``panic`` — the caller raises, so the
        failure tears down the run the way a kernel panic would).
        """
        behavior = self.options.errors
        if behavior == "remount-ro" and not self.read_only:
            self.read_only = True
            self.stats.remount_ro_events += 1
        return behavior

    def acknowledge_durable(self, inode: Inode) -> None:
        """Record that a durability-claiming sync acknowledged this size.

        Called on the successful return path of ``fsync``/``fdatasync``/
        ``dsync`` (not the ordering-only barrier calls): the application was
        just promised that everything up to the current size survives power
        loss.  The recovered-acked-prefix oracle holds the stack to it.
        """
        if inode.size_pages > inode.synced_size_pages:
            inode.synced_size_pages = inode.size_pages

    # ------------------------------------------------------------------ remount support
    def adopt_inode(self, name: str, inode_no: int, *, size_pages: int = 0) -> Inode:
        """Register a recovered inode under its original number.

        Used by :func:`repro.recovery.remount` to rebuild the namespace a
        journal recovery produced: the inode keeps its pre-crash number (and
        therefore its LBA extent).  Callers adopt inodes in ascending
        ``inode_no`` order; the allocator is bumped past each adoption so
        files created afterwards get fresh numbers.
        """
        inode = make_inode(
            inode_no, name,
            preallocated_pages=size_pages, record_sizes=self._record_sizes,
        )
        self._inodes[name] = inode
        self.namespace_version += 1
        self._inode_numbers = itertools.count(inode_no + 1)
        return inode

    # ------------------------------------------------------------------ sync family (abstract)
    def fsync(self, file: File, *, issuer: str = "app"):
        """Durability + ordering for one file (overridden by subclasses)."""
        raise NotImplementedError

    def fdatasync(self, file: File, *, issuer: str = "app"):
        """Durability of the file's data (overridden by subclasses)."""
        raise NotImplementedError
