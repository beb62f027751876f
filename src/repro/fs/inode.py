"""Inodes, files and the (host) page cache state they carry.

The filesystems in this package do not store real bytes — what the paper's
evaluation depends on is *which* logical blocks are dirty, in which order
they are written out and with which versions, so that the crash-recovery
checker can decide what survived.  An :class:`Inode` therefore tracks dirty
data pages (page index → version), dirty metadata buffers, and the mapping
from its pages to device LBAs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Optional


@dataclass
class Inode:
    """In-memory inode with its dirty state."""

    inode_no: int
    name: str
    extent_base_lba: int
    size_pages: int = 0
    #: Size in pages the file had before the run (mkfs or preallocation):
    #: pages below it carry pre-run content rather than writes of the run.
    preallocated_pages: int = 0
    #: Dirty data pages: page index -> version of the pending write.
    dirty_pages: dict[int, int] = field(default_factory=dict)
    #: Latest version ever written (durable or not) per page, indexed by
    #: page; 0 for a page never written.  Dense: the array only grows when
    #: a write reaches its end (see :func:`grow_versions`), and such a
    #: write also grows ``size_pages``, so it never outgrows the file.
    page_versions: array = field(default_factory=partial(array, "I"))
    #: Whether the inode's metadata (timestamps, size, allocation) is dirty.
    metadata_dirty: bool = False
    #: Version counter of the inode's metadata buffer.
    metadata_version: int = 0
    #: Timestamp tick at which the inode times were last updated.
    last_timestamp_tick: int = -1
    #: Pages appended but not yet covered by a committed allocation.
    unallocated_pages: set[int] = field(default_factory=set)
    #: File size, in pages, at each metadata buffer version (the inode
    #: size log).  Journal recovery resolves the metadata version it
    #: recovered back to the size the on-disk inode would carry
    #: (``repro.recovery`` reads this the way a real remount reads the inode
    #: block the journal replayed).  Crash history: ``None`` unless the
    #: filesystem's ``record_history()`` ran before the inode was created.
    metadata_history: Optional[dict[int, int]] = None
    #: High-water size (pages) acknowledged by a durability-claiming sync
    #: (``fsync``/``fdatasync``/``dsync``).  This is the application's view
    #: of what the kernel *promised* survived — the recovered-acked-prefix
    #: oracle compares it against what actually did.
    synced_size_pages: int = 0

    def lba_of(self, page_index: int) -> int:
        """Device LBA of one page of this file."""
        return self.extent_base_lba + page_index

    def data_block_name(self, page_index: int) -> tuple:
        """Logical block identity used for crash-recovery bookkeeping."""
        return ("data", self.inode_no, page_index)

    def metadata_block_name(self) -> tuple:
        """Logical identity of the inode's metadata buffer."""
        return ("inode", self.inode_no)

    @property
    def has_dirty_metadata(self) -> bool:
        """Whether the inode's metadata awaits journaling."""
        return self.metadata_dirty


@dataclass
class File:
    """An open file handle."""

    inode: Inode
    #: Current append offset, in pages.
    append_page: int = 0

    @property
    def name(self) -> str:
        """File name (path)."""
        return self.inode.name

    @property
    def inode_no(self) -> int:
        """Inode number backing the handle."""
        return self.inode.inode_no


@dataclass
class PageCacheStats:
    """Counters about buffered writes (used by a few experiments)."""

    buffered_writes: int = 0
    pages_dirtied: int = 0
    metadata_dirties: int = 0
    allocating_writes: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view of the counters."""
        return {
            "buffered_writes": self.buffered_writes,
            "pages_dirtied": self.pages_dirtied,
            "metadata_dirties": self.metadata_dirties,
            "allocating_writes": self.allocating_writes,
        }


#: Granularity (µs) of inode timestamp updates (Linux jiffy).  Writes that
#: do not cross a timestamp tick leave the inode clean, which is why most
#: fsync() calls on a fast device degenerate to fdatasync() (Section 6.3).
TIMESTAMP_GRANULARITY = 10_000.0
#: Pages of one file extent: inode *n*'s extent starts at LBA
#: ``n * MAX_FILE_PAGES`` (the LBA layout).
MAX_FILE_PAGES = 1 << 20


def timestamp_tick(now: float) -> int:
    """The coarse timestamp tick (jiffy) for ``now``."""
    return int(now // TIMESTAMP_GRANULARITY)


def make_inode(inode_no: int, name: str, preallocated_pages: int = 0, *,
               record_sizes: bool = False) -> Inode:
    """Create an inode with its extent placed by inode number.

    ``record_sizes`` starts its size log (``metadata_history``) at metadata
    version 0, the preallocation baseline.
    """
    inode = Inode(
        inode_no=inode_no,
        name=name,
        extent_base_lba=inode_no * MAX_FILE_PAGES,
        size_pages=preallocated_pages,
        preallocated_pages=preallocated_pages,
    )
    if record_sizes:
        inode.metadata_history = {0: preallocated_pages}
    return inode


def grow_versions(versions: array, page_index: int) -> None:
    """Pad ``versions`` with never-written pages (0) up to ``page_index``.

    A write past the end of a file leaves a hole; the next ``append`` then
    lands on ``page_index`` itself.
    """
    missing = page_index - len(versions)
    if missing > 0:
        versions.frombytes(bytes(missing * versions.itemsize))


def group_bitmap_block(inode_no: int, num_groups: int = 16) -> tuple:
    """Logical identity of the block-group bitmap an inode allocates from.

    EXT4 spreads inodes across block groups, so files created by different
    threads usually allocate from different bitmaps (their commits can
    overlap), while repeated allocating writes to the *same* file keep
    hitting the same bitmap buffer — which is what creates the
    multi-transaction page conflicts of Section 4.3.
    """
    return ("bitmap", inode_no % num_groups)
