"""Filesystems of the barrier-enabled IO stack.

Three filesystems are provided, all sharing the same VFS/page-cache model
(:mod:`repro.fs.vfs`) and differing only in how they commit journal
transactions and what their sync-family system calls guarantee:

* :class:`~repro.fs.ext4.Ext4Filesystem` — stock EXT4 with JBD2-style
  journaling: ``fsync``/``fdatasync`` enforce the storage order with
  Wait-on-Transfer and FLUSH/FUA (or neither, with the ``nobarrier`` mount
  option).
* :class:`~repro.fs.barrierfs.BarrierFS` — the paper's filesystem: Dual-Mode
  Journaling (a commit thread and a flush thread), order-preserving/barrier
  write requests, and the new ``fbarrier()`` / ``fdatabarrier()`` calls.
* :class:`~repro.fs.optfs.OptFS` — the optimistic-crash-consistency baseline
  with ``osync()`` (ordering without durability, still Wait-on-Transfer
  based) and selective data journaling.
"""

from repro.fs.barrierfs import BarrierFS
from repro.fs.ext4 import Ext4Filesystem
from repro.fs.inode import File, Inode
from repro.fs.mount import MountOptions
from repro.fs.optfs import OptFS
from repro.fs.vfs import FilesystemBase, SyscallStats

__all__ = [
    "BarrierFS",
    "Ext4Filesystem",
    "File",
    "FilesystemBase",
    "Inode",
    "MountOptions",
    "OptFS",
    "SyscallStats",
]
