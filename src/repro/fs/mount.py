"""Mount options shared by the filesystems.

EXT4 and BarrierFS journal metadata in ext4's ``data=ordered`` mode, the
one the paper analyses: data blocks are written in place *before* the
transaction that references them commits (OptFS adds its selective data
journaling of overwrites, :mod:`repro.fs.optfs`).  The model constants that
no mount changes live where they are used: the timestamp granularity and
the extent size of a file in :mod:`repro.fs.inode`, and the metadata
buffers an allocating write dirties in
:meth:`repro.fs.vfs.FilesystemBase.metadata_buffers_for`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Accepted ``errors=`` behaviours (mirroring ext4's mount option).
ERRORS_BEHAVIORS = ("remount-ro", "continue", "panic")


@dataclass(frozen=True)
class MountOptions:
    """Options that change how the filesystems enforce the storage order."""

    #: EXT4 ``nobarrier``: skip the FLUSH/FUA when committing (durability of
    #: the commit is no longer guaranteed, ordering relies on transfer order).
    no_barrier: bool = False
    #: What to do when the journal fails durably (ext4 ``errors=``):
    #: ``remount-ro`` aborts the journal and degrades the mount to read-only,
    #: ``continue`` fails the affected transaction but keeps the mount
    #: writable, ``panic`` tears down the whole run.
    errors: str = "remount-ro"

    def __post_init__(self) -> None:
        if self.errors not in ERRORS_BEHAVIORS:
            raise ValueError(
                f"errors= must be one of {', '.join(ERRORS_BEHAVIORS)}; "
                f"got {self.errors!r}"
            )
