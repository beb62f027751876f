"""Typed filesystem errors surfaced at the syscall boundary.

The block layer's typed device errors (:mod:`repro.storage.errors`) describe
what happened *inside* the stack — a command completed with an error status,
the retry budget ran out, power was lost mid-dispatch.  This module defines
what the *application* sees: the POSIX-shaped errors that ``fsync()`` and
friends return once a failure has climbed out of the device and through the
journal.  Keeping them as ``OSError`` subclasses with real ``errno`` values
means workload code can handle them the way a ported application would
(``except OSError as err: if err.errno == errno.EIO``).

See docs/RECOVERY.md for the full error model and the per-filesystem
post-failure semantics.
"""

from __future__ import annotations

import errno


class FilesystemError(OSError):
    """Base class for errors raised at the filesystem/syscall boundary."""


class EIOError(FilesystemError):
    """An IO error reached the issuing system call (``errno.EIO``).

    Raised by the sync family (``fsync``/``fdatasync``/``fbarrier``/
    ``osync``/...) when a block request the call depends on completed with an
    error status — a retry-exhausted write, a failed journal descriptor or
    commit block, or a flush the device could not honour.
    """

    def __init__(self, detail: str = "input/output error"):
        super().__init__(errno.EIO, detail)
        self.detail = detail

    def __reduce__(self):  # keep picklable across crashlab pool workers
        return (self.__class__, (self.detail,))


class ReadOnlyFSError(FilesystemError):
    """The mount has degraded to read-only (``errno.EROFS``).

    Raised by mutating operations after a durable journal failure flipped
    the mount read-only (``MountOptions.errors == "remount-ro"``).  Reads
    keep working; a :func:`repro.recovery.remount` clears the condition.
    """

    def __init__(self, detail: str = "read-only file system"):
        super().__init__(errno.EROFS, detail)
        self.detail = detail

    def __reduce__(self):
        return (self.__class__, (self.detail,))


class FilesystemPanicError(FilesystemError):
    """The mount was configured to panic on journal failure.

    The simulated counterpart of ``errors=panic``: the failure escapes the
    journal daemon and tears down the whole run, the way a kernel panic
    takes the machine with it.
    """

    def __init__(self, detail: str = "journal failure with errors=panic"):
        super().__init__(errno.EIO, detail)
        self.detail = detail

    def __reduce__(self):
        return (self.__class__, (self.detail,))
