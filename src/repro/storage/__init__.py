"""Flash storage device simulator.

This package models the *device half* of the barrier-enabled IO stack:

* :mod:`repro.storage.profiles` — latency/parallelism/queue-depth parameters
  of the devices used in the paper (UFS, plain-SSD, supercap-SSD) and of the
  seven devices of Fig. 1.
* :mod:`repro.storage.command` — the command set (WRITE/READ/FLUSH with the
  ``FUA``, ``FLUSH`` and ``BARRIER`` flags and SCSI priority classes).
* :mod:`repro.storage.command_queue` — the device-side command queue with
  SCSI ``simple`` / ``ordered`` / ``head-of-queue`` semantics.
* :mod:`repro.storage.writeback_cache` — the volatile writeback cache whose
  drain order is what the barrier command constrains.
* :mod:`repro.storage.flash` — the flash array backend (channels/ways,
  program latency) that bounds persist bandwidth.
* :mod:`repro.storage.ftl` — a log-structured FTL with segment-based
  in-order recovery, the mechanism the paper uses in its UFS prototype.
* :mod:`repro.storage.barrier_modes` — the four ways a controller can honour
  the barrier (PLP, in-order write-back, transactional write-back, in-order
  crash recovery) plus the no-barrier legacy behaviour.
* :mod:`repro.storage.device` — :class:`StorageDevice`, gluing all of the
  above into the simulated device that the block layer talks to.
* :mod:`repro.storage.crash` — crash injection and recovery: computes which
  logical blocks survive a sudden power loss under each barrier mode.
* :mod:`repro.storage.errors` — the typed error model (power loss, device
  busy, IO-error command results) raised or reported by the layers above.
"""

from repro.storage.barrier_modes import BarrierMode
from repro.storage.command import (
    Command,
    CommandFlag,
    CommandKind,
    CommandPriority,
    WrittenBlock,
)
from repro.storage.command_queue import CommandQueue
from repro.storage.crash import CrashState, recover_durable_blocks
from repro.storage.device import StorageDevice
from repro.storage.errors import DeviceBusyError, PowerLossError, StorageError
from repro.storage.flash import FlashBackend
from repro.storage.ftl import LogStructuredFTL, Segment
from repro.storage.profiles import (
    DEVICE_PROFILES,
    FIG1_DEVICES,
    DeviceProfile,
    get_profile,
)
from repro.storage.writeback_cache import CacheEntry, WritebackCache

__all__ = [
    "BarrierMode",
    "CacheEntry",
    "Command",
    "CommandFlag",
    "CommandKind",
    "CommandPriority",
    "CommandQueue",
    "CrashState",
    "DeviceBusyError",
    "DEVICE_PROFILES",
    "DeviceProfile",
    "FIG1_DEVICES",
    "FlashBackend",
    "LogStructuredFTL",
    "PowerLossError",
    "Segment",
    "StorageDevice",
    "StorageError",
    "WritebackCache",
    "WrittenBlock",
    "get_profile",
    "recover_durable_blocks",
]
