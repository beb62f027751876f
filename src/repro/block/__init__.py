"""Order-preserving block device layer.

This package is the host half of the barrier-enabled IO stack (Section 3 of
the paper):

* :mod:`repro.block.request` — block-layer write requests and the
  ``REQ_ORDERED`` / ``REQ_BARRIER`` / ``REQ_FLUSH`` / ``REQ_FUA`` attributes.
* :mod:`repro.block.scheduler` — IO schedulers: the NOOP (FIFO) discipline
  of the legacy stack and the paper's Epoch-based scheduler built on it, with
  *epoch-based barrier reassignment*.
* :mod:`repro.block.dispatch` — translation of block requests into device
  commands: the legacy dispatch (every request is a ``simple`` command) and
  the order-preserving dispatch (barrier writes become ``ordered`` commands
  so the device preserves the transfer order without the host waiting).
* :mod:`repro.block.block_device` — :class:`BlockDevice`, the queue +
  dispatcher process the filesystems submit requests to.
"""

from repro.block.block_device import BlockDevice, BlockDeviceConfig
from repro.block.dispatch import DispatchPolicy, request_to_command
from repro.block.request import BlockRequest, RequestFlag, RequestOp
from repro.block.scheduler import EpochIOScheduler, IOScheduler, NoopScheduler

__all__ = [
    "BlockDevice",
    "BlockDeviceConfig",
    "BlockRequest",
    "DispatchPolicy",
    "EpochIOScheduler",
    "IOScheduler",
    "NoopScheduler",
    "RequestFlag",
    "RequestOp",
    "request_to_command",
]
