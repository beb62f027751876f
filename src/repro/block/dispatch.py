"""Dispatch policies: legacy vs. order-preserving (Section 3.4).

The dispatcher translates block requests into device commands.  The legacy
policy issues every write as a ``simple`` command — the device may service
them in any order, which is why the legacy stack has to fall back to
Wait-on-Transfer when it cares about ordering.  The order-preserving policy
issues barrier writes as ``ordered`` commands carrying the barrier flag, so
the device itself preserves the transfer order (``D = C``) and the host can
keep dispatching without waiting for DMA completion.
"""

from __future__ import annotations

import enum

from repro.block.request import _BARRIER_BIT as _REQ_BARRIER
from repro.block.request import _FLUSH_BIT as _REQ_FLUSH
from repro.block.request import _FUA_BIT as _REQ_FUA
from repro.block.request import BlockRequest, RequestOp
from repro.storage.command import (
    Command,
    CommandFlag,
    CommandKind,
    CommandPriority,
    flush_command,
)


class DispatchPolicy(enum.Enum):
    """How block requests are translated into device commands."""

    #: Stock block layer: no ordering attributes reach the device.
    LEGACY = "legacy"
    #: Barrier-enabled block layer: barrier writes become ``ordered`` commands.
    ORDER_PRESERVING = "order-preserving"


# Write-command flags precomputed for every FUA/FLUSH/BARRIER combination,
# indexed by the raw bit mask, so the dispatcher performs no Flag arithmetic
# per request (Flag.__or__ allocates).
_FLAG_TABLE = {
    bits: CommandFlag(bits)
    for bits in range(
        (CommandFlag.FUA | CommandFlag.FLUSH | CommandFlag.BARRIER).value + 1
    )
}
_FUA_BIT = CommandFlag.FUA.value
_FLUSH_BIT = CommandFlag.FLUSH.value
_BARRIER_BIT = CommandFlag.BARRIER.value


def request_to_command(request: BlockRequest, policy: DispatchPolicy) -> Command:
    """Build the device command for ``request`` under ``policy``."""
    op = request.op
    if op is RequestOp.FLUSH:
        return flush_command(tag=request.request_id)

    if op is RequestOp.READ:
        return Command(
            kind=CommandKind.READ,
            lba=request.lba,
            num_pages=request.num_pages,
            tag=request.request_id,
        )

    flags = request.flags._value_
    bits = 0
    priority = CommandPriority.SIMPLE
    if flags & _REQ_FUA:
        bits |= _FUA_BIT
    if flags & _REQ_FLUSH:
        bits |= _FLUSH_BIT
    if policy is DispatchPolicy.ORDER_PRESERVING and flags & _REQ_BARRIER:
        # The barrier write is both flagged for the device cache (persist
        # order) and given the ``ordered`` SCSI priority (transfer order).
        bits |= _BARRIER_BIT
        priority = CommandPriority.ORDERED

    return Command(
        kind=CommandKind.WRITE,
        lba=request.lba,
        num_pages=request.num_pages,
        flags=_FLAG_TABLE[bits],
        priority=priority,
        payload=tuple(request.payload),
        tag=request.request_id,
    )
