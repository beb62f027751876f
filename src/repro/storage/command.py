"""Storage command set.

A :class:`Command` is what the block-layer dispatcher hands to the device.
It mirrors the SCSI/UFS command model the paper builds on:

* ``WRITE`` commands carry a payload of logical blocks, may be flagged with
  ``FUA`` (persist before completing), ``FLUSH`` (flush the writeback cache
  before servicing) and — the paper's addition — ``BARRIER`` (everything
  transferred before this command must persist before anything transferred
  after it).
* ``FLUSH`` commands drain the writeback cache.
* Each command has a SCSI priority class: ``SIMPLE`` (free reordering),
  ``ORDERED`` (older commands must finish first, younger commands must wait)
  or ``HEAD_OF_QUEUE`` (service next).  Order-preserving dispatch tags
  barrier writes ``ORDERED`` so the device preserves the transfer order.

Commands expose simulation events for the two milestones the IO stack
waits on: *transferred* (DMA finished, data in the writeback cache) and
*completed* (the command's semantics — including FUA/FLUSH durability — are
satisfied).  Both fire with no value: waiters already hold the command, and
an event whose value is its own command would be a reference cycle.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.simulation.engine import Event


class CommandKind(enum.Enum):
    """The command opcode."""

    WRITE = "write"
    READ = "read"
    FLUSH = "flush"


class CommandFlag(enum.Flag):
    """Write-command modifier flags (REQ_* analogues at the device level)."""

    NONE = 0
    #: Force Unit Access: the written data must be durable before completion.
    FUA = enum.auto()
    #: Flush the writeback cache before servicing this command.
    FLUSH = enum.auto()
    #: Cache barrier: delimit a persist epoch (the paper's new flag).
    BARRIER = enum.auto()


class CommandPriority(enum.Enum):
    """SCSI task attribute used by order-preserving dispatch."""

    SIMPLE = "simple"
    ORDERED = "ordered"
    HEAD_OF_QUEUE = "head-of-queue"


@dataclass(frozen=True, slots=True)
class WrittenBlock:
    """One logical block carried by a write command.

    ``block`` identifies the logical block (the filesystem uses structured
    names such as ``("data", inode, page_index)`` or ``("jc", txn_id)``);
    ``version`` distinguishes successive writes of the same block so that the
    crash-recovery checker can tell which version survived.
    """

    block: object
    version: int = 0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.block}@v{self.version}"


_command_ids = itertools.count(1)

# Raw flag bits: ``flags._value_ & bit`` avoids the Flag instance that
# Flag.__and__ allocates on every predicate call, and the enum property
# calls behind ``flags.value`` (hot in device servicing).
_FUA_BIT = CommandFlag.FUA._value_
_FLUSH_BIT = CommandFlag.FLUSH._value_
_BARRIER_BIT = CommandFlag.BARRIER._value_


@dataclass(slots=True)
class Command:
    """A single command sent to the storage device."""

    kind: CommandKind
    lba: int = 0
    num_pages: int = 1
    flags: CommandFlag = CommandFlag.NONE
    priority: CommandPriority = CommandPriority.SIMPLE
    payload: Sequence[WrittenBlock] = field(default_factory=tuple)
    #: Opaque tag identifying the submitting context (for tracing).
    tag: object = None
    command_id: int = field(default_factory=_command_ids.__next__)

    # Milestone events: the device creates them on submission unless the
    # dispatcher handed it the request's own (an unmerged request on an
    # unhooked device).
    transferred: Optional[Event] = None
    completed: Optional[Event] = None

    # Timestamps recorded by the device (simulation time, microseconds).
    submit_time: Optional[float] = None
    accept_time: Optional[float] = None
    service_start_time: Optional[float] = None
    transfer_time: Optional[float] = None
    complete_time: Optional[float] = None

    # Persist-epoch the device assigned to this command's payload.
    epoch: Optional[int] = None

    #: Error code (``repro.storage.errors.CommandError.code``) when the device
    #: completed the command with an error status; ``None`` on success.
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_pages < 1 and self.kind is not CommandKind.FLUSH:
            raise ValueError("commands must cover at least one page")
        if self.kind is CommandKind.WRITE and not self.payload:
            # Give every write an anonymous payload so crash recovery can
            # still reason about it.
            self.payload = tuple(
                WrittenBlock(block=("anon", self.command_id, index))
                for index in range(self.num_pages)
            )

    # -- convenience predicates -------------------------------------------
    @property
    def is_write(self) -> bool:
        """Whether the command writes data."""
        return self.kind is CommandKind.WRITE

    @property
    def is_flush(self) -> bool:
        """Whether the command is a standalone cache flush."""
        return self.kind is CommandKind.FLUSH

    @property
    def is_barrier(self) -> bool:
        """Whether the command carries the cache-barrier flag."""
        return self.flags._value_ & _BARRIER_BIT != 0

    @property
    def is_fua(self) -> bool:
        """Whether the command requires Force Unit Access durability."""
        return self.flags._value_ & _FUA_BIT != 0

    @property
    def wants_preflush(self) -> bool:
        """Whether the cache must be flushed before servicing the command."""
        return self.flags._value_ & _FLUSH_BIT != 0

    def describe(self) -> str:
        """One-line human readable description (used in traces)."""
        flags = []
        if self.is_fua:
            flags.append("FUA")
        if self.wants_preflush:
            flags.append("FLUSH")
        if self.is_barrier:
            flags.append("BARRIER")
        flag_text = "|".join(flags) if flags else "-"
        return (
            f"cmd#{self.command_id} {self.kind.value} lba={self.lba} "
            f"pages={self.num_pages} flags={flag_text} prio={self.priority.value}"
        )


def flush_command(*, tag: object = None) -> Command:
    """Convenience constructor for a cache-flush command."""
    return Command(kind=CommandKind.FLUSH, lba=0, num_pages=0, tag=tag,
                   priority=CommandPriority.HEAD_OF_QUEUE)
