"""Block-layer requests and their ordering attributes.

A :class:`BlockRequest` is what a filesystem (or a raw workload) submits to
the :class:`~repro.block.block_device.BlockDevice`.  The paper adds two
attributes to the classic set:

* ``ORDERED`` marks a request *order-preserving*: it belongs to an epoch and
  must not cross epoch boundaries.
* ``BARRIER`` marks a request as the delimiter of its epoch.

``FLUSH`` and ``FUA`` retain their legacy meaning (pre-flush the device
cache / force the payload to media before completion); the legacy EXT4
journal uses them for the commit block, BarrierFS does not need them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.simulation.engine import Event
from repro.storage.command import WrittenBlock


class RequestOp(enum.Enum):
    """Block request operation."""

    WRITE = "write"
    READ = "read"
    FLUSH = "flush"


class RequestFlag(enum.Flag):
    """REQ_* attributes carried by a block request."""

    NONE = 0
    #: REQ_ORDERED — the request is order-preserving (member of an epoch).
    ORDERED = enum.auto()
    #: REQ_BARRIER — the request delimits its epoch.
    BARRIER = enum.auto()
    #: REQ_FLUSH — flush the device writeback cache before this request.
    FLUSH = enum.auto()
    #: REQ_FUA — the payload must be durable before the request completes.
    FUA = enum.auto()


_request_ids = itertools.count(1)

# Raw flag bits.  Predicates test ``flags._value_ & bit``: Flag.__and__
# allocates a Flag per test, and even ``flags.value`` runs two Python calls
# of enum's property machinery (hot in submit/dispatch).
_ORDERED_BIT = RequestFlag.ORDERED._value_
_BARRIER_BIT = RequestFlag.BARRIER._value_
_FLUSH_BIT = RequestFlag.FLUSH._value_
_FUA_BIT = RequestFlag.FUA._value_
#: A FUA, pre-flush or barrier request never merges (either side).
_UNMERGEABLE_BITS = _FUA_BIT | _FLUSH_BIT | _BARRIER_BIT
#: Every flag combination, indexed by its bits: flag updates look the new
#: member up here instead of running Flag.__or__/__and__/__invert__.
_FLAGS_BY_BITS = tuple(
    RequestFlag(bits)
    for bits in range((_ORDERED_BIT | _BARRIER_BIT | _FLUSH_BIT | _FUA_BIT) + 1)
)


@dataclass(eq=False, slots=True)
class BlockRequest:
    """One request travelling through the block layer."""

    op: RequestOp
    lba: int = 0
    num_pages: int = 1
    flags: RequestFlag = RequestFlag.NONE
    payload: Sequence[WrittenBlock] = field(default_factory=tuple)
    #: Identity of the submitting thread (used for tracing only).
    issuer: str = "unknown"
    request_id: int = field(default_factory=_request_ids.__next__)

    # Assigned by the block device on submission.
    issue_seq: Optional[int] = None
    issue_epoch: Optional[int] = None
    issue_time: Optional[float] = None

    # Assigned by the dispatcher.
    dispatch_seq: Optional[int] = None
    dispatch_time: Optional[float] = None

    #: Error code when the request ultimately failed (``None`` on success).
    #: Set by the block layer after the bounded retry path is exhausted —
    #: see ``repro.storage.errors`` for the code vocabulary.
    error: Optional[str] = None
    #: How many times the dispatcher re-drove this request after the device
    #: reported an error.
    retries: int = 0

    # Milestone events (created by the block device on submission; the
    # device fires an unmerged request's transferred/completed itself).
    # They fire with no value: a request as its own event's value would be
    # a reference cycle.
    dispatched: Optional[Event] = None
    transferred: Optional[Event] = None
    completed: Optional[Event] = None

    #: Requests that were merged into this one by the IO scheduler.
    merged_requests: list["BlockRequest"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.op is RequestOp.WRITE and not self.payload:
            self.payload = tuple(
                WrittenBlock(block=("blk", self.request_id, index))
                for index in range(self.num_pages)
            )
        if self.op is RequestOp.FLUSH:
            self.num_pages = 0

    # -- attribute predicates ------------------------------------------------
    @property
    def is_write(self) -> bool:
        """Whether the request writes data."""
        return self.op is RequestOp.WRITE

    @property
    def is_flush(self) -> bool:
        """Whether the request is a standalone cache flush."""
        return self.op is RequestOp.FLUSH

    @property
    def is_ordered(self) -> bool:
        """Whether the request is order-preserving (REQ_ORDERED)."""
        return self.flags._value_ & _ORDERED_BIT != 0

    @property
    def is_barrier(self) -> bool:
        """Whether the request delimits an epoch (REQ_BARRIER)."""
        return self.flags._value_ & _BARRIER_BIT != 0

    # -- flag manipulation (used by the epoch scheduler) ----------------------
    def strip_barrier(self) -> None:
        """Remove the BARRIER attribute (barrier reassignment, step one)."""
        self.flags = _FLAGS_BY_BITS[self.flags._value_ & ~_BARRIER_BIT]

    def set_barrier(self) -> None:
        """Add the BARRIER and ORDERED attributes (barrier reassignment, step two)."""
        self.flags = _FLAGS_BY_BITS[self.flags._value_ | _BARRIER_BIT | _ORDERED_BIT]

    # -- completion relays (wired to the command of a merged request, or of
    # any request on a hooked device, by the dispatcher) ---------------------
    def relay_transferred(self, _event: Event) -> None:
        """Propagate a device DMA completion to this request and its merges."""
        self.transferred.succeed()
        for merged in self.merged_requests:
            if merged.transferred is not None and not merged.transferred.triggered:
                merged.transferred.succeed()

    def relay_completed(self, _event: Event) -> None:
        """Propagate a device command completion to this request and its merges."""
        self.completed.succeed()
        for merged in self.merged_requests:
            if merged.completed is not None and not merged.completed.triggered:
                merged.completed.succeed()

    def fail(self, error: str) -> None:
        """Complete the request with an error status.

        Every still-pending milestone event fires (with :attr:`error` set) so
        that waiters — Wait-on-Transfer loops, fsync paths — observe a
        completion instead of deadlocking; callers that care inspect
        ``request.error`` afterwards.  Merged requests fail with the same
        code.
        """
        self.error = error
        for event in (self.dispatched, self.transferred, self.completed):
            if event is not None and not event.triggered:
                event.succeed()
        for merged in self.merged_requests:
            if merged.error is None:
                merged.fail(error)

    # -- merging ---------------------------------------------------------------
    @property
    def end_lba(self) -> int:
        """First LBA after this request."""
        return self.lba + self.num_pages

    def can_merge_with(self, other: "BlockRequest", max_pages: int) -> bool:
        """Whether ``other`` can be back-merged into this request."""
        if self.op is not RequestOp.WRITE or other.op is not RequestOp.WRITE:
            return False
        if (self.flags._value_ | other.flags._value_) & _UNMERGEABLE_BITS:
            return False
        if self.num_pages + other.num_pages > max_pages:
            return False
        return self.end_lba == other.lba

    def merge(self, other: "BlockRequest") -> None:
        """Absorb ``other`` (contiguous, already checked by the scheduler)."""
        self.payload = tuple(self.payload) + tuple(other.payload)
        self.num_pages += other.num_pages
        # A merged request is order-preserving if any constituent is.
        if other.flags._value_ & _ORDERED_BIT:
            self.flags = _FLAGS_BY_BITS[self.flags._value_ | _ORDERED_BIT]
        self.merged_requests.append(other)

    def describe(self) -> str:
        """One-line description for traces and error messages."""
        names = []
        for flag, label in (
            (RequestFlag.ORDERED, "ORDERED"),
            (RequestFlag.BARRIER, "BARRIER"),
            (RequestFlag.FLUSH, "FLUSH"),
            (RequestFlag.FUA, "FUA"),
        ):
            if self.flags & flag:
                names.append(label)
        flag_text = "|".join(names) if names else "-"
        return (
            f"req#{self.request_id} {self.op.value} lba={self.lba} "
            f"pages={self.num_pages} flags={flag_text} by={self.issuer}"
        )

