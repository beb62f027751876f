"""Epoch-based IO scheduler with barrier reassignment (Section 3.3).

The scheduler extends the block layer's FIFO discipline
(:class:`NoopScheduler`) with the three rules of the paper:

1. the partial order *between* epochs is preserved;
2. requests *within* an epoch (and orderless requests) may be freely
   scheduled against each other by the FIFO discipline;
3. *epoch-based barrier reassignment*: when a barrier write arrives its
   BARRIER attribute is stripped and the queue stops accepting new requests;
   the order-preserving request that leaves the queue **last** becomes the
   new barrier, after which the queue is unblocked and any requests that
   arrived in the meantime are admitted (a staged barrier immediately starts
   the next epoch).

Because merging may fold several order-preserving requests into one, the
scheduler tracks the identities of the order-preserving requests currently
inside the FIFO queue and only reassigns the barrier when the last of them
leaves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.block.request import _BARRIER_BIT, _ORDERED_BIT, BlockRequest
from repro.block.scheduler.noop import NoopScheduler


class EpochIOScheduler(NoopScheduler):
    """The paper's order-preserving scheduler layered over the FIFO one."""

    def __init__(self):
        super().__init__()
        self._staged: Deque[BlockRequest] = deque()
        self._blocked = False
        self._ordered_ids: set[int] = set()
        #: Request id of the barrier that closed the current epoch.
        self._barrier_id: Optional[int] = None
        #: Number of epochs whose barrier has been dispatched.
        self.epochs_dispatched = 0
        #: Number of times the barrier attribute moved to a different request.
        self.barriers_reassigned = 0

    # -- admission -------------------------------------------------------------
    def add_request(self, request: BlockRequest) -> None:
        """Admit a request, staging it if the queue is blocked by an epoch."""
        if self._blocked:
            self._staged.append(request)
            return
        bits = request.flags._value_
        if bits & _BARRIER_BIT:
            # Step one of barrier reassignment: the attribute is removed and
            # the queue is closed until the epoch has fully left the queue.
            request.strip_barrier()
            self._barrier_id = request.request_id
            self._blocked = True
        if bits & _ORDERED_BIT:
            self._ordered_ids.add(request.request_id)
        super().add_request(request)

    # -- dispatch ----------------------------------------------------------------
    def next_request(self) -> Optional[BlockRequest]:
        """Dispatch in FIFO order, reassigning the barrier."""
        request = super().next_request()
        if request is None:
            return None
        self._forget_ordered(request)
        if self._blocked and not self._ordered_ids:
            # ``request`` is the last order-preserving request of the epoch:
            # it leaves the queue carrying the barrier.
            if request.request_id != self._barrier_id:
                self.barriers_reassigned += 1
            request.set_barrier()
            self.epochs_dispatched += 1
            self._blocked = False
            self._drain_staged()
        return request

    def next_batch(self) -> list[BlockRequest]:
        """Batched dispatch; falls back to single pulls while blocked.

        While an epoch is draining, barrier reassignment and the staged-queue
        unblock must happen at exactly the single-pull cadence, so the
        blocked path pulls one request at a time.  When the queue is open no
        admission can happen mid-grant (``_blocked`` only changes in
        ``add_request``) and a barrier arriving *between* grants keeps its
        own id in ``_ordered_ids`` until it is pulled, so handing out the
        FIFO grant — forgetting each request's ordered id on the way — is
        pull-for-pull identical.
        """
        if self._blocked:
            request = self.next_request()
            return [] if request is None else [request]
        batch = super().next_batch()
        forget = self._forget_ordered
        for request in batch:
            forget(request)
        return batch

    def _forget_ordered(self, request: BlockRequest) -> None:
        self._ordered_ids.discard(request.request_id)
        for merged in request.merged_requests:
            self._ordered_ids.discard(merged.request_id)

    def _drain_staged(self) -> None:
        while self._staged and not self._blocked:
            self.add_request(self._staged.popleft())

    # -- bookkeeping ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue) + len(self._staged)

    @property
    def is_blocked(self) -> bool:
        """Whether the queue is currently closed, waiting for an epoch to drain."""
        return self._blocked

    @property
    def staged_count(self) -> int:
        """Requests waiting outside the blocked queue."""
        return len(self._staged)
