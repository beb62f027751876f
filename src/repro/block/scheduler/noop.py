"""NOOP scheduler: FIFO dispatch with back-merging.

This is the discipline the paper assumes for NVMe-style devices where the
hardware queue does the real scheduling, and the block layer's only one: the
legacy stack runs it as is and :class:`EpochIOScheduler` extends it, because
it adds no reordering of its own (the device command queue provides the
"orderless" behaviour already).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.block.request import BlockRequest
from repro.block.scheduler.base import IOScheduler


class NoopScheduler(IOScheduler):
    """First-in first-out scheduler with contiguous back-merging."""

    def __init__(self, *, max_merge_pages: int = 64):
        super().__init__(max_merge_pages=max_merge_pages)
        self._queue: Deque[BlockRequest] = deque()

    def add_request(self, request: BlockRequest) -> None:
        """Append the request, merging into the tail if contiguous."""
        if self._queue:
            tail = self._queue[-1]
            if tail.can_merge_with(request, self.max_merge_pages):
                tail.merge(request)
                return
        self._queue.append(request)

    def next_request(self) -> Optional[BlockRequest]:
        """Pop the oldest request."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def next_batch(self) -> list[BlockRequest]:
        """Pop every queued request except the merge tail.

        New arrivals only ever merge into the newest queued request, so the
        tail must stay in the queue until a younger request sits behind it —
        popping it early would turn a would-be merge into a separate
        request.  With a single queued request the single pull takes it
        (exactly what ``next_request`` would have done); with more, the
        grant is everything up to but excluding the tail.
        """
        queue = self._queue
        count = len(queue)
        if count == 0:
            return []
        popleft = queue.popleft
        if count == 1:
            return [popleft()]
        return [popleft() for _ in range(count - 1)]

    def __len__(self) -> int:
        return len(self._queue)
