"""Scheduler interface of the block layer."""

from __future__ import annotations

import abc
from typing import Optional

from repro.block.request import BlockRequest


class IOScheduler(abc.ABC):
    """Interface between the block device queue and a scheduling discipline.

    A scheduler accepts requests with :meth:`add_request` and hands them out
    with :meth:`next_request`.  Schedulers may merge contiguous write
    requests (bounded by ``max_merge_pages``); merged requests report the
    requests they absorbed via ``BlockRequest.merged_requests`` so that the
    block device can complete them together.
    """

    def __init__(self, *, max_merge_pages: int = 64):
        if max_merge_pages < 1:
            raise ValueError("max_merge_pages must be at least 1")
        self.max_merge_pages = max_merge_pages

    @abc.abstractmethod
    def add_request(self, request: BlockRequest) -> None:
        """Queue a request (possibly merging it into an existing one)."""

    @abc.abstractmethod
    def next_request(self) -> Optional[BlockRequest]:
        """Remove and return the next request to dispatch, or ``None``."""

    def next_batch(self) -> list[BlockRequest]:
        """Remove and return every request dispatchable in one grant.

        The contract is strict: the batch must equal what repeated
        :meth:`next_request` calls would have returned *had no request
        arrived in between*, and any request left queued must still observe
        arrivals exactly as it would under single pulls (e.g. a FIFO
        scheduler must keep its tail in the queue so later contiguous
        writes can still back-merge into it).  The default is the trivially
        correct single pull; disciplines override it when they can prove a
        larger grant equivalent.
        """
        request = self.next_request()
        return [] if request is None else [request]

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of requests currently queued."""
