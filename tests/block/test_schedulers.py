"""Unit tests for the IO schedulers, including epoch barrier reassignment."""

import pytest

from reference.builders import flush_request, write_request
from repro.block.request import RequestFlag
from repro.block.scheduler import EpochIOScheduler, NoopScheduler


def drain(scheduler):
    out = []
    while True:
        request = scheduler.next_request()
        if request is None:
            return out
        out.append(request)


class TestNoop:
    @pytest.mark.parametrize(
        "scheduler_class", [NoopScheduler, EpochIOScheduler], ids=lambda cls: cls.__name__
    )
    def test_fifo_order(self, scheduler_class):
        scheduler = scheduler_class()
        requests = [write_request(lba * 100) for lba in range(5)]
        for request in requests:
            scheduler.add_request(request)
        assert drain(scheduler) == requests

    def test_back_merge_contiguous_writes(self):
        scheduler = NoopScheduler(max_merge_pages=8)
        first = write_request(0, 2)
        second = write_request(2, 2)
        third = write_request(4, 2)
        for request in (first, second, third):
            scheduler.add_request(request)
        dispatched = drain(scheduler)
        assert dispatched == [first]
        assert first.num_pages == 6
        assert first.merged_requests == [second, third]

    @pytest.mark.parametrize(
        "scheduler_class", [NoopScheduler, EpochIOScheduler], ids=lambda cls: cls.__name__
    )
    def test_merge_respects_max_pages(self, scheduler_class):
        scheduler = scheduler_class(max_merge_pages=3)
        first = write_request(0, 2)
        second = write_request(2, 2)
        scheduler.add_request(first)
        scheduler.add_request(second)
        assert len(scheduler) == 2

    def test_barrier_request_not_merged(self):
        scheduler = NoopScheduler()
        first = write_request(0, 1)
        barrier = write_request(1, 1, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        scheduler.add_request(first)
        scheduler.add_request(barrier)
        assert len(scheduler) == 2

    def test_flush_request_has_no_pages(self):
        assert flush_request().num_pages == 0

    def test_front_adjacent_write_not_merged(self):
        # Back-merge only: a write ending where the tail starts stays separate
        # and keeps its place behind the tail.
        scheduler = NoopScheduler()
        tail = write_request(12, 2)
        front = write_request(10, 2)
        scheduler.add_request(tail)
        scheduler.add_request(front)
        assert drain(scheduler) == [tail, front]
        assert tail.num_pages == 2

    def test_only_tail_absorbs_merges(self):
        # ``late`` continues ``first`` but arrives behind an unrelated write:
        # FIFO dispatch never reaches past the tail to merge it.
        scheduler = NoopScheduler()
        first = write_request(0, 2)
        other = write_request(100, 2)
        late = write_request(2, 2)
        for request in (first, other, late):
            scheduler.add_request(request)
        assert drain(scheduler) == [first, other, late]
        assert first.merged_requests == []

    def test_fua_write_not_merged(self):
        scheduler = NoopScheduler()
        first = write_request(0, 1)
        fua = write_request(1, 1, flags=RequestFlag.FUA)
        scheduler.add_request(first)
        scheduler.add_request(fua)
        assert drain(scheduler) == [first, fua]

    def test_next_batch_keeps_merge_tail(self):
        scheduler = NoopScheduler()
        first, second, tail = (write_request(lba, 2) for lba in (0, 10, 20))
        for request in (first, second, tail):
            scheduler.add_request(request)
        assert scheduler.next_batch() == [first, second]
        # The tail stayed queued, so a contiguous arrival still merges into it.
        follow = write_request(22, 2)
        scheduler.add_request(follow)
        assert scheduler.next_batch() == [tail]
        assert tail.merged_requests == [follow]
        assert len(scheduler) == 0


class TestEpochScheduler:
    def test_fig5_epoch_drains_with_one_barrier(self):
        # Mirrors Fig. 5: w1, w2 ordered; w3 orderless; w4 ordered barrier;
        # w5 orderless; w6 arrives while the queue is blocked.
        scheduler = EpochIOScheduler()
        w1 = write_request(500, flags=RequestFlag.ORDERED)
        w2 = write_request(400, flags=RequestFlag.ORDERED)
        w3 = write_request(300)
        w4 = write_request(100, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        w5 = write_request(200)
        for request in (w1, w2, w3, w5, w4):
            scheduler.add_request(request)
        assert scheduler.is_blocked
        w6 = write_request(50)
        scheduler.add_request(w6)
        assert scheduler.staged_count == 1

        dispatched = drain(scheduler)
        ordered_dispatched = [request for request in dispatched if request.is_ordered]
        # FIFO dispatches w4 last of the epoch's ordered writes, so the barrier
        # stays on it and nothing is reassigned.
        assert ordered_dispatched[-1] is w4
        assert w4.is_barrier and scheduler.barriers_reassigned == 0
        assert sum(1 for request in dispatched if request.is_barrier) == 1
        assert w4 in dispatched and w6 in dispatched
        assert not scheduler.is_blocked

    def test_barrier_reassigned_to_request_it_merged_into(self):
        # The stripped barrier back-merges into the orderless write ahead of
        # it, so that write leaves the queue last and carries the barrier.
        scheduler = EpochIOScheduler()
        host = write_request(99)
        barrier = write_request(100, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        scheduler.add_request(host)
        scheduler.add_request(barrier)
        assert len(scheduler) == 1

        assert drain(scheduler) == [host]
        assert host.merged_requests == [barrier]
        assert host.is_ordered and host.is_barrier
        assert scheduler.barriers_reassigned == 1
        assert not scheduler.is_blocked

    def test_epoch_boundary_not_crossed(self):
        scheduler = EpochIOScheduler()
        epoch1 = [write_request(lba, flags=RequestFlag.ORDERED) for lba in (0, 10)]
        barrier1 = write_request(20, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        epoch2 = [write_request(lba, flags=RequestFlag.ORDERED) for lba in (100, 110)]
        barrier2 = write_request(120, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        for request in epoch1 + [barrier1] + epoch2 + [barrier2]:
            scheduler.add_request(request)
        dispatched = drain(scheduler)
        positions = {request.request_id: index for index, request in enumerate(dispatched)}
        for early in epoch1 + [barrier1]:
            for late in epoch2 + [barrier2]:
                assert positions[early.request_id] < positions[late.request_id]

    def test_orderless_requests_cross_epochs_freely(self):
        scheduler = EpochIOScheduler()
        ordered = write_request(0, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        orderless = write_request(100)
        scheduler.add_request(orderless)
        scheduler.add_request(ordered)
        dispatched = drain(scheduler)
        assert set(dispatched) == {ordered, orderless}

    def test_staged_barrier_starts_next_epoch(self):
        scheduler = EpochIOScheduler()
        first_barrier = write_request(0, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        scheduler.add_request(first_barrier)
        assert scheduler.is_blocked
        second_barrier = write_request(10, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        trailing = write_request(20, flags=RequestFlag.ORDERED)
        scheduler.add_request(second_barrier)
        scheduler.add_request(trailing)
        assert scheduler.staged_count == 2

        first = scheduler.next_request()
        assert first is first_barrier and first.is_barrier
        # After the first epoch drained the staged barrier blocks the queue again.
        assert scheduler.is_blocked
        assert scheduler.staged_count == 1
        remaining = drain(scheduler)
        assert remaining[0] is second_barrier and remaining[0].is_barrier
        # The trailing request opens the next (still undelimited) epoch: it
        # keeps its ORDERED attribute but does not become a barrier.
        assert remaining[1] is trailing and not remaining[1].is_barrier

    def test_epoch_counters(self):
        scheduler = EpochIOScheduler()
        for _ in range(3):
            scheduler.add_request(
                write_request(0, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
            )
            drain(scheduler)
        assert scheduler.epochs_dispatched == 3

    def test_empty_scheduler_returns_none(self):
        scheduler = EpochIOScheduler()
        assert scheduler.next_request() is None
        assert len(scheduler) == 0

    def test_merged_ordered_requests_release_epoch(self):
        # ``second`` merges into ``first``; the epoch must still drain once
        # ``first`` (carrying ``second``) and then the barrier have left.
        scheduler = EpochIOScheduler()
        first = write_request(0, flags=RequestFlag.ORDERED)
        second = write_request(1, flags=RequestFlag.ORDERED)
        barrier = write_request(10, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        for request in (first, second, barrier):
            scheduler.add_request(request)
        assert len(scheduler) == 2
        assert scheduler.is_blocked

        assert drain(scheduler) == [first, barrier]
        assert first.merged_requests == [second]
        assert not first.is_barrier and barrier.is_barrier
        assert scheduler.epochs_dispatched == 1
        assert not scheduler.is_blocked

    def test_blocked_next_batch_pulls_one_request(self):
        scheduler = EpochIOScheduler()
        ordered = [write_request(lba, flags=RequestFlag.ORDERED) for lba in (0, 10)]
        barrier = write_request(20, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        for request in ordered + [barrier]:
            scheduler.add_request(request)
        assert scheduler.next_batch() == [ordered[0]]
        assert scheduler.next_batch() == [ordered[1]]
        assert scheduler.next_batch() == [barrier]
        assert barrier.is_barrier and not scheduler.is_blocked
        assert scheduler.next_batch() == []
