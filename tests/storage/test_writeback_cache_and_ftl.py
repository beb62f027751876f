"""Unit tests for the writeback cache and the log-structured FTL."""

import pytest

from reference.stub_device import stub_device
from repro.storage.command import WrittenBlock
from repro.storage.crash import recover_durable_blocks
from repro.storage.ftl import LogStructuredFTL
from repro.storage.writeback_cache import WritebackCache


def _admit(cache, names, epoch=0, time=0.0, command_id=1):
    return cache.admit(
        [WrittenBlock(name, version=1) for name in names],
        epoch=epoch,
        time=time,
        command_id=command_id,
    )


class TestWritebackCache:
    def test_admission_tracks_epoch_and_order(self):
        cache = WritebackCache(16)
        first = _admit(cache, ["a", "b"], epoch=0)
        second = _admit(cache, ["c"], epoch=1, command_id=2)
        entries = cache.dirty_entries
        assert [entry.block for entry in entries] == ["a", "b", "c"]
        assert [entry.epoch for entry in entries] == [0, 0, 1]
        assert entries[0].transfer_seq < entries[2].transfer_seq
        assert cache.total_admitted == 3
        assert first[0].command_id == 1 and second[0].command_id == 2

    def test_durable_immediately_for_plp(self):
        cache = WritebackCache(16)
        cache.record_history()
        cache.admit(
            [WrittenBlock("a", 1)], epoch=0, time=5.0, command_id=1,
            durable_immediately=True,
        )
        assert cache.first_dirty is None
        assert cache.all_entries()[0].durable_time == 5.0

    def test_mark_durable_prunes_dirty_list(self):
        cache = WritebackCache(16)
        entries = _admit(cache, ["a", "b", "c"])
        cache.mark_durable(entries[:2], time=10.0)
        assert [entry.block for entry in cache.dirty_entries] == ["c"]
        assert cache.resident_pages == 1
        # Marking again is a no-op (idempotent).
        cache.mark_durable(entries[:2], time=20.0)
        assert entries[0].durable_time == 10.0

    def test_capacity_accounting(self):
        cache = WritebackCache(2)
        entries = _admit(cache, ["a", "b", "c"])
        assert cache.resident_pages == 3 > cache.capacity_pages
        cache.mark_durable(entries, time=1.0)
        assert cache.resident_pages == 0

    def test_history_keeps_each_entrys_command(self):
        cache = WritebackCache(8)
        cache.record_history()
        _admit(cache, ["a"], command_id=7)
        _admit(cache, ["b"], command_id=9)
        assert [(e.block, e.command_id) for e in cache.history] == [("a", 7), ("b", 9)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            WritebackCache(0)


class TestLogStructuredFTL:
    def _entries(self, cache, count, epoch=0):
        return _admit(cache, [f"block-{index}" for index in range(count)], epoch=epoch)

    def _recovered(self, cache, ftl):
        """What the crash state's LFS recovery scan of ``ftl`` keeps."""
        return recover_durable_blocks(stub_device(cache.history, ftl=ftl)).durable

    def test_append_fills_segments_in_order(self):
        cache = WritebackCache(64)
        ftl = LogStructuredFTL(segment_pages=4)
        entries = self._entries(cache, 10)
        ftl.append_batch(entries)
        assert ftl.used_segments == 3
        assert len(ftl.active_segment.pages) == 2
        assert ftl.mapping[entries[-1].block].segment_id == ftl.active_segment.segment_id

    def test_recover_keeps_programmed_prefix_only(self):
        cache = WritebackCache(64)
        cache.record_history()
        ftl = LogStructuredFTL(segment_pages=8)
        entries = self._entries(cache, 6)
        pages = ftl.append_batch(entries)
        # Only the first four pages finished programming before the crash.
        ftl.mark_programmed(pages[:4], time=2.0)
        recovered = self._recovered(cache, ftl)
        assert [entry.block for entry in recovered] == [e.block for e in entries[:4]]

    def test_recover_stops_at_first_hole_across_segments(self):
        cache = WritebackCache(64)
        cache.record_history()
        ftl = LogStructuredFTL(segment_pages=2)
        entries = self._entries(cache, 6)
        pages = ftl.append_batch(entries)
        # Second segment has a hole: its first page never programmed.
        ftl.mark_programmed([pages[0], pages[1], pages[3], pages[4], pages[5]], time=2.0)
        recovered = self._recovered(cache, ftl)
        assert [entry.block for entry in recovered] == [entries[0].block, entries[1].block]

    def test_gc_reclaims_dead_segments(self):
        cache = WritebackCache(1024)
        cache.record_history()
        ftl = LogStructuredFTL(segment_pages=2, total_segments=8, gc_free_threshold=4)
        # Overwrite the same two blocks repeatedly so old segments become dead.
        for round_index in range(6):
            entries = cache.admit(
                [WrittenBlock("x", round_index), WrittenBlock("y", round_index)],
                epoch=0, time=float(round_index), command_id=round_index + 1,
            )
            pages = ftl.append_batch(entries)
            ftl.mark_programmed(pages, time=float(round_index))
            if ftl.needs_gc():
                ftl.run_gc(time=float(round_index))
        assert ftl.gc_runs >= 1
        assert ftl.free_segments > 0
        recovered_blocks = {entry.block for entry in self._recovered(cache, ftl)}
        assert {"x", "y"} <= recovered_blocks

    def test_invalid_segment_size_rejected(self):
        with pytest.raises(ValueError):
            LogStructuredFTL(segment_pages=0)
