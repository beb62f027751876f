"""Tests for the VFS layer and the three filesystems (EXT4, BarrierFS, OptFS)."""

import pytest

from repro.core import build_stack, standard_config
from repro.core.verification import (
    ORACLES,
    CrashProbe,
    journal_transactions,
    recovered_transactions,
)
from repro.block import BlockDevice
from repro.fs import BarrierFS
from repro.fs.mount import MountOptions
from repro.simulation import Simulator
from repro.storage import StorageDevice, get_profile
from repro.storage.crash import recover_durable_blocks


def make(name, device="plain-ssd", **overrides):
    return build_stack(standard_config(name, device, **overrides))


def run(stack, generator):
    return stack.run_process(generator)


class TestVFS:
    def test_create_write_marks_pages_dirty(self):
        stack = make("EXT4-DR")
        fs = stack.fs
        handle = fs.create("a.txt")
        pages = fs.write(handle, 3)
        assert pages == [0, 1, 2]
        assert handle.inode.dirty_pages
        assert handle.inode.has_dirty_metadata  # allocating write
        assert fs.stats.writes == 1

    def test_append_offset_advances(self):
        stack = make("EXT4-DR")
        fs = stack.fs
        handle = fs.create("a.txt")
        fs.write(handle, 2)
        fs.write(handle, 2)
        assert handle.append_page == 4
        assert handle.inode.size_pages == 4

    def test_overwrite_of_preallocated_file_keeps_metadata_clean(self):
        stack = make("EXT4-DR")
        fs = stack.fs
        handle = fs.create("a.txt", preallocate_pages=10)
        fs.write(handle, 1, offset_page=0)
        # First write in a fresh timestamp tick dirties the inode times only
        # once; a second write in the same tick does not.
        first_dirty = handle.inode.metadata_dirty
        fs.clear_metadata_dirty(handle.inode)
        fs.write(handle, 1, offset_page=1)
        assert first_dirty
        assert not handle.inode.metadata_dirty

    def test_open_unlink_exists(self):
        stack = make("EXT4-DR")
        fs = stack.fs
        fs.create("dir/file")
        assert fs.exists("dir/file")
        handle = fs.open("dir/file")
        assert handle.inode_no >= 1
        fs.unlink("dir/file")
        assert not fs.exists("dir/file")

    def test_contiguous_runs_merge_into_one_request(self):
        stack = make("EXT4-DR")
        fs = stack.fs
        handle = fs.create("a.txt")
        fs.write(handle, 5)
        writeback = fs.writeback_data(handle)
        assert len(writeback.requests) == 1
        assert writeback.requests[0].num_pages == 5
        assert not handle.inode.dirty_pages


class TestExt4:
    def test_fsync_commits_journal_and_is_durable(self):
        stack = make("EXT4-DR")
        stack.record_history()
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.fsync(handle)
            return handle

        run(stack, proc())
        assert fs.stats.journal_commits == 1
        durable = {entry.block for entry in stack.device.cache.history if entry.is_durable}
        assert ("data", 1, 0) in durable
        assert any(block[0] == "jc" for block in durable if isinstance(block, tuple))

    def test_fsync_waits_for_data_transfer_and_commit(self):
        stack = make("EXT4-DR")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            me = stack.sim.active_process
            before = me.context_switches
            yield from fs.fsync(handle)
            return me.context_switches - before

        assert run(stack, proc()) == 2

    def test_fdatasync_on_preallocated_file_skips_journal(self):
        stack = make("EXT4-DR")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db", preallocate_pages=16)
            fs.write(handle, 1, offset_page=3)
            yield from fs.fdatasync(handle)
            return None

        run(stack, proc())
        assert fs.stats.journal_commits == 0
        assert stack.device.stats.flushes_serviced >= 1

    def test_nobarrier_mount_skips_flush(self):
        stack = make("EXT4-OD")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.fsync(handle)
            return None

        run(stack, proc())
        assert stack.device.stats.flushes_serviced == 0
        assert stack.device.stats.fua_writes == 0

    def test_durability_mode_uses_flush_fua(self):
        stack = make("EXT4-DR")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.fsync(handle)
            return None

        run(stack, proc())
        assert stack.device.stats.fua_writes == 1

    def test_sequential_fsyncs_commit_in_order(self):
        stack = make("EXT4-DR")
        stack.record_history()
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            for _ in range(3):
                fs.write(handle, 1)
                yield from fs.fsync(handle)
            return None

        run(stack, proc())
        txids = [txn.txid for txn in fs.journal.history]
        assert txids == sorted(txids)
        assert fs.stats.journal_commits == 3


class TestBarrierFS:
    def test_fsync_single_wakeup(self):
        stack = make("BFS-DR")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            me = stack.sim.active_process
            before = me.context_switches
            yield from fs.fsync(handle)
            return me.context_switches - before

        assert run(stack, proc()) == 1

    def test_fsync_is_durable(self):
        stack = make("BFS-DR")
        stack.record_history()
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.fsync(handle)
            return None

        run(stack, proc())
        durable = {entry.block for entry in stack.device.cache.history if entry.is_durable}
        assert ("data", 1, 0) in durable
        assert stack.device.stats.flushes_serviced >= 1

    def test_fdatabarrier_does_not_block(self):
        stack = make("BFS-OD")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db", preallocate_pages=8)
            fs.write(handle, 1, offset_page=0)
            me = stack.sim.active_process
            before = me.context_switches
            start = stack.sim.now
            yield from fs.fdatabarrier(handle)
            return me.context_switches - before, stack.sim.now - start

        switches, elapsed = run(stack, proc())
        assert switches == 0
        assert elapsed == 0.0

    def test_fbarrier_returns_at_dispatch_not_durability(self):
        stack = make("BFS-OD")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.fbarrier(handle)
            committing = fs.journal.committing_count
            return committing

        committing = run(stack, proc())
        # The transaction is still in flight when fbarrier returns.
        assert committing >= 1

    def test_barrier_requests_are_tagged(self):
        stack = make("BFS-DR")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.fsync(handle)
            return None

        run(stack, proc())
        assert stack.block.stats.barrier_requests >= 1
        assert stack.device.stats.barrier_writes >= 1

    def test_dual_mode_pipelines_multiple_commits(self):
        # Several threads fsync concurrently: while the flush thread is busy
        # making transaction N durable, the commit thread must be able to
        # dispatch transaction N+1 (more than one committing transaction).
        stack = make("BFS-DR")
        fs = stack.fs
        sim = stack.sim

        def worker(index):
            # Stagger the threads so their commits cannot all coalesce into a
            # single group commit.
            yield sim.timeout(index * 400)
            handle = fs.create(f"file{index}")
            for _ in range(3):
                fs.write(handle, 1)
                yield from fs.fsync(handle, issuer=f"t{index}")
            return None

        def controller():
            workers = [sim.process(worker(i)) for i in range(4)]
            yield sim.all_of(workers)
            return None

        run(stack, controller())
        assert fs.journal.max_committing_in_flight >= 2

    def test_page_conflict_goes_to_conflict_list_not_blocking(self):
        stack = make("BFS-OD")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            for _ in range(4):
                fs.write(handle, 1)
                yield from fs.fbarrier(handle)
            return fs.journal.page_conflicts

        conflicts = run(stack, proc())
        assert conflicts >= 1

    def test_requires_order_preserving_block_layer(self):
        sim = Simulator()
        device = StorageDevice(sim, get_profile("plain-ssd"))
        legacy = BlockDevice(sim, device, order_preserving=False)
        with pytest.raises(ValueError, match="order-preserving"):
            BarrierFS(sim, legacy)

    def test_journal_recovery_invariants_after_crash(self):
        stack = make("BFS-OD")
        stack.record_history()
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            for _ in range(8):
                fs.write(handle, 1)
                yield from fs.fbarrier(handle)
            # Past the device's dirty-age drain: some transactions recover.
            yield stack.sim.timeout(6_000)
            return None

        run(stack, proc())
        stack.device.power_off()
        probe = CrashProbe.from_stack(recover_durable_blocks(stack.device), stack)
        ORACLES["journal-recovery"].verify(probe)
        assert recovered_transactions(probe.state, probe.transactions)


class TestJournalInFlight:
    @pytest.mark.parametrize("config,call", [("EXT4-DR", "fsync"), ("BFS-OD", "fbarrier")])
    def test_history_and_in_flight_cover_every_transaction_once(self, config, call):
        # Stopped mid-run, every txid up to the running one is either in the
        # finished history or in flight, and in flight ends with the running one.
        stack = make(config)
        stack.record_history()
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            for _ in range(20):
                fs.write(handle, 1)
                yield from getattr(fs, call)(handle)

        stack.sim.process(proc())
        stack.sim.run(until=600.0)
        journal = fs.journal
        in_flight = journal.in_flight()
        assert in_flight[-1] is journal.running
        assert len(in_flight) >= 2  # stopped while a commit was in flight
        txids = [txn.txid for txn in [*journal.history, *in_flight]]
        assert sorted(txids) == list(range(1, journal.running.txid + 1))
        assert [txn.txid for txn in journal_transactions(fs)] == sorted(txids)


class TestOptFS:
    def test_osync_returns_without_flush(self):
        stack = make("OptFS")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.osync(handle)
            return None

        run(stack, proc())
        assert fs.stats.osync == 1
        assert stack.device.stats.flushes_serviced == 0

    def test_dsync_flushes(self):
        stack = make("OptFS")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.dsync(handle)
            return None

        run(stack, proc())
        assert stack.device.stats.flushes_serviced >= 1

    def test_selective_data_journaling_on_overwrites(self):
        stack = make("OptFS")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db", preallocate_pages=16)
            fs.write(handle, 4, offset_page=0)    # overwrite -> journaled
            yield from fs.osync(handle)
            fs.write(handle, 2, offset_page=16)   # append past EOF -> in place
            yield from fs.osync(handle)
            return None

        run(stack, proc())
        assert fs.data_pages_journaled == 4

    def test_background_checkpointer_flushes_eventually(self):
        stack = make("OptFS")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            yield from fs.osync(handle)
            yield stack.sim.timeout(200_000)
            return None

        run(stack, proc())
        assert stack.device.stats.flushes_serviced >= 1


class TestMountOptions:
    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="errors="):
            MountOptions(errors="ignore")
