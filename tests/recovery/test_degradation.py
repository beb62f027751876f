"""Graceful degradation: the mount's ``errors=`` behaviour after journal failure.

A durable journal commit failure (persistent write errors exhaust the block
layer's retry budget on the JD/JC writes) is handled per the ext4-style
mount option: ``remount-ro`` aborts the journal and flips the mount
read-only (writes raise :class:`ReadOnlyFSError`, reads keep working),
``continue`` fails the affected transaction but keeps the mount writable,
``panic`` tears down the run.  No waiter may deadlock on any path.

The journal-failure helpers commit *metadata only* (no dirty data pages):
with dirty data the EXT4 fsync fails at the data-writeback stage before the
journal is ever involved, which is an IO error but not a journal failure.
"""

import pytest

from repro.core import build_stack, standard_config
from repro.faults import FaultInjector
from repro.fs.errors import EIOError, FilesystemPanicError, ReadOnlyFSError
from repro.apps.syncpolicy import Guarantee, SyncPolicy

PERSISTENT_WRITE_ERRORS = "io-error:p=1,op=write"


def make_faulty(name, *, errors="remount-ro", plan=PERSISTENT_WRITE_ERRORS):
    stack = build_stack(
        standard_config(name, mount_overrides={"errors": errors})
    )
    FaultInjector([plan], seed=0).install(stack.device)
    return stack


def failed_commit(stack):
    """Drive a metadata-only journal commit into the failing device.

    Returns the file handle after the fsync raised :class:`EIOError`.
    """
    fs = stack.fs

    def proc():
        handle = fs.create("a.db")
        fs._dirty_metadata(handle.inode)
        try:
            yield from fs.fsync(handle)
        except EIOError:
            return handle
        raise AssertionError("fsync was expected to fail")

    return stack.run_process(proc())


class TestRemountRO:
    @pytest.mark.parametrize("config", ["EXT4-DR", "BFS-DR"])
    def test_journal_failure_flips_read_only(self, config):
        stack = make_faulty(config)
        handle = failed_commit(stack)
        fs = stack.fs
        assert fs.read_only
        assert fs.journal.aborted
        assert fs.stats.remount_ro_events == 1
        with pytest.raises(ReadOnlyFSError):
            fs.write(handle, 1)

    def test_reads_keep_working_after_degradation(self):
        stack = make_faulty("EXT4-DR")
        fs = stack.fs

        def writer():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            try:
                yield from fs.fsync(handle)
            except EIOError:
                pass
            fs._dirty_metadata(handle.inode)
            try:
                yield from fs.fsync(handle)
            except EIOError:
                pass
            return handle

        handle = stack.run_process(writer())
        assert fs.read_only

        def reader():
            pages = yield from fs.read(handle, 1)
            return pages

        assert stack.run_process(reader()) == [0]

    def test_repeated_failures_count_one_degradation(self):
        stack = make_faulty("EXT4-DR")
        handle = failed_commit(stack)
        fs = stack.fs
        # The journal is aborted: later journal-needing syncs fail fast with
        # EIOError (no deadlocked waiter, no second remount-ro event).
        fs._dirty_metadata(handle.inode)

        def proc():
            try:
                yield from fs.fsync(handle)
            except EIOError:
                return "eio"
            return None

        assert stack.run_process(proc()) == "eio"
        assert fs.stats.remount_ro_events == 1


class TestErrorsContinue:
    def test_mount_stays_writable_and_syncs_keep_failing(self):
        stack = make_faulty("EXT4-DR", errors="continue")
        handle = failed_commit(stack)
        fs = stack.fs
        assert not fs.read_only
        assert not fs.journal.aborted
        assert fs.stats.remount_ro_events == 0
        fs.write(handle, 1)  # still writable
        fs._dirty_metadata(handle.inode)

        def proc():
            try:
                yield from fs.fsync(handle)
            except EIOError:
                return "eio"
            return None

        assert stack.run_process(proc()) == "eio"


class TestErrorsPanic:
    def test_journal_failure_tears_down_the_run(self):
        stack = make_faulty("EXT4-DR", errors="panic")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs._dirty_metadata(handle.inode)
            yield from fs.fsync(handle)

        with pytest.raises((FilesystemPanicError, EIOError)):
            stack.run_process(proc())


class TestSyncPolicyErrorHandling:
    def test_abort_policy_reraises_first_error(self):
        stack = make_faulty("EXT4-DR")
        fs = stack.fs
        policy = SyncPolicy(fs, on_error="abort")

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            try:
                yield from policy.synced(handle, Guarantee.DURABILITY)
            except EIOError:
                return "eio"
            return None

        assert stack.run_process(proc()) == "eio"
        assert fs.stats.sync_retries == 0

    def test_retry_on_ext4_is_the_fsyncgate_trap(self):
        # EXT4 claimed the pages clean when the failed writeback was
        # submitted, so the retry finds nothing dirty and "succeeds" while
        # having synced nothing — exactly the fsyncgate behaviour the reopen
        # policy exists to avoid.
        stack = make_faulty("EXT4-DR", errors="continue")
        fs = stack.fs
        policy = SyncPolicy(fs, on_error="retry", max_sync_retries=3)

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            retries = yield from policy.synced(handle, Guarantee.DURABILITY)
            return retries

        assert stack.run_process(proc()) == 1
        assert fs.stats.sync_retries == 1

    def test_retry_on_barrierfs_redispatches_until_exhausted(self):
        # BarrierFS keeps the pages dirty across the failure, so every retry
        # re-dispatches the same data into the failing device and the policy
        # raises once the budget is spent.
        stack = make_faulty("BFS-DR", errors="continue")
        fs = stack.fs
        policy = SyncPolicy(fs, on_error="retry", max_sync_retries=2)

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            try:
                yield from policy.synced(handle, Guarantee.DURABILITY)
            except EIOError:
                return "eio"
            return None

        assert stack.run_process(proc()) == "eio"
        assert fs.stats.sync_retries == 2

    def test_retry_policy_succeeds_after_transient_error(self):
        # A single device-level error is absorbed by the block layer's own
        # retry budget: the syscall succeeds on the first try and the policy
        # never has to step in.
        stack = make_faulty("EXT4-DR", plan="io-error:nth=1,op=write")
        fs = stack.fs
        policy = SyncPolicy(fs, on_error="retry", max_sync_retries=3)

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            retries = yield from policy.synced(handle, Guarantee.DURABILITY)
            return retries

        assert stack.run_process(proc()) == 0
        assert fs.stats.sync_retries == 0

    def test_reopen_policy_restages_data_before_retry(self):
        # On EXT4 a bare retry after a failed sync syncs nothing (the pages
        # were claimed clean); the reopen hook is where the application
        # re-stages its buffered data.
        stack = make_faulty("EXT4-DR", errors="continue")
        fs = stack.fs
        reopened = []

        def reopen(file):
            reopened.append(file)
            fs.write(file, 1, offset_page=0)
            return file

        policy = SyncPolicy(fs, on_error="reopen", max_sync_retries=1, reopen=reopen)

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 1)
            try:
                yield from policy.synced(handle, Guarantee.DURABILITY)
            except EIOError:
                return "eio"
            return None

        assert stack.run_process(proc()) == "eio"
        assert len(reopened) == 1
        assert fs.stats.sync_retries == 1
