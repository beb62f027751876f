"""EIOError propagation: retry-exhausted IO surfaces at the issuing syscall.

A persistent ``io-error`` fault (p=1) makes every write command fail; the
block layer retries each request up to its budget and then completes it with
``request.error`` set.  The failure must climb out of the device, through
the journal, and raise :class:`EIOError` from the sync-family call that
depended on it — on every filesystem and under every barrier mode.  See
docs/RECOVERY.md.
"""

import errno

import pytest

from repro.block.request import BlockRequest
from repro.core import build_stack, standard_config
from repro.faults import FaultInjector
from repro.fs.errors import EIOError
from repro.scenarios import STACK_CONFIGS
from repro.scenarios.engine import run_spec
from repro.scenarios.spec import ScenarioSpec
from repro.storage.barrier_modes import BarrierMode

PERSISTENT_WRITE_ERRORS = "io-error:p=1,op=write"


def make_faulty(name, *, plan=PERSISTENT_WRITE_ERRORS, **overrides):
    stack = build_stack(standard_config(name, **overrides))
    FaultInjector([plan], seed=0).install(stack.device)
    return stack


def sync_outcome(stack, call_name):
    """Run create/write/<sync> in a process; return the caught error or None."""
    fs = stack.fs

    def proc():
        handle = fs.create("a.db")
        fs.write(handle, 2)
        try:
            yield from getattr(fs, call_name)(handle)
        except EIOError as error:
            return error
        return None

    return stack.run_process(proc())


class TestSyncFamilyRaises:
    @pytest.mark.parametrize(
        "config, call",
        [
            ("EXT4-DR", "fsync"),
            ("EXT4-DR", "fdatasync"),
            ("EXT4-OD", "fsync"),
            ("BFS-DR", "fsync"),
            ("BFS-DR", "fdatasync"),
            ("OptFS", "fsync"),
            ("OptFS", "dsync"),
            ("OptFS", "osync"),
        ],
    )
    def test_retry_exhaustion_raises_eio_at_the_syscall(self, config, call):
        stack = make_faulty(config)
        error = sync_outcome(stack, call)
        assert isinstance(error, EIOError)
        assert error.errno == errno.EIO
        assert stack.fs.stats.eio_errors == 1

    @pytest.mark.parametrize(
        "config, mode",
        [
            ("EXT4-DR", BarrierMode.NONE),
            ("BFS-DR", BarrierMode.PLP),
            ("BFS-DR", BarrierMode.IN_ORDER_WRITEBACK),
            ("BFS-DR", BarrierMode.TRANSACTIONAL),
            ("BFS-DR", BarrierMode.IN_ORDER_RECOVERY),
        ],
    )
    def test_raises_under_every_barrier_mode(self, config, mode):
        # BFS cannot build with mode none (the order-preserving block layer
        # needs a barrier-capable device), so the none cell rides on EXT4.
        stack = make_faulty(config, barrier_mode=mode)
        error = sync_outcome(stack, "fsync")
        assert isinstance(error, EIOError)
        assert stack.fs.stats.eio_errors == 1

    def test_transient_error_is_absorbed_by_device_retries(self):
        # One failing attempt is inside the retry budget: the request
        # eventually completes cleanly and the syscall succeeds.
        stack = make_faulty("EXT4-DR", plan="io-error:nth=1,op=write")
        assert sync_outcome(stack, "fsync") is None
        assert stack.fs.stats.eio_errors == 0


class TestPostFailureSemantics:
    def test_ext4_failed_fsync_leaves_pages_clean(self):
        # The fsyncgate trap: EXT4 claimed the pages clean at writeback
        # submission, so after the failure there is nothing left to retry.
        stack = make_faulty("EXT4-DR")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 2)
            try:
                yield from fs.fsync(handle)
            except EIOError:
                pass
            return handle

        handle = stack.run_process(proc())
        assert not handle.inode.dirty_pages

    def test_barrierfs_failed_sync_keeps_pages_dirty(self):
        # BarrierFS restores the dirty snapshot on failure so a retrying
        # caller re-dispatches the same data instead of syncing nothing.
        stack = make_faulty("BFS-DR")
        fs = stack.fs

        def proc():
            handle = fs.create("a.db")
            fs.write(handle, 2)
            try:
                yield from fs.fsync(handle)
            except EIOError:
                pass
            return handle

        handle = stack.run_process(proc())
        assert set(handle.inode.dirty_pages) == {0, 1}
        assert handle.inode.metadata_dirty


class TestFaultFreeRunsFailNothing:
    """The premise of always-on checks: without faults no request fails.

    A fault-free cell must end with every block-layer failure counter at
    zero and no request ever completed with an error status, so the
    filesystem's request-error checks find nothing and raise nowhere.
    ``io_failures`` counts every failed request (retry-exhausted and
    busy-requeue-exhausted) and ``power_failures`` the power cuts; the
    patched ``BlockRequest.fail`` also catches a failure path that a
    later change leaves uncounted.
    """

    @pytest.mark.parametrize("device", ["ufs", "plain-ssd"])
    @pytest.mark.parametrize("workload", ["sync-loop", "sqlite", "varmail"])
    def test_no_request_fails_in_a_fault_free_cell(self, workload, device, monkeypatch):
        failed = []
        real_fail = BlockRequest.fail

        def counting_fail(request, error):
            failed.append(error)
            real_fail(request, error)

        monkeypatch.setattr(BlockRequest, "fail", counting_fail)
        for config in STACK_CONFIGS.names():
            spec = ScenarioSpec(workload=workload, config=config, device=device, scale=0.3)
            stats = run_spec(spec).result.device_stats
            assert (
                stats["block"]["io_errors"],
                stats["block"]["io_failures"],
                stats["block"]["power_failures"],
                stats["fs"]["eio_errors"],
            ) == (0, 0, 0, 0), config
        assert failed == []
