"""Incremental crash judging: cost, rebuilds and the cell pool.

The in-line verifier advances one crash state per run from point to point
(``repro.crashlab.incremental``).  These tests pin what that buys — the
work of a whole check grows linearly with the run, not quadratically —
and the two paths where the durable set is not monotone (FTL garbage
collection, misdirected writes), which rebuild the state and must still
agree with one from-scratch replay per point.
"""

import random
from types import SimpleNamespace

import pytest

from replay_reference import reference_pass

from repro.core.verification import (
    ORACLES,
    CrashProbe,
    Oracle,
    VerificationError,
    journal_transactions,
    verify_dispatch_preserves_epochs,
    verify_epoch_prefix,
    verify_storage_order_prefix,
)
from repro.crashlab import (
    InlineVerifier,
    engine,
    explore,
    explore_cells,
    summary_result,
    violations_result,
)
from repro.crashlab.incremental import (
    CrashTracker,
    DispatchEpochOrderCheck,
    EpochPrefixCheck,
    IncrementalJudge,
    StorageOrderPrefixCheck,
)
from repro.crashlab.oracles import CommittedLogPrefixCheck, verify_append_log_prefix
from repro.scenarios import ScenarioSpec, prepare_spec
from repro.storage.crash import recover_durable_blocks
from repro.storage import device as device_module
from repro.storage.barrier_modes import BarrierMode
from repro.storage.ftl import LogStructuredFTL
from repro.storage.writeback_cache import CacheEntry

MODES = ["none", "plp", "in-order-writeback", "transactional", "in-order-recovery"]


def bfs_sync_loop(calls: int, **fields) -> ScenarioSpec:
    return ScenarioSpec(
        workload="sync-loop",
        config="BFS-DR",
        device="plain-ssd",
        barrier_mode="in-order-recovery",
        params={"calls": calls},
        **fields,
    )


def assert_matches_reference(monkeypatch, spec, **kwargs):
    inline = explore(spec, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_verify", reference_pass)
        replayed = explore(spec, **{**kwargs, "jobs": 1})
    assert inline.boundaries_total == replayed.boundaries_total
    assert inline.points == replayed.points
    return inline


class TestCost:
    def test_work_grows_linearly_with_the_run(self):
        # Entries folded by the crash state and the oracles over a whole
        # exhaustive check: a from-scratch judge folds the whole history at
        # every point, so its work grows ~4x when the run doubles.
        folds = []
        for calls in (60, 120, 240):
            report = explore(bfs_sync_loop(calls), strategy="exhaustive")
            assert report.points_checked == report.boundaries_total > 0
            folds.append(report.folds)
        assert folds[1] <= 2.2 * folds[0]
        assert folds[2] <= 2.2 * folds[1]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_work_does_not_depend_on_jobs(self, jobs):
        # One verifying run per cell whatever the worker count: a second
        # pass over the same cell would fold its whole run again.
        assert explore(bfs_sync_loop(120), strategy="exhaustive", jobs=jobs).folds == 8616

    @pytest.mark.parametrize("mode", MODES)
    def test_fault_free_cells_never_rebuild(self, mode):
        spec = ScenarioSpec(
            workload="sync-loop",
            config="EXT4-DR",
            device="plain-ssd",
            barrier_mode=mode,
            params={"calls": 12},
        )
        report = explore(spec, strategy="exhaustive")
        assert report.folds > 0
        assert report.rebuilds == 0


class TestRebuilds:
    def test_misdirected_writes_on_in_order_recovery(self, monkeypatch):
        # A misdirected write damages a page that was already durable.
        spec = bfs_sync_loop(12, faults=("misdirected-write:p=0.3",))
        report = assert_matches_reference(monkeypatch, spec, strategy="exhaustive")
        assert report.rebuilds > 0

    @pytest.mark.parametrize("config", ["EXT4-DR", "BFS-DR"])
    def test_ftl_garbage_collection(self, monkeypatch, config):
        # Four-page segments and a device of fourteen: GC runs every few
        # program rounds, relocating live pages and dropping stale ones.
        monkeypatch.setattr(
            device_module,
            "LogStructuredFTL",
            lambda segment_pages: LogStructuredFTL(
                4, total_segments=14, gc_free_threshold=8
            ),
        )
        spec = ScenarioSpec(
            workload="sync-loop",
            config=config,
            device="plain-ssd",
            barrier_mode="in-order-recovery",
            params={"calls": 12},
        )
        report = assert_matches_reference(monkeypatch, spec, strategy="exhaustive")
        assert report.rebuilds > 0

    def test_rebuild_inside_a_budgeted_selection(self, monkeypatch):
        spec = ScenarioSpec(
            workload="sync-loop",
            config="EXT4-DR",
            device="plain-ssd",
            barrier_mode="none",
            params={"calls": 12},
            faults=("misdirected-write:p=0.3",),
        )
        report = assert_matches_reference(
            monkeypatch, spec, strategy="stratified", points=20
        )
        assert report.violations


    def test_an_oracle_without_an_incremental_form(self, monkeypatch):
        # Judged on a from-scratch probe at every point instead.
        def odd_durable_count(probe):
            if len(probe.state.durable) % 2:
                raise VerificationError(f"{len(probe.state.durable)} durable pages")

        monkeypatch.setitem(ORACLES, "odd-durable-count", Oracle(
            name="odd-durable-count",
            description="an even number of durable pages",
            check=odd_durable_count,
            applies=lambda probe: True,
            guaranteed=lambda probe: False,
        ))
        report = assert_matches_reference(
            monkeypatch, bfs_sync_loop(6), strategy="exhaustive"
        )
        assert any(
            verdict.oracle == "odd-durable-count" for _, verdict in report.violations
        )


class TestAgainstTheReference:
    @pytest.mark.parametrize(
        "workload, mode, params, faults",
        [
            # Round-robin overwrites: lost pages superseded by durable ones.
            ("sync-loop", "none", {"calls": 12, "allocating": False}, ()),
            # Ordered-mode and commit-order violations behind lying flushes.
            ("sync-loop", "none", {"calls": 8}, ("flush-lie",)),
            # Holes in an append-only log.
            ("sqlite", "none", {"inserts": 10, "journal_mode": "wal"}, ()),
        ],
    )
    def test_violations_of_every_oracle(self, monkeypatch, workload, mode, params, faults):
        spec = ScenarioSpec(
            workload=workload,
            config="EXT4-DR",
            device="plain-ssd",
            barrier_mode=mode,
            params=params,
            faults=faults,
        )
        report = assert_matches_reference(monkeypatch, spec, strategy="exhaustive")
        assert report.violations

    @pytest.mark.parametrize(
        "mode, faults",
        [
            ("none", ("torn-write:p=0.3", "misdirected-write:p=0.2")),
            ("transactional", ("dropped-write:p=0.3",)),
            ("plp", ()),
            ("in-order-recovery", ("torn-write:p=0.3",)),
            ("in-order-recovery", ("misdirected-write:p=0.3", "latent-read-error:p=0.2")),
        ],
    )
    def test_tracker_state_equals_recovery_at_every_boundary(self, mode, faults):
        # The crash state itself, not only the verdicts built from it.
        spec = ScenarioSpec(
            workload="sync-loop",
            config="EXT4-DR",
            device="plain-ssd",
            barrier_mode=mode,
            params={"calls": 10},
            faults=faults,
        )
        workload = prepare_spec(spec)
        stack = workload.stack
        stack.record_history()
        device = stack.device
        tracker = CrashTracker(device)

        def compare(boundary):
            tracker.advance()
            state = recover_durable_blocks(device)
            durable = sorted(tracker.durable, key=lambda entry: entry.transfer_seq)
            assert durable == state.durable, boundary
            assert list(tracker.lost.values()) == state.lost, boundary
            latest = {block: entry.version for block, entry in tracker.latest.items()}
            assert latest == state.durable_blocks, boundary

        device.crash_tap = InlineVerifier(device, None, compare)
        workload.run()
        assert device.crash_tap.count > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_device_checks_on_random_histories(self, seed):
        # Random transfers over a few blocks (overwrites, older versions
        # arriving late, epochs), random drain order and torn pages: every
        # incremental device-level check must give the from-scratch witness.
        rng = random.Random(seed)
        history = []
        device = SimpleNamespace(
            barrier_mode=BarrierMode.NONE,
            ftl=None,
            fault_injector=None,
            cache=SimpleNamespace(history=history),
            sim=SimpleNamespace(now=0.0),
            written_history=lambda: list(history),
        )
        log_file = "sqlite/main.db-wal"
        inode = SimpleNamespace(inode=SimpleNamespace(inode_no=1))
        stack = SimpleNamespace(
            fs=SimpleNamespace(exists=lambda name: True, open=lambda name: inode)
        )
        spec = SimpleNamespace(workload="sqlite", params={})
        tracker = CrashTracker(device)
        live = CrashProbe(state=tracker, stack=stack, spec=spec)
        checks = [
            EpochPrefixCheck(tracker, live).check,
            StorageOrderPrefixCheck(tracker, live).check,
            CommittedLogPrefixCheck(tracker, live).check,
        ]

        def witness(check):
            try:
                check()
            except VerificationError as error:
                return str(error)
            return None

        versions: dict = {}
        epoch = 0
        for _ in range(40):
            for _ in range(rng.randint(0, 3)):
                block = rng.choice([("data", 1, rng.randrange(6)), ("jd", rng.randrange(3))])
                versions[block] = versions.get(block, 0) + 1
                version = versions[block] - (rng.random() < 0.1)
                history.append(CacheEntry(block, version, epoch, len(history) + 1, 0.0, 0))
                epoch += rng.random() < 0.3
            for entry in history:
                if entry.durable_time is None and rng.random() < 0.25:
                    entry.damage = "torn" if rng.random() < 0.1 else None
                    entry.durable_time = 1.0
            tracker.advance()
            state = recover_durable_blocks(device)
            probe = CrashProbe(state=state, stack=stack, spec=spec)
            expected = [
                witness(lambda: verify_epoch_prefix(state)),
                witness(lambda: verify_storage_order_prefix(state)),
                witness(lambda: verify_append_log_prefix(probe, log_file)),
            ]
            assert [witness(check) for check in checks] == expected

    @pytest.mark.parametrize("config", ["EXT4-DR", "BFS-DR", "OptFS"])
    def test_live_transactions_match_the_journal(self, config):
        # Sized without a copy: at every boundary a transaction is in
        # exactly one of the journal's lists.
        workload = prepare_spec(bfs_sync_loop(8).with_(config=config))
        stack = workload.stack
        stack.record_history()
        live = IncrementalJudge(stack).probe.transactions

        def compare(boundary):
            transactions = journal_transactions(stack.fs)
            assert len(live) == len(transactions), boundary
            assert list(live) == transactions

        stack.device.crash_tap = InlineVerifier(stack.device, None, compare)
        workload.run()

    def test_dispatch_order_check_follows_the_log(self):
        def request(epoch):
            return SimpleNamespace(issue_epoch=epoch, describe=lambda: f"W@{epoch}")

        log = []
        probe = SimpleNamespace(dispatch_log=log)
        check = DispatchEpochOrderCheck(SimpleNamespace(folds=0, generation=1), probe)
        for epoch in (0, None, 1, 1, 2, 1, 3, 0):
            log.append(request(epoch))
            expected = None
            try:
                verify_dispatch_preserves_epochs(log)
            except VerificationError as error:
                expected = str(error)
            try:
                check.check()
                witness = None
            except VerificationError as error:
                witness = str(error)
            assert witness == expected


class TestCellPool:
    def test_job_counts_give_identical_reports_without_recording(self, monkeypatch):
        recorded = []

        def record_boundaries(spec):
            # Raising also reaches a pool worker's caller, where a list
            # appended to in the worker would stay empty in this process.
            recorded.append(spec)
            raise AssertionError("an unbudgeted exhaustive check records nothing")

        monkeypatch.setattr(engine, "record_boundaries", record_boundaries)
        specs = [
            ScenarioSpec(
                workload="sync-loop",
                config="EXT4-DR",
                device="plain-ssd",
                barrier_mode=mode,
                params={"calls": 10},
            )
            for mode in ("none", "in-order-writeback")
        ]
        runs = [
            explore_cells(specs, strategy="exhaustive", jobs=jobs) for jobs in (1, 2, 3)
        ]
        assert recorded == []
        for serial, *pooled in zip(*runs):
            assert serial.points_checked == serial.boundaries_total > 0
            for report in pooled:
                assert report.boundaries_total == serial.boundaries_total
                assert report.points == serial.points
        serial = runs[0]
        assert serial[0].violations
        for reports in runs[1:]:
            assert summary_result(reports).to_dict() == summary_result(serial).to_dict()
            assert (
                violations_result(reports).to_dict()
                == violations_result(serial).to_dict()
            )


class TestTracker:
    def test_a_durable_version_going_down_restarts_the_checks(self):
        # A newer transfer of an older version becomes durable after the
        # newer version did: the block's durable version goes down, so
        # results folded while it was higher no longer hold.
        block = ("data", 1, 0)
        newer = CacheEntry(block, version=2, epoch=0, transfer_seq=1,
                           transfer_time=0.0, command_id=1)
        older = CacheEntry(block, version=1, epoch=0, transfer_seq=2,
                           transfer_time=0.0, command_id=2)
        device = SimpleNamespace(
            barrier_mode=BarrierMode.NONE,
            ftl=None,
            fault_injector=None,
            cache=SimpleNamespace(history=[newer, older]),
            sim=SimpleNamespace(now=0.0),
        )
        tracker = CrashTracker(device)
        check = EpochPrefixCheck(tracker, probe=None)
        newer.durable_time = 1.0
        tracker.advance()
        assert check.new_durable() == [newer]
        assert tracker.latest[block] is newer
        assert tracker.rebuilds == 0

        older.durable_time = 2.0
        tracker.advance()
        assert tracker.latest[block] is older
        assert tracker.rebuilds == 1
        assert not tracker.lost
        assert check.new_durable() == [newer, older]  # folded again from scratch
