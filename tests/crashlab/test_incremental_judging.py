"""Incremental crash judging: cost, rebuilds and the cell pool.

The in-line verifier advances one crash state per run from point to point
(``repro.crashlab.incremental``).  These tests pin what that buys — the
work of a whole check grows linearly with the run, not quadratically —
and the two paths where the durable set is not monotone (FTL garbage
collection, misdirected writes), which rebuild the state and must still
agree with one from-scratch replay per point.
"""

import gc
import random
import sys
from functools import partial
from types import SimpleNamespace

import pytest

from reference.stub_device import stub_device
from replay_reference import reference_pass

from repro.core.verification import (
    ORACLES,
    CrashProbe,
    DispatchEpochOrderCheck,
    EpochPrefixCheck,
    IncrementalCheck,
    Oracle,
    VerificationError,
    journal_transactions,
)
from repro.crashlab import (
    InlineVerifier,
    engine,
    explore,
    explore_cells,
    summary_result,
    violations_result,
)
from repro.crashlab.incremental import IncrementalJudge
from repro.recovery import recovery_judge
from repro.scenarios import ScenarioSpec, prepare_spec
from repro.storage.crash import CrashState, recover_durable_blocks
from repro.storage import device as device_module
from repro.storage.barrier_modes import BarrierMode
from repro.storage.ftl import LogStructuredFTL
from repro.storage.writeback_cache import CacheEntry

MODES = ["none", "plp", "in-order-writeback", "transactional", "in-order-recovery"]


#: Entries folded by an exhaustive check of ``bfs_sync_loop(120)``.
FOLDS = 4442
#: Ceiling on Python calls per judged point of the same check.
CALLS_PER_POINT = 125


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

    def test_continue_judging_grows_linearly(self):
        # ``--continue`` extends the cell's in-line verdicts; a fresh probe
        # and judge per point folded 23,091 entries at calls=20 and 90,191
        # at calls=40 (3.9x for twice the run).
        judge = partial(recovery_judge, calls=4)
        folds = [
            explore(bfs_sync_loop(calls), strategy="exhaustive", judge=judge).folds
            for calls in (20, 40)
        ]
        assert 0 < folds[1] <= 2.2 * folds[0], folds

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_work_does_not_depend_on_jobs(self, jobs):
        # One verifying run per cell whatever the worker count: a second
        # pass over the same cell would fold its whole run again.
        assert explore(bfs_sync_loop(120), strategy="exhaustive", jobs=jobs).folds == FOLDS

    def test_python_calls_per_point(self):
        # A point costs what changed: the whole check, the simulated run
        # included, stays under a ceiling of Python calls per judged point
        # (counted as test_hot_path counts them).  Judging every oracle at
        # every point cost 174.7; the run alone with history recorded, 110.1.
        spec = bfs_sync_loop(120)
        explore(spec, strategy="exhaustive")
        calls = 0

        def profiler(_frame, event, _arg):
            nonlocal calls
            if event == "call":
                calls += 1

        gc.collect()
        gc.disable()
        sys.setprofile(profiler)
        try:
            report = explore(spec, strategy="exhaustive")
        finally:
            sys.setprofile(None)
            gc.enable()
        assert report.points_checked == 600
        assert calls / report.points_checked <= CALLS_PER_POINT, calls

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

    def test_misdirected_writes_restart_the_log_check(self, monkeypatch):
        # A rebuild in the middle of a legacy run with log holes: the
        # committed-log check restarts and must judge the rebuilt state
        # exactly as a fresh one, witnesses included.
        spec = ScenarioSpec(
            workload="sync-loop",
            config="EXT4-DR",
            device="plain-ssd",
            barrier_mode="none",
            params={"calls": 16},
            faults=("misdirected-write:p=0.3",),
        )
        report = assert_matches_reference(monkeypatch, spec, strategy="exhaustive")
        assert report.rebuilds > 0
        assert any(
            verdict.oracle == "committed-log-prefix" for _, verdict in report.violations
        )

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


    def test_a_newly_registered_oracle_is_judged_in_line(self, monkeypatch):
        # Any check class in the registry joins the in-line verdict loop.
        class OddDurableCount(IncrementalCheck):
            def check(self):
                if len(self.state.durable) % 2:
                    raise VerificationError(f"{len(self.state.durable)} durable pages")

        monkeypatch.setitem(ORACLES, "odd-durable-count", Oracle(
            name="odd-durable-count",
            description="an even number of durable pages",
            check=OddDurableCount,
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
    def test_advanced_state_equals_a_fresh_fold_at_every_boundary(self, mode, faults):
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
        advanced = CrashState(device)

        def by_seq(entries):
            return sorted(entries, key=lambda entry: entry.transfer_seq)

        def compare(boundary):
            advanced.advance()
            fresh = recover_durable_blocks(device)
            assert by_seq(advanced.durable) == by_seq(fresh.durable), boundary
            assert list(advanced.lost.values()) == list(fresh.lost.values()), boundary
            assert advanced.latest == fresh.latest, boundary

        device.crash_tap = InlineVerifier(device, None, compare)
        workload.run()
        assert device.crash_tap.count > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_device_checks_on_random_histories(self, seed):
        # Random transfers over a few blocks (overwrites, older versions
        # arriving late, epochs), random drain order and torn pages: every
        # device-level check kept from point to point on an advanced state
        # must give the witness of a fresh check on a fresh fold.
        rng = random.Random(seed)
        history = []
        device = stub_device(history, BarrierMode.NONE)
        inode = SimpleNamespace(inode=SimpleNamespace(inode_no=1))
        stack = SimpleNamespace(
            fs=SimpleNamespace(exists=lambda name: True, open=lambda name: inode)
        )
        spec = SimpleNamespace(workload="sqlite", params={})
        names = ["epoch-prefix", "storage-order-prefix", "committed-log-prefix"]
        live = CrashProbe(state=CrashState(device), stack=stack, spec=spec)
        checks = [ORACLES[name].check(live).check for name in names]

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
            live.state.advance()
            fresh = CrashProbe(
                state=recover_durable_blocks(device), stack=stack, spec=spec
            )
            expected = [witness(ORACLES[name].check(fresh).check) for name in names]
            assert [witness(check) for check in checks] == expected

    @pytest.mark.parametrize("config", ["EXT4-DR", "BFS-DR", "OptFS"])
    def test_live_transactions_match_the_journal(self, config):
        # Sized without a copy: at every boundary a transaction is in
        # exactly one of the journal's lists.
        workload = prepare_spec(bfs_sync_loop(8).with_(config=config))
        stack = workload.stack
        stack.record_history()
        live = IncrementalJudge.on_stack(stack).probe.transactions

        def compare(boundary):
            transactions = journal_transactions(stack.fs)
            assert len(live) == len(transactions), boundary
            assert list(live) == transactions

        stack.device.crash_tap = InlineVerifier(stack.device, None, compare)
        workload.run()

    def test_dispatch_order_check_follows_the_log(self):
        # Kept while the log grows, the check names the first epoch that
        # goes down, at the append that makes it go down and ever after.
        def request(epoch):
            return SimpleNamespace(issue_epoch=epoch, describe=lambda: f"W@{epoch}")

        def witness(check):
            try:
                check.check()
            except VerificationError as error:
                return str(error)
            return None

        log = []
        state = CrashState(stub_device([]))
        check = DispatchEpochOrderCheck(CrashProbe(state, dispatch_log=log))
        first = "dispatch order violates epochs: W@1 of epoch 1 dispatched after epoch 2"
        for position, epoch in enumerate((0, None, 1, 1, 2, 1, 3, 0)):
            log.append(request(epoch))
            fresh = DispatchEpochOrderCheck(CrashProbe(state, dispatch_log=list(log)))
            expected = first if position >= 5 else None
            assert witness(check) == witness(fresh) == expected


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


class TestCrashState:
    def test_a_durable_version_going_down_restarts_the_checks(self):
        # A newer transfer of an older version becomes durable after the
        # newer version did: the block's durable version goes down, so
        # results folded while it was higher no longer hold.
        block = ("data", 1, 0)
        newer = CacheEntry(block, version=2, epoch=0, transfer_seq=1,
                           transfer_time=0.0, command_id=1)
        older = CacheEntry(block, version=1, epoch=0, transfer_seq=2,
                           transfer_time=0.0, command_id=2)
        state = CrashState(stub_device([newer, older], BarrierMode.NONE))
        check = EpochPrefixCheck(CrashProbe(state))
        newer.durable_time = 1.0
        state.advance()
        assert check.new_durable() == [newer]
        assert state.latest[block] is newer
        assert state.rebuilds == 0

        older.durable_time = 2.0
        state.advance()
        assert state.latest[block] is older
        assert state.rebuilds == 1
        assert not state.lost
        assert check.new_durable() == [newer, older]  # folded again from scratch


class TestChangeDrivenJudge:
    """The judge re-runs a check exactly when an input it declared changed."""

    @staticmethod
    def judge(history, **probe):
        state = CrashState(stub_device(history, BarrierMode.NONE))
        judge = IncrementalJudge(CrashProbe(state=state, **probe))

        def verdicts():
            state.advance()
            return {verdict.oracle: verdict.witness for verdict in judge.verdicts()}

        return verdicts

    @staticmethod
    def entry(block, epoch, seq, durable):
        entry = CacheEntry(block, 1, epoch, seq, 0.0, seq)
        entry.durable_time = 1.0 if durable else None
        return entry

    def test_an_older_epoch_transferred_late_is_seen(self):
        # A hand-built history whose epochs go down: the new transfer is a
        # lost page of an older epoch than a durable one.
        history = [self.entry(("data", 1, 0), 2, 1, True)]
        verdicts = self.judge(history)
        assert verdicts()["epoch-prefix"] is None
        history.append(self.entry(("data", 1, 1), 1, 2, False))
        assert "epoch-prefix violated" in verdicts()["epoch-prefix"]

    def test_a_log_page_transferred_below_the_high_page_is_seen(self):
        # Only a transfer happens: page 1 of the log arrives after page 2
        # is durable, a hole the moment it is transferred.
        inode = SimpleNamespace(inode=SimpleNamespace(inode_no=1))
        stack = SimpleNamespace(
            fs=SimpleNamespace(exists=lambda name: True, open=lambda name: inode)
        )
        spec = SimpleNamespace(workload="sqlite", params={})
        history = [
            self.entry(("data", 1, 0), 0, 1, True),
            self.entry(("data", 1, 2), 0, 2, True),
        ]
        verdicts = self.judge(history, stack=stack, spec=spec)
        assert verdicts()["committed-log-prefix"] is None
        history.append(self.entry(("data", 1, 1), 0, 3, False))
        assert "lost page 1" in verdicts()["committed-log-prefix"]

    def test_a_dispatch_log_append_is_seen(self):
        def request(epoch):
            return SimpleNamespace(issue_epoch=epoch, describe=lambda: f"W@{epoch}")

        log = [request(1)]
        verdicts = self.judge([], dispatch_log=log)
        assert verdicts()["dispatch-epoch-order"] is None
        log.append(request(0))
        assert "dispatch order violates epochs" in verdicts()["dispatch-epoch-order"]
