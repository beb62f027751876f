"""Shared warmups: forked measured phases vs. from-scratch equivalence.

:func:`repro.scenarios.engine.run_specs` runs specs that share a warm
prefix by warming once and forking each measured phase off the warmed
process.  That rests on one invariant: a measured phase forked off a warmed
process image replays *exactly* the event sequence a never-forked run
replays.  These tests pin that invariant sample-for-sample (full latency
streams, which depend on every RNG draw made after the fork point — so
equality doubles as an RNG-stream continuity check), plus the grouping
logic that decides which specs may share a prefix and how they are cut
into units of work.
"""

import os
import signal
import time

import pytest

from repro.scenarios import engine
from repro.scenarios.engine import (
    SnapshotForkError,
    fork_supported,
    group_specs,
    plan_units,
    run_spec,
    run_specs,
    warm_group_key,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import SyncLoopWorkload

pytestmark = pytest.mark.skipif(
    not fork_supported(), reason="shared warmups need os.fork"
)


def _fingerprint(outcome):
    """Everything a WorkloadResult observes, in comparable form."""
    result = outcome.result
    return (
        result.workload,
        result.operations,
        result.elapsed_usec,
        list(result.latencies.samples) if result.latencies is not None else None,
        sorted((key, repr(value)) for key, value in result.extra.items()),
    )


def _sync_loop_specs(config="EXT4-DR", warmup=60, counts=(10, 25)):
    return [
        ScenarioSpec(
            workload="sync-loop",
            config=config,
            device="ufs",
            params={"warmup_calls": warmup, "calls": calls},
            label=f"calls={calls}",
        )
        for calls in counts
    ]


class TestForkEquivalence:
    @pytest.mark.parametrize("config", ["EXT4-DR", "BFS-DR"])
    def test_sync_loop_fork_matches_scratch(self, config):
        # EXT4-DR services SIMPLE commands with RNG draws on every selection,
        # so sample-identical latencies prove the device RNG stream continued
        # across the fork exactly where the warmup left it.
        specs = _sync_loop_specs(config=config)
        scratch = [run_spec(spec) for spec in specs]
        warm = run_specs(specs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)

    def test_postgres_wal_fork_matches_scratch(self):
        specs = [
            ScenarioSpec(
                workload="postgres-wal",
                config="BFS-DR",
                device="ufs",
                params={"warmup_commits": 40, "commits": commits},
                label=f"commits={commits}",
            )
            for commits in (5, 15)
        ]
        scratch = [run_spec(spec) for spec in specs]
        warm = run_specs(specs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_one_group_under_jobs_matches_scratch(self, jobs):
        # jobs=2 cuts the group into a 2-spec and a 1-spec chunk, jobs=3
        # into three one-spec units: every cut must still match scratch.
        specs = _sync_loop_specs(config="BFS-DR", counts=(10, 20, 30))
        scratch = [run_spec(spec) for spec in specs]
        warm = run_specs(specs, jobs=jobs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)
            assert b.spec == a.spec

    def test_fault_plan_streams_continue_across_the_fork(self):
        # The injector is installed before the warmup (prepare_spec order),
        # so its seeded fault-site streams are mid-flight at the fork
        # point; every forked suffix must continue them exactly where a
        # never-forked run would be — counters included.
        specs = [
            spec.with_(faults=("torn-write:p=0.4",))
            for spec in _sync_loop_specs(config="BFS-DR", counts=(10, 25))
        ]
        scratch = [run_spec(spec) for spec in specs]
        warm = run_specs(specs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)
            assert a.result.device_stats == b.result.device_stats

    def test_zero_warmup_still_equivalent(self):
        specs = _sync_loop_specs(warmup=0, counts=(10, 15))
        scratch = [run_spec(spec) for spec in specs]
        warm = run_specs(specs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)

    def test_sweep_matches_the_scratch_reference_script(self, tmp_path):
        # The CI sweep-smoke diff in miniature: the same argv through the
        # runner and through the one-run-per-spec reference, byte for byte.
        from repro.experiments.runner import sweep_main
        from scratch_reference import main as reference_main

        argv = ["-w", "sync-loop", "-c", "BFS-DR", "-d", "ufs",
                "--param", "calls=[5,10]", "--param", "warmup_calls=20",
                "--jobs", "2", "--format", "json"]
        grouped, reference = tmp_path / "grouped.json", tmp_path / "reference.json"
        sweep_main([*argv, "--output", str(grouped)])
        reference_main([*argv, "--output", str(reference)])
        assert grouped.read_bytes() == reference.read_bytes()
        assert engine.run_specs is run_specs  # the reference put it back


def _explode(workload):
    raise RuntimeError("measured phase exploded")


class TestFallback:
    def test_fork_failure_names_the_spec_and_exit_status(self, monkeypatch):
        # The warmup runs as usual; every forked measured phase inherits
        # the patched class and fails.
        monkeypatch.setattr(SyncLoopWorkload, "run", _explode)
        specs = _sync_loop_specs(counts=(10, 25))
        with pytest.raises(SnapshotForkError) as err:
            run_specs(specs)
        message = str(err.value)
        # Which spec died, how the child exited, and why — all in one line.
        assert specs[0].display_label in message
        assert "exit" in message.lower()
        assert "RuntimeError: measured phase exploded" in message

    def test_killed_measured_phase_names_the_spec_and_signal(self, monkeypatch):
        def die(self):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(SyncLoopWorkload, "run", die)
        specs = _sync_loop_specs(counts=(10, 25))
        with pytest.raises(SnapshotForkError) as err:
            run_specs(specs)
        message = str(err.value)
        assert specs[0].display_label in message
        assert f"signal {int(signal.SIGKILL)} (SIGKILL)" in message

    def test_failing_group_leaves_no_child_behind(self, monkeypatch):
        monkeypatch.setattr(SyncLoopWorkload, "run", _explode)
        with pytest.raises(SnapshotForkError):
            run_specs(_sync_loop_specs(counts=(10, 25)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_wait_kills_and_reaps_the_child(self, monkeypatch):
        # The measured phase hangs; a Ctrl-C lands while the parent waits
        # on it (SIGALRM armed right after the warmup stands in for the
        # keyboard), and the child must not be left running.
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        warm = SyncLoopWorkload.warm

        def warm_then_arm(self):
            warm(self)
            signal.setitimer(signal.ITIMER_REAL, 0.2)

        monkeypatch.setattr(SyncLoopWorkload, "warm", warm_then_arm)
        # Bounded, so a regression leaves a stray child for seconds, not forever.
        monkeypatch.setattr(SyncLoopWorkload, "run", lambda self: time.sleep(30))
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_specs(_sync_loop_specs(counts=(10, 25)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forkless_platform_warns_and_matches_scratch(self, monkeypatch):
        monkeypatch.setattr(engine, "fork_supported", lambda: False)
        specs = _sync_loop_specs(counts=(10, 25))
        with pytest.warns(RuntimeWarning, match="fell back to from-scratch"):
            outcomes = run_specs(specs)
        scratch = [run_spec(spec) for spec in specs]
        for a, b in zip(scratch, outcomes):
            assert _fingerprint(a) == _fingerprint(b)


class TestGrouping:
    def test_suffix_only_difference_shares_a_group(self):
        specs = _sync_loop_specs(counts=(10, 25, 40))
        assert group_specs(specs) == [[0, 1, 2]]
        assert warm_group_key(specs[0]) == warm_group_key(specs[1])

    def test_different_axes_split_groups(self):
        base = _sync_loop_specs(counts=(10,))[0]
        variants = [
            base,
            base.with_(seed=1),
            base.with_(config="BFS-DR"),
            base.with_(params={"warmup_calls": 61, "calls": 10}),
        ]
        assert group_specs(variants) == [[0], [1], [2], [3]]

    def test_label_does_not_split_groups(self):
        specs = _sync_loop_specs(counts=(10, 25))
        relabelled = [spec.with_(label=f"row-{i}") for i, spec in enumerate(specs)]
        assert group_specs(relabelled) == [[0, 1]]

    def test_workload_without_split_gets_singleton_groups(self):
        specs = [
            ScenarioSpec(workload="varmail", config="EXT4-DR", device="ufs")
            for _ in range(2)
        ]
        assert group_specs(specs) == [[0], [1]]

    def test_mixed_sweep_preserves_spec_order(self):
        sync = _sync_loop_specs(counts=(10, 20))
        varmail = ScenarioSpec(workload="varmail", config="EXT4-DR", device="ufs")
        specs = [sync[0], varmail, sync[1]]
        outcomes = run_specs(specs)
        assert [o.spec.workload for o in outcomes] == [
            "sync-loop",
            "varmail",
            "sync-loop",
        ]
        assert outcomes[0].spec is specs[0] and outcomes[2].spec is specs[2]

    def test_units_split_groups_until_every_worker_has_one(self):
        one_group = _sync_loop_specs(counts=(10, 20, 30))
        assert plan_units(one_group, jobs=1) == [[0, 1, 2]]
        assert plan_units(one_group, jobs=2) == [[0, 1], [2]]
        assert plan_units(one_group, jobs=3) == [[0], [1], [2]]
        assert plan_units(one_group, jobs=8) == [[0], [1], [2]]
        two_groups = _sync_loop_specs(counts=(10, 20)) + _sync_loop_specs(
            config="BFS-DR", counts=(10, 20)
        )
        assert plan_units(two_groups, jobs=2) == [[0, 1], [2, 3]]
