"""Warm-start prefix snapshots: fork vs. from-scratch equivalence.

The whole value of :mod:`repro.snapshot` rests on one invariant: a measured
phase forked off a warmed process image replays *exactly* the event sequence
a never-forked run replays.  These tests pin that invariant sample-for-sample
(full latency streams, which depend on every RNG draw made after the
snapshot point — so equality doubles as an RNG-stream continuity check),
plus the grouping logic that decides which specs may share a prefix.
"""

import pytest

from repro.scenarios.engine import run_spec, run_specs
from repro.scenarios.spec import ScenarioSpec
from repro.snapshot import (
    checkpoint_supported,
    group_specs,
    run_specs_warm_start,
    warm_group_key,
)

pytestmark = pytest.mark.skipif(
    not checkpoint_supported(), reason="prefix snapshots need fork checkpoints"
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
        warm = run_specs_warm_start(specs)
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
        warm = run_specs_warm_start(specs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)

    def test_run_specs_warm_start_flag_and_jobs(self):
        specs = _sync_loop_specs(config="BFS-DR", counts=(10, 20, 30))
        serial = run_specs(specs)
        warm_serial = run_specs(specs, warm_start=True)
        warm_parallel = run_specs(specs, warm_start=True, jobs=2)
        for a, b, c in zip(serial, warm_serial, warm_parallel):
            assert _fingerprint(a) == _fingerprint(b) == _fingerprint(c)
            assert b.spec == a.spec

    def test_fault_plan_streams_continue_across_the_fork(self):
        # The injector is installed before the warmup (prepare_spec order),
        # so its seeded fault-site streams are mid-flight at the snapshot
        # point; every forked suffix must continue them exactly where a
        # never-forked run would be — counters included.
        specs = [
            spec.with_(faults=("torn-write:p=0.4",))
            for spec in _sync_loop_specs(config="BFS-DR", counts=(10, 25))
        ]
        scratch = [run_spec(spec) for spec in specs]
        warm = run_specs_warm_start(specs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)
            assert a.result.device_stats == b.result.device_stats

    def test_zero_warmup_still_equivalent(self):
        specs = _sync_loop_specs(warmup=0, counts=(10, 15))
        scratch = [run_spec(spec) for spec in specs]
        warm = run_specs_warm_start(specs)
        for a, b in zip(scratch, warm):
            assert _fingerprint(a) == _fingerprint(b)


class TestFallback:
    def test_fork_failure_names_the_spec_and_exit_status(self, monkeypatch):
        from repro.scenarios.workloads import SyncLoopWorkload
        from repro.snapshot import SnapshotForkError

        def boom(self):
            raise RuntimeError("measured phase exploded")

        # The warmup runs as usual; every forked measured phase inherits
        # the patched class and fails.
        monkeypatch.setattr(SyncLoopWorkload, "run", boom)
        specs = _sync_loop_specs(counts=(10, 25))
        with pytest.raises(SnapshotForkError) as err:
            run_specs_warm_start(specs)
        message = str(err.value)
        # Which spec died, how the child exited, and why — all in one line.
        assert specs[0].display_label in message
        assert "exit" in message.lower()
        assert "RuntimeError: measured phase exploded" in message

    def test_forkless_platform_warns_and_matches_scratch(self, monkeypatch):
        import repro.snapshot as snapshot

        monkeypatch.setattr(snapshot, "checkpoint_supported", lambda: False)
        specs = _sync_loop_specs(counts=(10, 25))
        with pytest.warns(RuntimeWarning, match="fell back to from-scratch"):
            outcomes = run_specs_warm_start(specs)
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
        outcomes = run_specs_warm_start(specs)
        assert [o.spec.workload for o in outcomes] == [
            "sync-loop",
            "varmail",
            "sync-loop",
        ]
        assert outcomes[0].spec is specs[0] and outcomes[2].spec is specs[2]
