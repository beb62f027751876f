"""Tests for the application workload models and the experiment harness."""

import pytest

from repro.apps import (
    FxmarkDWSL,
    Guarantee,
    MySQLOLTPInsert,
    SQLiteJournalMode,
    SQLiteWorkload,
    SyncPolicy,
    VarmailWorkload,
)
from repro.core import build_stack, standard_config


def stack_for(name, device="plain-ssd"):
    return build_stack(standard_config(name, device))


class TestSyncPolicy:
    def test_barrierfs_ordering_maps_to_fdatabarrier(self):
        stack = stack_for("BFS-DR")
        policy = SyncPolicy(stack.fs)

        def proc():
            handle = stack.fs.create("f")
            stack.fs.write(handle, 1)
            yield from policy.sync(handle, Guarantee.ORDERING)
            yield from policy.sync(handle, Guarantee.DURABILITY)
            return None

        stack.run_process(proc())
        assert stack.fs.stats.fdatabarrier == 1
        assert stack.fs.stats.fdatasync == 1

    def test_relaxed_durability_uses_ordering_calls_only(self):
        stack = stack_for("BFS-OD")
        policy = SyncPolicy(stack.fs, relax_durability=True)

        def proc():
            handle = stack.fs.create("f")
            stack.fs.write(handle, 1)
            yield from policy.sync(handle, Guarantee.DURABILITY)
            return None

        stack.run_process(proc())
        assert stack.fs.stats.fdatasync == 0
        assert stack.fs.stats.fdatabarrier == 1

    def test_ext4_maps_everything_to_fdatasync(self):
        stack = stack_for("EXT4-DR")
        policy = SyncPolicy(stack.fs)

        def proc():
            handle = stack.fs.create("f")
            stack.fs.write(handle, 1)
            yield from policy.sync(handle, Guarantee.ORDERING)
            return None

        stack.run_process(proc())
        assert stack.fs.stats.fdatasync == 1

    def test_optfs_ordering_maps_to_osync(self):
        stack = stack_for("OptFS")
        policy = SyncPolicy(stack.fs)

        def proc():
            handle = stack.fs.create("f")
            stack.fs.write(handle, 1)
            yield from policy.sync(handle, Guarantee.ORDERING)
            return None

        stack.run_process(proc())
        assert stack.fs.stats.osync == 1
        assert "optfs" in policy.describe()


class TestSQLite:
    def test_persist_mode_issues_four_syncs_per_insert(self):
        stack = stack_for("EXT4-DR")
        workload = SQLiteWorkload(inserts=5, journal_mode=SQLiteJournalMode.PERSIST)
        result = workload.prepare(stack).run()
        assert result.operations == 5
        assert stack.fs.stats.fdatasync == 20
        assert result.ops_per_second > 0
        assert len(result.latencies) == 5

    def test_wal_mode_issues_one_sync_per_insert(self):
        stack = stack_for("EXT4-DR")
        workload = SQLiteWorkload(inserts=5, journal_mode=SQLiteJournalMode.WAL)
        workload.prepare(stack).run()
        assert stack.fs.stats.fdatasync == 5

    def test_barrierfs_replaces_ordering_syncs(self):
        stack = stack_for("BFS-DR")
        workload = SQLiteWorkload(inserts=4, journal_mode=SQLiteJournalMode.PERSIST)
        workload.prepare(stack).run()
        assert stack.fs.stats.fdatabarrier == 12
        assert stack.fs.stats.fdatasync == 4

    def test_barrier_stack_is_faster(self):
        baseline = SQLiteWorkload(inserts=20).prepare(stack_for("EXT4-DR")).run()
        barrier = SQLiteWorkload(inserts=20).prepare(stack_for("BFS-DR")).run()
        assert barrier.ops_per_second > baseline.ops_per_second


class TestMySQL:
    def test_transactions_complete_and_report_throughput(self):
        stack = stack_for("EXT4-DR")
        result = MySQLOLTPInsert(transactions=12).prepare(stack).run()
        assert result.operations == 12
        assert result.ops_per_second > 0
        assert stack.fs.stats.fdatasync >= 24  # redo + binlog per transaction

    def test_relaxing_durability_improves_throughput(self):
        durable = MySQLOLTPInsert(transactions=20).prepare(stack_for("EXT4-DR")).run()
        relaxed = MySQLOLTPInsert(
            transactions=20, relax_durability=True
        ).prepare(stack_for("BFS-OD")).run()
        assert relaxed.ops_per_second > durable.ops_per_second * 2


class TestVarmail:
    def test_operations_counted_per_iteration(self):
        stack = stack_for("EXT4-DR")
        result = VarmailWorkload(iterations=4, num_threads=2).prepare(stack).run()
        assert result.operations == 2 * 4 * VarmailWorkload.OPS_PER_ITERATION
        assert result.ops_per_second > 0

    def test_files_are_created_and_expired(self):
        stack = stack_for("BFS-DR")
        workload = VarmailWorkload(iterations=5, num_threads=1, file_pool=2)
        workload.prepare(stack).run()
        # Old messages beyond the pool size were unlinked.
        assert not stack.fs.exists("mail/0/msg1")
        assert stack.fs.exists("mail/0/msg5")


class TestFxmark:
    @staticmethod
    def dwsl(config, num_threads):
        workload = FxmarkDWSL(num_threads=num_threads, ops_per_thread=15)
        return workload.prepare(stack_for(config)).run()

    def test_scalability_with_threads(self):
        single = self.dwsl("BFS-DR", 1)
        quad = self.dwsl("BFS-DR", 4)
        assert quad.operations == 4 * 15
        assert quad.ops_per_second > single.ops_per_second

    def test_barrierfs_beats_ext4_under_concurrency(self):
        ext4 = self.dwsl("EXT4-DR", 4)
        bfs = self.dwsl("BFS-DR", 4)
        assert bfs.ops_per_second > ext4.ops_per_second * 1.5

    def test_invalid_thread_count_rejected(self):
        with pytest.raises(ValueError):
            FxmarkDWSL(num_threads=0)


class TestExperimentHarness:
    def test_runner_knows_all_experiments(self):
        from repro.experiments.runner import ALL_EXPERIMENTS, run_experiment

        assert {
            "fig1", "fig8", "fig9", "fig10", "table1",
            "fig11", "fig12", "fig13", "fig14", "fig15",
        } <= set(ALL_EXPERIMENTS)
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fig9_shape(self):
        from repro.experiments import fig9_random_write

        result = fig9_random_write.run(0.1, devices=("plain-ssd",))
        rows = {row["scenario"]: row for row in result.as_dicts()}
        assert rows["XnF"]["kiops"] < rows["X"]["kiops"]
        assert rows["X"]["kiops"] < rows["B"]["kiops"]
        assert rows["B"]["max_qd"] > rows["X"]["max_qd"]

    def test_table1_shape(self):
        from repro.experiments import table1_fsync_latency

        result = table1_fsync_latency.run(0.1, devices=("plain-ssd",))
        rows = {row["config"]: row for row in result.as_dicts()}
        assert rows["BFS-DR"]["mean_ms"] < rows["EXT4-DR"]["mean_ms"]

    def test_fig11_shape(self):
        from repro.experiments import fig11_context_switches

        result = fig11_context_switches.run(0.1, devices=("plain-ssd",))
        rows = {row["mode"]: row for row in result.as_dicts()}
        assert rows["EXT4-DR"]["context_switches"] > rows["BFS-DR"]["context_switches"]
        assert rows["BFS-OD"]["context_switches"] < 0.5

    def test_report_table_formatting(self):
        from repro.analysis.reporting import ExperimentResult, format_table

        table = ExperimentResult(
            name="demo", description="d", columns=("a", "b"),
        )
        table.add_row("x", 1.5)
        text = format_table(table)
        assert "demo" in text and "x" in text
        with pytest.raises(ValueError):
            table.add_row("only-one")
        assert table.column("a") == ["x"]
