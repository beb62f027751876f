"""Tests for the analysis helpers and a few less-travelled configuration paths."""

import pytest

from repro.analysis.measure import measure_sync_latency, queue_depth_trace
from repro.block import BlockDevice, BlockDeviceConfig
from repro.core import build_stack, standard_config
from repro.core.stack import StackConfig
from repro.fs.journal.transaction import JournalTransaction, TransactionState
from repro.scenarios import ScenarioSpec, run_spec, sweep_table
from repro.simulation import Simulator
from repro.storage import BarrierMode, StorageDevice, get_profile
from repro.storage.barrier_modes import default_barrier_mode


class TestAnalysisHelpers:
    def test_measure_sync_latency_reports_iops(self):
        stack = build_stack(standard_config("BFS-DR", "supercap-ssd"))
        result = measure_sync_latency(stack, calls=20, sync_call="fsync")
        assert result.calls == 20
        assert len(result.latencies) == 20
        assert result.iops > 0
        assert result.elapsed_usec > 0

    def test_an_early_stopped_loop_reports_only_completed_calls(self):
        # Half the writes fail: the loop stops on an EIO after 14 syncs.
        spec = ScenarioSpec(
            workload="sync-loop",
            config="EXT4-DR",
            device="plain-ssd",
            params={"calls": 50},
            faults=("io-error:p=0.5,op=write",),
        )
        result = run_spec(spec).result
        assert 0 < result.operations == len(result.latencies) < 50
        assert result.extra["stopped_by"] == "EIOError"
        assert result.extra["context_switches"] == pytest.approx(2.0)
        assert "stopped_by=EIOError" in sweep_table([spec]).rows[0][-1]

    def test_a_loop_stopped_before_any_sync_reports_no_work(self):
        spec = ScenarioSpec(
            workload="sync-loop",
            config="EXT4-DR",
            device="plain-ssd",
            params={"calls": 50},
            faults=("io-error:p=0.9,op=write",),
        )
        result = run_spec(spec).result
        assert result.operations == 0
        assert result.ops_per_second == 0
        assert result.extra["stopped_by"] == "EIOError"

    def test_queue_depth_trace_requires_tracking(self):
        stack = build_stack(standard_config("EXT4-DR"))
        with pytest.raises(ValueError):
            queue_depth_trace(stack)

    def test_queue_depth_trace_available_when_tracked(self):
        from dataclasses import replace

        config = replace(standard_config("BFS-DR"), track_queue_depth=True)
        stack = build_stack(config)
        measure_sync_latency(stack, calls=5, sync_call="fsync")
        trace = queue_depth_trace(stack)
        assert len(trace) > 0
        assert trace.maximum >= 1


class TestConfigurationCorners:
    def test_busy_device_dispatch_waits_for_slot(self):
        sim = Simulator()
        device = StorageDevice(sim, get_profile("ufs"), barrier_mode=BarrierMode.NONE)
        block = BlockDevice(sim, device, BlockDeviceConfig(order_preserving=False))

        def host():
            # Non-contiguous LBAs so the scheduler cannot merge them away.
            requests = [block.write(index * 10, 1) for index in range(40)]
            yield sim.all_of([request.completed for request in requests])
            return True

        assert sim.run_until_complete(sim.process(host()), limit=120_000_000)
        assert block.stats.busy_waits > 0

    def test_explicit_barrier_mode_override(self):
        config = StackConfig(
            device="plain-ssd", filesystem="barrierfs",
            barrier_mode=BarrierMode.TRANSACTIONAL,
        )
        stack = build_stack(config)
        assert stack.device.barrier_mode is BarrierMode.TRANSACTIONAL

    def test_default_barrier_mode_choices(self):
        assert default_barrier_mode(get_profile("supercap-ssd")) is BarrierMode.PLP
        assert default_barrier_mode(get_profile("plain-ssd")) is BarrierMode.IN_ORDER_RECOVERY
        assert default_barrier_mode(get_profile("HDD")) is BarrierMode.NONE


class TestTransactionLifecycle:
    def test_transaction_state_machine(self):
        sim = Simulator()
        txn = JournalTransaction(txid=1).attach(sim)
        txn.add_metadata(("inode", 1), 3)
        txn.add_metadata(("inode", 1), 2)  # stale version ignored
        assert txn.metadata_buffers[("inode", 1)] == 3
        assert len(txn.descriptor_payload()) == 2  # descriptor + one log block
        assert not txn.is_empty
        txn.mark_committing(now=5.0)
        assert txn.state is TransactionState.COMMITTING
        with pytest.raises(RuntimeError):
            txn.mark_committing(now=6.0)
        txn.mark_dispatched(now=7.0)
        assert txn.dispatched_event.triggered
        txn.mark_durable(now=9.0)
        assert txn.state is TransactionState.DURABLE
        assert txn.durable_event.triggered

    def test_payload_block_naming(self):
        sim = Simulator()
        txn = JournalTransaction(txid=7).attach(sim)
        txn.add_metadata(("inode", 3), 1)
        txn.add_journaled_data(("data", 3, 0), 2)
        descriptor_blocks = [block.block for block in txn.descriptor_payload()]
        assert ("jd", 7) in descriptor_blocks
        assert ("log", 7, ("inode", 3)) in descriptor_blocks
        assert ("logdata", 7, ("data", 3, 0)) in descriptor_blocks
        assert [block.block for block in txn.commit_payload()] == [("jc", 7)]


class TestExperimentExtras:
    def test_fig1_subset_runs(self):
        from repro.experiments import fig1_ordered_vs_buffered

        result = fig1_ordered_vs_buffered.run(0.1, devices=("A", "G"))
        rows = {row["device"]: row for row in result.as_dicts()}
        assert rows["A"]["ordered/buffered_%"] > rows["G"]["ordered/buffered_%"]

    def test_ablation_orders_barrier_modes(self):
        from repro.experiments import ablation_barrier_modes

        result = ablation_barrier_modes.run(0.1)
        rows = {row["barrier_mode"]: row for row in result.as_dicts()}
        assert rows["in-order-writeback"]["mean_fsync_ms"] > rows["in-order-recovery"]["mean_fsync_ms"]

    def test_fig12_ordering_guarantee_has_deeper_queue(self):
        from repro.experiments import fig12_barrierfs_queue_depth

        result = fig12_barrierfs_queue_depth.run(0.1)
        rows = {row["guarantee"]: row for row in result.as_dicts()}
        assert rows["ordering"]["avg_qd"] > rows["durability"]["avg_qd"]
