"""Tests for stack assembly and the verification checks."""

from dataclasses import replace

import pytest

from reference.stub_device import crash_state, page
from repro.block.request import RequestFlag
from repro.core import (
    ORACLES,
    CrashProbe,
    StackConfig,
    VerificationError,
    build_stack,
    standard_config,
)
from repro.fs import BarrierFS, Ext4Filesystem, OptFS
from repro.scenarios.stacks import STACK_CONFIGS
from repro.storage import BarrierMode
from repro.storage.command import WrittenBlock
from repro.storage.crash import recover_durable_blocks


class TestStackBuilder:
    def test_standard_configurations_exist(self):
        assert set(STACK_CONFIGS.names()) == {
            "EXT4-DR", "EXT4-OD", "BFS-DR", "BFS-OD", "OptFS",
        }

    def test_ext4_dr_stack(self):
        stack = build_stack(standard_config("EXT4-DR", "plain-ssd"))
        assert isinstance(stack.fs, Ext4Filesystem)
        assert not stack.block.order_preserving
        assert stack.device.barrier_mode is BarrierMode.NONE
        assert not stack.fs.options.no_barrier

    def test_ext4_od_stack_uses_nobarrier(self):
        stack = build_stack(standard_config("EXT4-OD"))
        assert stack.fs.options.no_barrier

    def test_bfs_stack_is_barrier_enabled(self):
        stack = build_stack(standard_config("BFS-DR", "plain-ssd"))
        assert isinstance(stack.fs, BarrierFS)
        assert stack.block.order_preserving
        assert stack.device.barrier_mode is BarrierMode.IN_ORDER_RECOVERY

    def test_supercap_device_keeps_plp_even_for_legacy_stack(self):
        stack = build_stack(standard_config("EXT4-DR", "supercap-ssd"))
        assert stack.device.barrier_mode is BarrierMode.PLP

    def test_optfs_stack(self):
        stack = build_stack(standard_config("OptFS"))
        assert isinstance(stack.fs, OptFS)
        assert stack.config.sync_call == "osync"

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            standard_config("ZFS")
        with pytest.raises(KeyError):
            build_stack(StackConfig(filesystem="btrfs"))

    def test_config_with_device_helper(self):
        config = replace(standard_config("BFS-DR", "plain-ssd"), device="ufs")
        assert config.device == "ufs"
        assert config.filesystem == "barrierfs"

    def test_configured_sync_call_runs(self):
        stack = build_stack(standard_config("BFS-OD"))

        def proc():
            handle = stack.fs.create("x")
            stack.fs.write(handle, 1)
            yield from getattr(stack.fs, stack.config.sync_call)(handle)
            return None

        stack.run_process(proc())
        assert stack.fs.stats.fbarrier == 1


class TestVerification:
    def _barrier_run(self, *, crash_after: float = 20_000):
        stack = build_stack(standard_config("BFS-OD", "plain-ssd"))
        stack.record_history()
        block = stack.block
        sim = stack.sim

        def writer():
            for index in range(40):
                block.write(
                    index, 1,
                    payload=[WrittenBlock(("rec", index), 1)],
                    flags=RequestFlag.ORDERED | RequestFlag.BARRIER,
                    issuer="app",
                )
                yield sim.timeout(40)
            return None

        sim.process(writer())
        sim.run(until=crash_after)
        stack.device.power_off()
        return stack

    def test_dispatch_preserves_epochs_in_barrier_stack(self):
        stack = self._barrier_run()
        probe = CrashProbe.from_stack(recover_durable_blocks(stack.device), stack)
        ORACLES["dispatch-epoch-order"].verify(probe)

    def test_epoch_prefix_is_kept_by_a_barrier_device(self):
        stack = self._barrier_run()
        state = recover_durable_blocks(stack.device)
        ORACLES["epoch-prefix"].verify(CrashProbe(state))

    def test_epoch_prefix_violation_detected(self):
        # Construct a crash state that violates the property and check the
        # verifier flags it.
        stack = self._barrier_run()
        state = recover_durable_blocks(stack.device)
        if len(state.durable) < 2:
            pytest.skip("not enough durable pages to forge a violation")
        # Forge: drop the first durable page but keep a later-epoch page,
        # on a stub device that transferred the same pages.
        first = state.durable[0]
        survivors = {entry.transfer_seq for entry in state.durable} - {first.transfer_seq}
        forged = crash_state([
            page(entry.block, entry.version, entry.epoch, entry.transfer_seq,
                 entry.transfer_seq in survivors)
            for entry in state.history
        ])
        if not any(entry.epoch > first.epoch for entry in forged.durable):
            pytest.skip("no later-epoch survivor to conflict with")
        with pytest.raises(VerificationError, match="epoch-prefix violated"):
            ORACLES["epoch-prefix"].verify(CrashProbe(forged))

    def test_dispatch_epoch_violation_detected(self):
        stack = self._barrier_run()
        log = list(stack.block.dispatch_log)
        if len(log) < 2:
            pytest.skip("dispatch log too short")
        log[0], log[-1] = log[-1], log[0]
        probe = CrashProbe(recover_durable_blocks(stack.device), dispatch_log=log)
        with pytest.raises(VerificationError, match="dispatch order violates epochs"):
            ORACLES["dispatch-epoch-order"].verify(probe)

    def test_legacy_device_can_violate_epoch_prefix(self):
        # With the legacy (NONE) barrier mode and no flushes the durable set
        # is arbitrary; over a long enough run a violation shows up.
        stack = build_stack(standard_config("EXT4-OD", "plain-ssd"))
        stack.record_history()
        block = stack.block
        sim = stack.sim

        def writer():
            for index in range(600):
                block.write(index, 1, payload=[WrittenBlock(("rec", index), 1)], issuer="app")
                yield sim.timeout(25)
            return None

        sim.process(writer())
        sim.run(until=14_000)
        stack.device.power_off()
        state = recover_durable_blocks(stack.device)
        durable_indexes = sorted(
            index for (kind, index) in state.durable_blocks if kind == "rec"
        )
        transferred = len(state.history)
        # The durable set is a strict, non-prefix subset of what was written.
        assert durable_indexes, "nothing persisted before the crash"
        assert len(durable_indexes) < transferred
        has_hole = any(
            later not in durable_indexes
            for later in range(durable_indexes[-1])
        )
        assert has_hole, "legacy device unexpectedly persisted a perfect prefix"
