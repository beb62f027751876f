"""Crash recovery across every BarrierMode, driven through the scenario matrix.

One parametrized test replaces per-mode wiring: each mode becomes a
``ScenarioSpec`` (barrier mode is just another scenario axis), the sync-loop
workload produces a durable fsync'd prefix, and — on barrier-capable modes —
an unwaited fdatabarrier tail leaves transferred-but-maybe-lost pages behind
so the epoch-prefix property is checked against a non-trivial crash state.
"""

import pytest

from repro.core.verification import ORACLES, CrashProbe
from repro.scenarios import ScenarioSpec, prepare_spec
from repro.storage.barrier_modes import BarrierMode
from repro.storage.crash import recover_durable_blocks


def _spec_for(mode: BarrierMode) -> ScenarioSpec:
    # BarrierFS needs a barrier-capable controller; the legacy NONE mode is
    # exercised through stock EXT4 (which is why the legacy host must resort
    # to transfer-and-flush in the first place).
    config = "EXT4-DR" if mode is BarrierMode.NONE else "BFS-DR"
    return ScenarioSpec(
        workload="sync-loop",
        config=config,
        device="plain-ssd",
        barrier_mode=mode.value,
        label=mode.value,
        params=dict(calls=10, sync_call="fsync", allocating=True),
    )


def _append_unwaited_barrier_tail(stack) -> None:
    """Queue ordered writes without waiting for durability, then let some land."""
    fs = stack.fs

    def tail():
        handle = fs.create("tail.dat")
        for _ in range(4):
            fs.write(handle, 1)
            yield from fs.fdatabarrier(handle, issuer="crash-tail")
        yield stack.sim.timeout(500.0)
        return None

    stack.run_process(tail())


@pytest.mark.parametrize("mode", list(BarrierMode), ids=lambda mode: mode.value)
def test_crash_recovery_matrix(mode):
    workload = prepare_spec(_spec_for(mode))
    workload.stack.record_history()
    workload.run()
    stack = workload.stack
    assert stack.device.barrier_mode is mode

    if mode.supports_barrier:
        _append_unwaited_barrier_tail(stack)

    stack.device.power_off()
    state = recover_durable_blocks(stack.device)

    assert state.barrier_mode is mode
    # The recovered state partitions everything ever transferred.
    assert len(state.durable) + len(state.lost) == len(state.history)
    # The fsync'd prefix waited for durability, so it must have survived.
    assert state.durable, "fsync'd writes lost after crash"
    if mode.orders_persistence:
        ORACLES["epoch-prefix"].verify(CrashProbe(state))
