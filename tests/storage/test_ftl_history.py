"""The in-order-recovery FTL log is crash history (``record_history()``).

Only crash recovery scans the log, so a plain run never builds it; every
crash consumer (crash checks, the fault injector, remount) switches it on
before the first IO, the same opt-in rule as the cache history.
"""

import pytest

from repro.analysis.measure import measure_sync_latency
from repro.core import build_stack, standard_config
from repro.core.verification import CrashProbe
from repro.faults import FaultInjector
from repro.recovery import capture_image, remount
from repro.scenarios.spec import ScenarioSpec
from repro.simulation import SimulationError
from repro.storage import BarrierMode
from repro.storage.crash import recover_durable_blocks

SPEC = ScenarioSpec(
    workload="sync-loop",
    config="BFS-DR",
    device="plain-ssd",
    barrier_mode="in-order-recovery",
)


def _stack():
    stack = build_stack(standard_config("BFS-DR", "plain-ssd"))
    assert stack.device.barrier_mode is BarrierMode.IN_ORDER_RECOVERY
    return stack


def test_a_plain_run_builds_no_log():
    stack = _stack()
    measure_sync_latency(stack, calls=20, sync_call="fsync")
    assert stack.device.ftl is None


def test_record_history_builds_the_log_once():
    stack = _stack()
    stack.record_history()
    ftl = stack.device.ftl
    assert ftl is not None
    stack.record_history()
    assert stack.device.ftl is ftl
    measure_sync_latency(stack, calls=5, sync_call="fsync")
    # The log holds the run from its first page: its scan recovers it all.
    state = recover_durable_blocks(stack.device)
    assert len(state.durable) == len(state.history) > 0


@pytest.mark.parametrize("layer", ["stack", "device"])
def test_a_late_call_raises_and_builds_no_log(layer):
    stack = _stack()
    measure_sync_latency(stack, calls=2, sync_call="fsync")
    target = stack if layer == "stack" else stack.device
    with pytest.raises(SimulationError, match="record_history"):
        target.record_history()
    assert stack.device.ftl is None


def test_the_fault_injector_gets_a_log():
    stack = _stack()
    FaultInjector(["torn-write:p=0.1"]).install(stack.device)
    assert stack.device.ftl is not None


def test_remount_replays_the_baseline_into_a_log():
    stack = _stack()
    stack.record_history()
    measure_sync_latency(stack, calls=3, sync_call="fsync")
    stack.device.power_off()
    probe = CrashProbe.from_stack(
        recover_durable_blocks(stack.device), stack, spec=SPEC
    )
    image = capture_image(probe)
    remounted = remount(image, SPEC)
    ftl = remounted.device.ftl
    assert ftl is not None
    seeded = set(recover_durable_blocks(remounted.device).durable_blocks)
    assert len(seeded) == image.total_pages > 0
