"""Batched dispatcher drains vs. single-request grants: bit-identical.

The dispatcher loop pulls whole scheduler batches per wakeup
(``NoopScheduler.next_batch``) purely as a wall-clock lever; these tests pin
that the simulation itself cannot tell.  Forcing every scheduler back to
the one-request-per-call reference below must reproduce the exact same
workload results, device/block counter totals, and simulated end times —
across all five barrier modes, and through the error/backpressure paths
(io_errors, io_retries, busy_requeues).
"""

import dataclasses

import pytest

from repro.block import BlockDevice
from repro.block.scheduler import EpochIOScheduler, NoopScheduler
from repro.faults import FaultInjector
from repro.scenarios.engine import prepare_spec
from repro.scenarios.spec import ScenarioSpec
from repro.simulation import Simulator
from repro.storage import StorageDevice, get_profile

BARRIER_MODES = (
    "none",
    "plp",
    "in-order-writeback",
    "transactional",
    "in-order-recovery",
)


def single_pull_batch(scheduler):
    """The reference grant: one :meth:`next_request` per dispatcher pull.

    A batching ``next_batch`` must equal what repeated single pulls would
    have returned had no request arrived in between.
    """
    request = scheduler.next_request()
    return [] if request is None else [request]


def force_single_request_grants(monkeypatch):
    """Revert every batching scheduler to the one-pull-per-call reference."""
    monkeypatch.setattr(NoopScheduler, "next_batch", single_pull_batch)
    monkeypatch.setattr(EpochIOScheduler, "next_batch", single_pull_batch)


def stats_fingerprint(stats):
    """All counters of a stats dataclass, time-weighted gauges by their peak."""
    out = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, (int, float)):
            out[field.name] = value
        else:
            out[field.name] = getattr(value, "peak", repr(value))
    return out


def run_sync_loop(barrier_mode):
    spec = ScenarioSpec(
        workload="sync-loop",
        config="EXT4-DR",
        device="ufs",
        barrier_mode=barrier_mode,
        params={"calls": 30},
    )
    workload = prepare_spec(spec)
    workload.warm()
    result = workload.run()
    stack = workload.stack
    return {
        "operations": result.operations,
        "elapsed_usec": result.elapsed_usec,
        "latencies": list(result.latencies.samples),
        "extra": sorted((k, repr(v)) for k, v in result.extra.items()),
        "device_stats": stats_fingerprint(stack.device.stats),
        "block_stats": stats_fingerprint(stack.block.stats),
        "sim_now": stack.sim.now,
    }


class TestBatchedEqualsSingle:
    @pytest.mark.parametrize("barrier_mode", BARRIER_MODES)
    def test_sync_loop_identical_across_barrier_modes(
        self, barrier_mode, monkeypatch
    ):
        batched = run_sync_loop(barrier_mode)
        force_single_request_grants(monkeypatch)
        single = run_sync_loop(barrier_mode)
        assert batched == single

    def test_batched_path_is_actually_exercised(self):
        # Guard against the comparison silently degenerating: the Noop
        # batch grant must hand out multi-request batches somewhere.
        scheduler = NoopScheduler()
        from reference.builders import write_request
        from repro.block.request import RequestFlag

        requests = [
            write_request(lba * 100, 1, flags=RequestFlag.ORDERED)
            for lba in range(4)
        ]
        for request in requests:
            scheduler.add_request(request)
        batch = scheduler.next_batch()
        assert len(batch) > 1


class TestStatsUnderErrorsAndBackpressure:
    """Satellite: DeviceStats accounting identical under batched drains."""

    def _run(self, *, faults):
        sim = Simulator()
        device = StorageDevice(sim, get_profile("plain-ssd"))
        if faults:
            FaultInjector(faults, seed=0).install(device)
        block = BlockDevice(sim, device)
        count = device.profile.queue_depth * 3

        def host():
            requests = [
                block.write(index * 10, 1, issuer="t") for index in range(count)
            ]
            yield sim.all_of([request.completed for request in requests])
            return requests

        requests = sim.run_until_complete(sim.process(host()), limit=120_000_000)
        return {
            "errors": [request.error for request in requests],
            "retries": [request.retries for request in requests],
            "device_stats": stats_fingerprint(device.stats),
            "block_stats": stats_fingerprint(block.stats),
            "sim_now": sim.now,
        }

    @pytest.mark.parametrize(
        "faults",
        [(), ("io-error:nth=2",), ("io-error:p=0.2",)],
        ids=["clean", "one-error", "random-errors"],
    )
    def test_saturated_queue_totals_identical(self, faults, monkeypatch):
        batched = self._run(faults=list(faults))
        force_single_request_grants(monkeypatch)
        single = self._run(faults=list(faults))
        assert batched == single

    def test_error_and_requeue_paths_exercised(self):
        outcome = self._run(faults=["io-error:nth=2"])
        assert outcome["device_stats"]["io_errors"] >= 1
        assert outcome["block_stats"]["io_retries"] >= 1
        assert outcome["device_stats"]["busy_rejections"] >= 1
        assert outcome["block_stats"]["busy_requeues"] >= 1
