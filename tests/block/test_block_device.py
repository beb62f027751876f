"""Integration tests for the block device (scheduler + dispatcher + device)."""

import pytest

from reference.builders import flush_request, read_request, write_request
from repro.block import BlockDevice, BlockDeviceConfig, DispatchPolicy, RequestFlag
from repro.block.dispatch import request_to_command
from repro.block.scheduler import EpochIOScheduler
from repro.simulation import Simulator
from repro.storage import BarrierMode, StorageDevice, get_profile
from repro.storage.command import CommandKind, CommandPriority
from repro.storage.crash import recover_durable_blocks


def make_stack(profile="plain-ssd", *, order_preserving=True, barrier_mode=None,
               **dev_kwargs):
    sim = Simulator()
    device = StorageDevice(
        sim, get_profile(profile), barrier_mode=barrier_mode, **dev_kwargs
    )
    block = BlockDevice(
        sim, device,
        BlockDeviceConfig(order_preserving=order_preserving),
    )
    return sim, device, block


def run(sim, generator):
    return sim.run_until_complete(sim.process(generator), limit=120_000_000)


class TestDispatchTranslation:
    def test_barrier_write_becomes_ordered_command(self):
        request = write_request(0, 1, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        command = request_to_command(request, DispatchPolicy.ORDER_PRESERVING)
        assert command.priority is CommandPriority.ORDERED
        assert command.is_barrier

    def test_legacy_policy_strips_ordering(self):
        request = write_request(0, 1, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
        command = request_to_command(request, DispatchPolicy.LEGACY)
        assert command.priority is CommandPriority.SIMPLE
        assert not command.is_barrier

    def test_fua_flush_flags_translate(self):
        request = write_request(0, 1, flags=RequestFlag.FUA | RequestFlag.FLUSH)
        command = request_to_command(request, DispatchPolicy.LEGACY)
        assert command.is_fua and command.wants_preflush

    def test_flush_and_read_requests(self):
        flush = request_to_command(flush_request(), DispatchPolicy.LEGACY)
        assert flush.kind is CommandKind.FLUSH
        read = request_to_command(read_request(5, 2), DispatchPolicy.LEGACY)
        assert read.kind is CommandKind.READ and read.num_pages == 2


class TestBlockDevice:
    def test_write_completes(self):
        sim, device, block = make_stack()

        def host():
            request = block.write(0, 1, issuer="t")
            yield request.completed
            return request

        request = run(sim, host())
        assert request.completed.triggered
        assert request.dispatch_time >= request.issue_time
        assert device.stats.writes_serviced == 1

    def test_flush_round_trip(self):
        sim, device, block = make_stack()
        device.record_history()

        def host():
            yield block.write(0, 1).completed
            yield block.flush().completed
            return None

        run(sim, host())
        assert device.stats.flushes_serviced == 1
        assert {entry.block for entry in device.cache.history if entry.is_durable}

    def test_issue_epoch_advances_on_barrier(self):
        sim, device, block = make_stack()

        def host():
            first = block.write(0, 1, flags=RequestFlag.ORDERED)
            barrier = block.write(
                1, 1, flags=RequestFlag.ORDERED | RequestFlag.BARRIER
            )
            second = block.write(2, 1, flags=RequestFlag.ORDERED)
            yield sim.all_of([first.completed, barrier.completed, second.completed])
            return first, barrier, second

        first, barrier, second = run(sim, host())
        assert first.issue_epoch == 0
        assert barrier.issue_epoch == 0
        assert second.issue_epoch == 1
        assert block.stats.barrier_requests == 1

    def test_order_preserving_requires_barrier_device(self):
        sim = Simulator()
        device = StorageDevice(
            sim, get_profile("plain-ssd"), barrier_mode=BarrierMode.NONE
        )
        with pytest.raises(ValueError):
            BlockDevice(sim, device, BlockDeviceConfig(order_preserving=True))

    def test_legacy_stack_on_legacy_device(self):
        sim, device, block = make_stack(
            order_preserving=False, barrier_mode=BarrierMode.NONE
        )

        def host():
            requests = [block.write(index, 1, issuer=f"t{index % 2}") for index in range(6)]
            yield sim.all_of([request.completed for request in requests])
            return requests

        requests = run(sim, host())
        assert all(request.completed.triggered for request in requests)
        assert not isinstance(block.scheduler, EpochIOScheduler)

    def test_merged_requests_complete_together(self):
        sim, device, block = make_stack()

        def host():
            first = block.write(0, 2, issuer="pdflush")
            second = block.write(2, 2, issuer="pdflush")
            third = block.write(4, 2, issuer="pdflush")
            yield sim.all_of([first.completed, second.completed, third.completed])
            return first, second, third

        first, second, third = run(sim, host())
        assert second in first.merged_requests or second.completed.triggered
        assert third.completed.triggered
        # Fewer commands than requests reached the device thanks to merging.
        assert device.stats.writes_serviced < 3

    def test_drain_waits_for_outstanding_requests(self):
        sim, device, block = make_stack()

        def host():
            for index in range(8):
                block.write(index * 10, 1)
            yield from block.drain()
            return device.stats.writes_serviced

        serviced = run(sim, host())
        assert serviced >= 1
        assert block.queued_requests == 0

    def test_busy_device_eventually_served(self):
        sim, device, block = make_stack(profile="ufs")
        count = device.profile.queue_depth * 3

        def host():
            requests = [block.write(index * 10, 1) for index in range(count)]
            yield sim.all_of([request.completed for request in requests])
            return len(requests)

        assert run(sim, host()) == count
        assert device.stats.writes_serviced >= 1

    def test_epoch_ordering_survives_to_persistence(self):
        sim, device, block = make_stack(profile="plain-ssd")
        device.record_history()

        def host():
            from repro.storage.command import WrittenBlock

            first = block.write(
                0, 1, payload=[WrittenBlock("epoch0", 1)],
                flags=RequestFlag.ORDERED | RequestFlag.BARRIER,
            )
            second = block.write(
                10, 1, payload=[WrittenBlock("epoch1", 1)],
                flags=RequestFlag.ORDERED | RequestFlag.BARRIER,
            )
            yield sim.all_of([first.completed, second.completed])
            # Let the background flusher make progress, then crash.
            yield sim.timeout(20_000)
            return None

        run(sim, host())
        device.power_off()
        state = recover_durable_blocks(device)
        durable = set(state.durable_blocks)
        if "epoch1" in durable:
            assert "epoch0" in durable
