"""Unit tests for the simulated storage device."""

import pytest

from reference.builders import write_command
from repro.simulation import Simulator
from repro.storage import BarrierMode, StorageDevice, get_profile
from repro.storage.command import CommandFlag, CommandPriority, WrittenBlock, flush_command
from repro.storage.crash import recover_durable_blocks
from repro.storage.device import DeviceBusyError


def make_device(sim, profile="plain-ssd", **kwargs):
    return StorageDevice(sim, get_profile(profile), **kwargs)


def run_host(sim, generator):
    process = sim.process(generator)
    return sim.run_until_complete(process, limit=60_000_000)


def test_write_transfer_then_completion():
    sim = Simulator()
    device = make_device(sim)

    def host():
        command = write_command(0, 1, payload=[WrittenBlock("a", 1)])
        device.submit(command)
        yield command.transferred
        transfer_time = sim.now
        yield command.completed
        return transfer_time, sim.now

    transfer_time, complete_time = run_host(sim, host())
    assert transfer_time > 0
    assert complete_time >= transfer_time
    assert device.stats.writes_serviced == 1
    assert device.stats.pages_transferred == 1


def test_submit_when_queue_full_raises_busy():
    sim = Simulator()
    device = make_device(sim, profile="ufs")
    depth = device.profile.queue_depth

    def host():
        # Fill the queue faster than the device can drain it.
        accepted = 0
        rejected = 0
        for index in range(depth * 3):
            command = write_command(index, 1)
            try:
                device.submit(command)
                accepted += 1
            except DeviceBusyError:
                rejected += 1
        yield sim.timeout(0)
        return accepted, rejected

    accepted, rejected = run_host(sim, host())
    assert rejected > 0
    assert device.stats.busy_rejections == rejected
    assert accepted <= depth + 1  # at most one command already dequeued


def test_slot_available_event_fires_after_service():
    sim = Simulator()
    device = make_device(sim, profile="ufs")
    depth = device.profile.queue_depth

    def host():
        for index in range(depth):
            device.submit(write_command(index, 1))
        assert not device.queue.has_space
        yield device.slot_available()
        return device.queue.has_space

    assert run_host(sim, host())


def test_flush_makes_prior_writes_durable():
    sim = Simulator()
    device = make_device(sim)
    device.record_history()

    def host():
        first = write_command(0, 1, payload=[WrittenBlock("a", 1)])
        device.submit(first)
        yield first.transferred
        second = write_command(1, 1, payload=[WrittenBlock("b", 1)])
        device.submit(second)
        yield second.transferred
        flush = flush_command()
        device.submit(flush)
        yield flush.completed
        return None

    run_host(sim, host())
    durable_blocks = {entry.block for entry in device.cache.history if entry.is_durable}
    assert durable_blocks == {"a", "b"}
    assert device.stats.flushes_serviced == 1


def test_fua_write_is_durable_at_completion():
    sim = Simulator()
    device = make_device(sim)
    device.record_history()

    def host():
        command = write_command(
            0, 1, payload=[WrittenBlock("jc", 1)], flags=CommandFlag.FUA,
        )
        device.submit(command)
        yield command.completed
        return None

    run_host(sim, host())
    assert {entry.block for entry in device.cache.history if entry.is_durable} == {"jc"}
    assert device.stats.fua_writes == 1


def test_barrier_write_advances_epoch():
    sim = Simulator()
    device = make_device(sim)

    def host():
        first = write_command(
            0, 1, payload=[WrittenBlock("a", 1)],
            flags=CommandFlag.BARRIER, priority=CommandPriority.ORDERED,
        )
        device.submit(first)
        yield first.transferred
        second = write_command(1, 1, payload=[WrittenBlock("b", 1)])
        device.submit(second)
        yield second.transferred
        return first.epoch, second.epoch

    first_epoch, second_epoch = run_host(sim, host())
    assert first_epoch == 0
    assert second_epoch == 1
    assert device.stats.barrier_writes == 1


def test_legacy_device_ignores_barrier_flag():
    sim = Simulator()
    device = make_device(sim, barrier_mode=BarrierMode.NONE)

    def host():
        first = write_command(
            0, 1, payload=[WrittenBlock("a", 1)], flags=CommandFlag.BARRIER,
        )
        device.submit(first)
        yield first.transferred
        second = write_command(1, 1, payload=[WrittenBlock("b", 1)])
        device.submit(second)
        yield second.transferred
        return first.epoch, second.epoch

    first_epoch, second_epoch = run_host(sim, host())
    assert first_epoch == second_epoch == 0
    assert device.stats.barrier_writes == 0


def test_plp_device_durable_on_transfer():
    sim = Simulator()
    device = make_device(sim, profile="supercap-ssd")
    device.record_history()
    assert device.barrier_mode is BarrierMode.PLP

    def host():
        command = write_command(0, 1, payload=[WrittenBlock("a", 1)])
        device.submit(command)
        yield command.transferred
        return None

    run_host(sim, host())
    assert {entry.block for entry in device.cache.history if entry.is_durable} == {"a"}


def test_plp_flush_is_cheap_compared_to_plain():
    def flush_cycle(profile):
        sim = Simulator()
        device = make_device(sim, profile=profile)

        def host():
            start = sim.now
            command = write_command(0, 1, payload=[WrittenBlock("a", 1)])
            device.submit(command)
            yield command.transferred
            flush = flush_command()
            device.submit(flush)
            yield flush.completed
            return sim.now - start

        return run_host(sim, host())

    assert flush_cycle("supercap-ssd") < flush_cycle("plain-ssd") / 3


def test_in_order_writeback_serialises_epochs():
    def flush_latency(mode):
        sim = Simulator()
        device = make_device(sim, barrier_mode=mode)

        def host():
            for index, name in enumerate(["a", "b"]):
                command = write_command(
                    index, 1, payload=[WrittenBlock(name, 1)],
                    flags=CommandFlag.BARRIER, priority=CommandPriority.ORDERED,
                )
                device.submit(command)
                yield command.transferred
            start = sim.now
            flush = flush_command()
            device.submit(flush)
            yield flush.completed
            return sim.now - start

        return run_host(sim, host())

    serialised = flush_latency(BarrierMode.IN_ORDER_WRITEBACK)
    parallel = flush_latency(BarrierMode.IN_ORDER_RECOVERY)
    assert serialised > parallel * 1.5


def test_ordered_priority_preserves_transfer_order():
    sim = Simulator()
    device = make_device(sim, profile="plain-ssd", seed=13)
    transfer_order = []

    def watch(command, label):
        command.transferred.add_callback(lambda _e: transfer_order.append(label))

    def host():
        epoch_one = []
        for index in range(4):
            command = write_command(index, 1, payload=[WrittenBlock(f"e1-{index}", 1)])
            device.submit(command)
            watch(command, ("e1", index))
            epoch_one.append(command)
        barrier = write_command(
            10, 1, payload=[WrittenBlock("barrier", 1)],
            flags=CommandFlag.BARRIER, priority=CommandPriority.ORDERED,
        )
        device.submit(barrier)
        watch(barrier, ("barrier", 0))
        epoch_two = []
        for index in range(4):
            command = write_command(20 + index, 1, payload=[WrittenBlock(f"e2-{index}", 1)])
            device.submit(command)
            watch(command, ("e2", index))
            epoch_two.append(command)
        yield sim.all_of([command.completed for command in epoch_one + [barrier] + epoch_two])
        return None

    run_host(sim, host())
    labels = [label for label, _ in transfer_order]
    barrier_position = labels.index("barrier")
    assert all(label == "e1" for label in labels[:barrier_position])
    assert all(label == "e2" for label in labels[barrier_position + 1:])


def test_queue_depth_statistics_recorded():
    sim = Simulator()
    device = make_device(sim, track_queue_depth=True)

    def host():
        commands = [write_command(index, 1) for index in range(8)]
        for command in commands:
            device.submit(command)
        yield sim.all_of([command.completed for command in commands])
        return None

    run_host(sim, host())
    assert device.queue_depth_series is not None
    assert device.queue_depth_series.maximum >= 4
    assert device.stats.queue_depth.peak >= 4


def test_power_off_rejects_new_commands():
    sim = Simulator()
    device = make_device(sim)
    device.power_off()
    with pytest.raises(RuntimeError):
        device.try_submit(write_command(0, 1))


def test_crash_recovery_respects_barrier_epochs():
    sim = Simulator()
    device = make_device(sim, profile="plain-ssd")
    device.record_history()

    def host():
        # Epoch 0: a, b (b is the barrier).  Epoch 1: c.
        first = write_command(0, 1, payload=[WrittenBlock("a", 1)])
        device.submit(first)
        yield first.transferred
        barrier = write_command(
            1, 1, payload=[WrittenBlock("b", 1)],
            flags=CommandFlag.BARRIER, priority=CommandPriority.ORDERED,
        )
        device.submit(barrier)
        yield barrier.transferred
        second = write_command(2, 1, payload=[WrittenBlock("c", 1)])
        device.submit(second)
        yield second.transferred
        return None

    run_host(sim, host())
    device.power_off()
    state = recover_durable_blocks(device)
    durable = set(state.durable_blocks)
    # Epoch-prefix property: if anything from epoch 1 survived, all of epoch 0 did.
    if "c" in durable:
        assert {"a", "b"} <= durable
    assert state.barrier_mode is BarrierMode.IN_ORDER_RECOVERY


def test_requesting_barrier_mode_on_unsupported_device_fails():
    sim = Simulator()
    profile = get_profile("plain-ssd").with_overrides(supports_barrier=False)
    with pytest.raises(ValueError):
        StorageDevice(sim, profile, barrier_mode=BarrierMode.IN_ORDER_RECOVERY)
    # The legacy mode is still fine.
    StorageDevice(sim, profile, barrier_mode=BarrierMode.NONE)


@pytest.mark.parametrize(
    "mode",
    [
        BarrierMode.IN_ORDER_WRITEBACK,
        BarrierMode.IN_ORDER_RECOVERY,
        BarrierMode.TRANSACTIONAL,
    ],
)
def test_bare_fua_does_not_overtake_older_dirty_pages(mode):
    # A FUA without a pre-flush must not become durable ahead of a page
    # transferred before it: the ordering modes keep the durable set a
    # transfer-order prefix.
    sim = Simulator()
    device = make_device(sim, barrier_mode=mode)
    device.record_history()

    def host():
        plain = write_command(0, 1, payload=[WrittenBlock("a", 1)])
        device.submit(plain)
        yield plain.transferred
        fua = write_command(1, 1, payload=[WrittenBlock("b", 1)], flags=CommandFlag.FUA)
        device.submit(fua)
        yield fua.completed
        return [entry.is_durable for entry in device.cache.history]

    assert run_host(sim, host()) == [True, True]
    assert recover_durable_blocks(device).durable_blocks == {"a": 1, "b": 1}
