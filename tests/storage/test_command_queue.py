"""Unit tests for the SCSI-style command queue."""

import pytest

from reference.builders import read_command, write_command
from repro.storage.command import CommandFlag, CommandPriority, WrittenBlock, flush_command
from repro.storage.command_queue import CommandQueue, CommandQueueFullError


def _write(lba, priority=CommandPriority.SIMPLE):
    return write_command(lba, 1, priority=priority)


def test_queue_respects_depth():
    queue = CommandQueue(depth=2)
    assert queue.try_insert(_write(0))
    assert queue.try_insert(_write(1))
    assert not queue.has_space
    assert not queue.try_insert(_write(2))
    with pytest.raises(CommandQueueFullError):
        queue.insert(_write(3))


def test_simple_commands_can_reorder():
    queue = CommandQueue(depth=8, seed=7)
    commands = [_write(index) for index in range(6)]
    for command in commands:
        queue.insert(command)
    serviced = [queue.select_next().lba for _ in range(6)]
    assert sorted(serviced) == list(range(6))
    # With this seed the controller exercises its freedom to reorder.
    assert serviced != list(range(6))


def test_ordered_command_acts_as_barrier():
    queue = CommandQueue(depth=8, seed=3)
    older = [_write(lba) for lba in (0, 1, 2)]
    barrier = _write(10, priority=CommandPriority.ORDERED)
    younger = [_write(lba) for lba in (20, 21)]
    for command in older + [barrier] + younger:
        queue.insert(command)

    serviced = [queue.select_next() for _ in range(6)]
    positions = {cmd.lba: index for index, cmd in enumerate(serviced)}
    # Everything older than the ordered command is serviced before it,
    # everything younger after it.
    for cmd in older:
        assert positions[cmd.lba] < positions[10]
    for cmd in younger:
        assert positions[cmd.lba] > positions[10]


def test_two_ordered_commands_preserve_epoch_order():
    queue = CommandQueue(depth=16, seed=11)
    epoch1 = [_write(lba) for lba in (0, 1)]
    barrier1 = _write(5, priority=CommandPriority.ORDERED)
    epoch2 = [_write(lba) for lba in (10, 11)]
    barrier2 = _write(15, priority=CommandPriority.ORDERED)
    for command in epoch1 + [barrier1] + epoch2 + [barrier2]:
        queue.insert(command)
    serviced = [queue.select_next().lba for _ in range(6)]
    assert set(serviced[:2]) == {0, 1}
    assert serviced[2] == 5
    assert set(serviced[3:5]) == {10, 11}
    assert serviced[5] == 15


def test_head_of_queue_preempts():
    queue = CommandQueue(depth=8, seed=1)
    queue.insert(_write(0))
    queue.insert(_write(1))
    flush = flush_command()
    assert flush.priority is CommandPriority.HEAD_OF_QUEUE
    queue.insert(flush)
    assert queue.select_next() is flush


def test_select_from_empty_queue_returns_none():
    queue = CommandQueue(depth=4)
    assert queue.select_next() is None


def test_pending_commands_snapshot_in_arrival_order():
    queue = CommandQueue(depth=4)
    first, second = _write(1), _write(2)
    queue.insert(first)
    queue.insert(second)
    assert list(queue) == [first, second]
    assert queue.occupancy == 2


def test_write_command_payload_defaults_to_anonymous_blocks():
    command = write_command(4, 3)
    assert len(command.payload) == 3
    assert all(block.version == 0 for block in command.payload)


def test_command_flag_predicates():
    command = write_command(
        0, 1,
        payload=[WrittenBlock("x", 1)],
        flags=CommandFlag.FUA | CommandFlag.FLUSH | CommandFlag.BARRIER,
    )
    assert command.is_fua and command.wants_preflush and command.is_barrier
    assert "FUA" in command.describe() and "BARRIER" in command.describe()
    assert read_command(0, 1).is_write is False
    assert flush_command().is_flush
