"""Crash recovery hands out transfer-ordered lists without re-sorting them.

``recover_durable_blocks`` relies on the cache history being admitted in
strictly increasing ``transfer_seq`` and on every filter of it keeping that
order; only the FTL-log recovery output is sorted back.  Checked at every
crash boundary of a run under each barrier mode.
"""

import pytest

from repro.scenarios import ScenarioSpec, prepare_spec
from repro.storage.crash import recover_durable_blocks


def strictly_increasing(entries) -> bool:
    seqs = [entry.transfer_seq for entry in entries]
    return all(a < b for a, b in zip(seqs, seqs[1:]))


@pytest.mark.parametrize(
    "mode", ["none", "plp", "in-order-writeback", "transactional", "in-order-recovery"]
)
def test_history_and_recovered_lists_are_in_transfer_order(mode):
    spec = ScenarioSpec(
        workload="postgres-wal",
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode=mode,
        params={"commits": 8, "checkpoint_every": 3},
    )
    workload = prepare_spec(spec)
    device = workload.stack.device
    workload.stack.record_history()
    checked = []

    def check(kind, pages):
        history = device.written_history()
        state = recover_durable_blocks(device)
        checked.append(
            strictly_increasing(history)
            and strictly_increasing(state.durable)
            and state.transferred == history
        )

    device.crash_tap = check
    workload.run()
    assert checked and all(checked)
    assert len(device.written_history()) == device.cache.total_admitted
