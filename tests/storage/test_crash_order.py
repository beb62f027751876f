"""The crash state's lists stay in transfer order without re-sorting.

:class:`repro.storage.crash.CrashState` relies on the cache history being
admitted in strictly increasing ``transfer_seq``: its lost set keeps
history order, and the storage-order check stops scanning it at the first
page past the durable horizon.  Checked at every crash boundary of a run
under each barrier mode, on a state advanced point to point.
"""

import pytest

from repro.scenarios import ScenarioSpec, prepare_spec
from repro.storage.crash import CrashState


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
    state = CrashState(device)
    checked = []

    def check(kind, pages):
        state.advance()
        checked.append(
            strictly_increasing(state.history)
            and strictly_increasing(state.lost.values())
        )

    device.crash_tap = check
    workload.run()
    assert checked and all(checked)
    assert len(device.cache.history) == device.cache.total_admitted
