"""Regression pins: fault-disabled runs match the seed, faulted runs shard.

``golden_tables_scale02.json`` is the full eleven-table experiment output at
scale 0.2, captured from the tree *before* the fault subsystem landed.  The
injection hooks are plain ``is None`` attribute tests on the hot path, so a
run with no faults configured must remain bit-identical to that capture.
"""

import json
from pathlib import Path

from repro.experiments.runner import run_all
from repro.scenarios import ScenarioSpec, prepare_spec, sweep, sweep_table

GOLDEN = Path(__file__).parent / "golden_tables_scale02.json"


def test_fault_disabled_tables_match_the_pre_fault_golden_capture():
    golden = json.loads(GOLDEN.read_text())
    results = [result.to_dict() for result in run_all(0.2, jobs=4)]
    assert [table["name"] for table in results] == [
        table["name"] for table in golden
    ]
    for produced, expected in zip(results, golden):
        assert produced == expected, f"table {expected['name']} drifted"


class TestFaultSiteReproducibility:
    PLAN = ("torn-write:p=0.3", "flush-lie:p=0.2", "io-error:nth=2")

    def spec(self, seed=0):
        return ScenarioSpec(
            workload="sync-loop",
            barrier_mode="none",
            seed=seed,
            params=dict(calls=10),
            faults=self.PLAN,
        )

    def events(self, spec):
        workload = prepare_spec(spec)
        workload.run()
        return tuple(workload.stack.device.fault_injector.events)

    def test_rebuilt_injector_reproduces_the_event_log(self):
        assert self.events(self.spec()) == self.events(self.spec())

    def test_seeds_shift_the_fault_sites(self):
        assert self.events(self.spec(0)) != self.events(self.spec(7))

    def test_faulted_sweep_is_bit_identical_across_jobs(self):
        specs = sweep(
            workloads=["sync-loop"],
            barrier_modes=["none", "in-order-recovery"],
            configs=["EXT4-DR"],
            seeds=[0, 1],
            params=dict(calls=8),
            faults=self.PLAN,
        )
        # EXT4-DR tolerates every mode here; the point is the sharding.
        serial = sweep_table(specs, jobs=1)
        sharded = sweep_table(specs, jobs=4)
        assert serial.rows == sharded.rows
        assert all(label != "-" for label in serial.column("faults"))
