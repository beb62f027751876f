"""Injector semantics on real stacks: sites, damage, determinism, immunity."""

import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.scenarios import ScenarioSpec, prepare_spec
from repro.storage.barrier_modes import BarrierMode
from repro.storage.crash import recover_durable_blocks


def run_faulted(faults, *, config="EXT4-DR", barrier_mode="none", calls=8):
    """Run a small sync-loop under a fault plan; return the crashed workload."""
    spec = ScenarioSpec(
        workload="sync-loop",
        config=config,
        barrier_mode=barrier_mode,
        params=dict(calls=calls),
        faults=faults,
    )
    workload = prepare_spec(spec)
    workload.run()
    return workload


def injector_of(workload) -> FaultInjector:
    return workload.stack.device.fault_injector


class TestTriggers:
    def test_prepare_spec_installs_injector_only_when_faulted(self):
        faulted = run_faulted(["flush-lie:nth=1"])
        assert injector_of(faulted) is not None
        clean = run_faulted([])
        assert injector_of(clean) is None

    def test_nth_fires_exactly_once_at_that_site(self):
        workload = run_faulted(["flush-lie:nth=3"])
        events = injector_of(workload).events
        assert [event.site_index for event in events] == [3]
        assert events[0].site == "flush"

    def test_probability_zero_never_fires(self):
        workload = run_faulted(["torn-write:p=0"])
        assert injector_of(workload).fires == 0

    def test_max_fires_caps_injections(self):
        workload = run_faulted(["flush-lie:max=2"])
        assert injector_of(workload).fires == 2

    def test_unfired_arm_leaves_no_events(self):
        workload = run_faulted(["io-error:nth=10000"])
        assert injector_of(workload).events == []


class TestDeterminism:
    def test_same_plan_same_seed_reproduces_the_event_log(self):
        plan = ["torn-write:p=0.3", "flush-lie:p=0.2"]
        first = injector_of(run_faulted(plan)).events
        second = injector_of(run_faulted(plan)).events
        assert first == second
        assert first  # the plan actually fired

    def test_different_seeds_pick_different_sites(self):
        def sites(seed):
            spec = ScenarioSpec(
                workload="sync-loop",
                params=dict(calls=12),
                barrier_mode="none",
                seed=seed,
                faults=["torn-write:p=0.4"],
            )
            workload = prepare_spec(spec)
            workload.run()
            return [event.site_index for event in injector_of(workload).events]

        assert sites(0) != sites(1)

    def test_arm_streams_are_independent(self):
        # The torn arm's firing pattern must not shift when a second spec
        # rides in the same plan (each arm draws from its own stream).
        alone = injector_of(run_faulted(["torn-write:p=0.3"])).events
        paired = injector_of(run_faulted(["torn-write:p=0.3", "flush-lie:p=0.5"])).events
        torn = [event for event in paired if event.kind == "torn-write"]
        assert [event.site_index for event in torn] == [
            event.site_index for event in alone
        ]


class TestDamage:
    def damaged_entries(self, workload):
        device = workload.stack.device
        return [
            entry for entry in device.cache.all_entries() if entry.damage is not None
        ]

    def test_dropped_write_damages_exactly_one_page(self):
        workload = run_faulted(["dropped-write:nth=2"])
        damaged = self.damaged_entries(workload)
        assert [entry.damage for entry in damaged] == ["dropped"]
        # Silent fault: the device still believes the page is durable.
        assert damaged[0].is_durable

    def test_torn_write_damages_a_batch_suffix(self):
        workload = run_faulted(["torn-write:nth=1"])
        damaged = self.damaged_entries(workload)
        assert damaged and all(entry.damage == "torn" for entry in damaged)

    def test_misdirected_write_clobbers_a_victim(self):
        workload = run_faulted(["misdirected-write:nth=3"])
        kinds = sorted(entry.damage for entry in self.damaged_entries(workload))
        assert kinds == ["clobbered", "misdirected"]

    def test_first_damage_wins(self):
        workload = run_faulted(["dropped-write:nth=1", "latent-read-error:nth=1"])
        damaged = self.damaged_entries(workload)
        # Both arms fired at batch 1; whichever page both picked keeps its
        # first damage kind — no entry is double-marked.
        assert all(entry.damage in ("dropped", "latent") for entry in damaged)

    def test_recovery_excludes_damaged_pages(self):
        workload = run_faulted(["dropped-write:nth=2"])
        device = workload.stack.device
        [lost] = self.damaged_entries(workload)
        device.power_off()
        state = recover_durable_blocks(device)
        assert state.durable_blocks.get(lost.block) != lost.version


class TestModeInteractions:
    def test_plp_never_programs_so_media_faults_cannot_fire(self):
        workload = run_faulted(
            ["torn-write", "dropped-write"], config="BFS-DR", barrier_mode="plp"
        )
        assert injector_of(workload).fires == 0

    def test_in_order_recovery_truncates_at_first_damaged_entry(self):
        workload = run_faulted(
            ["dropped-write:nth=2"], config="BFS-DR", barrier_mode="in-order-recovery"
        )
        device = workload.stack.device
        device.power_off()
        state = recover_durable_blocks(device)
        # The IOR firmware rescans the flash log: everything from the damaged
        # page onward is discarded, so the surviving set is hole-free.
        damaged = [e for e in device.cache.all_entries() if e.damage is not None]
        assert damaged
        assert all(
            state.durable_blocks.get(entry.block) != entry.version
            for entry in damaged
        )

    def test_flush_lie_skips_the_drain(self):
        # A lied flush is acknowledged without draining the cache: right
        # after its completion the honest device is clean, the lying one
        # still holds transferred-but-volatile pages.
        def dirty_after_flush(faults):
            from repro.block import BlockDevice, BlockDeviceConfig
            from repro.simulation import Simulator
            from repro.storage import StorageDevice, get_profile

            sim = Simulator()
            device = StorageDevice(sim, get_profile("plain-ssd"))
            if faults:
                FaultInjector(faults, seed=0).install(device)
            block = BlockDevice(
                sim, device, BlockDeviceConfig(order_preserving=False)
            )

            def host():
                for index in range(4):
                    yield block.write(index * 8, 1, issuer="t").completed
                yield block.flush(issuer="t").completed
                return sum(
                    1 for entry in device.cache.all_entries()
                    if not entry.is_durable
                )

            return sim.run_until_complete(sim.process(host()), limit=10_000_000)

        assert dirty_after_flush([]) == 0
        assert dirty_after_flush(["flush-lie"]) > 0

    def test_injector_accepts_spec_objects_and_records_label(self):
        injector = FaultInjector([FaultSpec("torn-write", probability=0.5)], seed=1)
        assert injector.label == "torn-write:p=0.5"
        assert injector.fires == 0
