"""Fault-aware oracle degradation (``faults_permit`` and its composition)."""

from types import SimpleNamespace

import pytest

from repro.core.verification import ORACLES, CrashProbe, faults_permit
from repro.faults import FaultEvent
from repro.storage.barrier_modes import BarrierMode


def event(kind):
    return FaultEvent(kind=kind, site="program", site_index=1, time=0.0, detail="")


def probe(mode, *kinds, order_preserving=False):
    """A minimal probe: oracle predicates only read mode/stack/events."""
    return CrashProbe(
        state=SimpleNamespace(barrier_mode=mode),
        stack=SimpleNamespace(block=SimpleNamespace(order_preserving=order_preserving)),
        fault_events=tuple(event(kind) for kind in kinds),
    )


MEDIA = ("torn-write", "misdirected-write", "dropped-write", "latent-read-error")


class TestFaultsPermit:
    def test_no_fired_events_degrade_nothing(self):
        clean = probe(BarrierMode.IN_ORDER_WRITEBACK)
        assert faults_permit("journal-recovery", clean)
        assert faults_permit("epoch-prefix", clean)

    def test_host_side_oracle_is_immune_to_every_kind(self):
        for kind in MEDIA + ("flush-lie", "io-error"):
            assert faults_permit(
                "dispatch-epoch-order", probe(BarrierMode.NONE, kind)
            )

    @pytest.mark.parametrize("kind", MEDIA)
    def test_media_faults_guaranteed_only_under_in_order_recovery(self, kind):
        assert faults_permit(
            "epoch-prefix", probe(BarrierMode.IN_ORDER_RECOVERY, kind)
        )
        for mode in (
            BarrierMode.NONE,
            BarrierMode.IN_ORDER_WRITEBACK,
            BarrierMode.TRANSACTIONAL,
        ):
            assert not faults_permit("epoch-prefix", probe(mode, kind))

    def test_flush_lie_spares_order_preserving_stacks(self):
        # The barrier stack orders persistence by drain policy, not flushes.
        assert faults_permit(
            "journal-recovery",
            probe(BarrierMode.IN_ORDER_WRITEBACK, "flush-lie", order_preserving=True),
        )

    def test_flush_lie_spares_plp(self):
        # Durable-on-arrival: there is nothing left for the flush to lie about.
        assert faults_permit(
            "journal-recovery", probe(BarrierMode.PLP, "flush-lie")
        )

    def test_flush_lie_voids_flush_dependent_stacks(self):
        # EXT4's FLUSH|FUA commit protocol leans on the preflush actually
        # draining; a lied flush lets the commit record overtake its data.
        assert not faults_permit(
            "journal-recovery", probe(BarrierMode.NONE, "flush-lie")
        )
        assert not faults_permit(
            "storage-order-prefix",
            probe(BarrierMode.IN_ORDER_WRITEBACK, "flush-lie"),
        )

    def test_flush_lie_voids_durability_except_on_plp(self):
        # Acknowledged pages rest on the flush on every stack, the
        # order-preserving one included; only PLP has nothing to flush.
        for name in ("recovered-acked-prefix", "recovered-continuation-durability"):
            for mode in (BarrierMode.IN_ORDER_RECOVERY, BarrierMode.IN_ORDER_WRITEBACK):
                assert not faults_permit(
                    name, probe(mode, "flush-lie", order_preserving=True)
                )
            assert faults_permit(name, probe(BarrierMode.PLP, "flush-lie"))
            assert faults_permit(name, probe(BarrierMode.IN_ORDER_RECOVERY))
        # The ordering oracles keep their rule on the same probe.
        assert faults_permit(
            "journal-recovery",
            probe(BarrierMode.IN_ORDER_RECOVERY, "flush-lie", order_preserving=True),
        )

    def test_io_error_keeps_device_prefix_oracles(self):
        # An errored command transfers nothing, so the device's own
        # transfer/durable bookkeeping stays self-consistent.
        erratic = probe(BarrierMode.IN_ORDER_RECOVERY, "io-error")
        assert faults_permit("epoch-prefix", erratic)
        assert faults_permit("storage-order-prefix", erratic)
        assert not faults_permit("journal-recovery", erratic)
        assert not faults_permit("committed-log-prefix", erratic)


class TestOracleComposition:
    def test_registered_guarantee_degrades_under_fired_faults(self):
        oracle = ORACLES["journal-recovery"]
        clean = probe(BarrierMode.IN_ORDER_WRITEBACK)
        torn = probe(BarrierMode.IN_ORDER_WRITEBACK, "torn-write")
        assert oracle.guaranteed(clean)
        assert not oracle.guaranteed(torn)

    def test_degradation_needs_a_fired_event_not_just_a_plan(self):
        # faults_permit looks at FIRED events: a plan whose trigger never
        # matched (e.g. nth beyond the run) must not forfeit the guarantee.
        oracle = ORACLES["epoch-prefix"]
        assert oracle.guaranteed(probe(BarrierMode.IN_ORDER_WRITEBACK))

    def test_non_guaranteeing_mode_stays_non_guaranteeing(self):
        oracle = ORACLES["epoch-prefix"]
        assert not oracle.guaranteed(probe(BarrierMode.NONE, "torn-write"))
