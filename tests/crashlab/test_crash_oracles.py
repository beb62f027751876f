"""The oracle registry and the individual invariant checks."""

from types import SimpleNamespace

import pytest

from reference.stub_device import crash_state, page, verify
from repro.core.verification import ORACLES, CrashProbe, VerificationError
from repro.fs.journal.transaction import JournalTransaction
from repro.crashlab import replay_to_point, record_boundaries
from repro.scenarios import ScenarioSpec


class TestStorageOrderPrefix:
    def test_prefix_passes(self):
        entries = [
            page(("data", 1, 0), 1, 0, 1, True),
            page(("data", 1, 1), 1, 0, 2, True),
            page(("data", 1, 2), 1, 1, 3, False),
        ]
        verify("storage-order-prefix", crash_state(entries))

    def test_hole_is_a_violation_with_witness(self):
        entries = [
            page(("data", 1, 0), 1, 0, 1, False),
            page(("data", 1, 1), 1, 0, 2, True),
        ]
        with pytest.raises(VerificationError, match="storage-order prefix violated"):
            verify("storage-order-prefix", crash_state(entries))

    def test_durable_overwrite_supersedes_the_lost_page(self):
        # v1 of the block was lost, but v2 — transferred later — survived:
        # the block's content is newer than the lost page, no violation.
        entries = [
            page(("data", 1, 0), 1, 0, 1, False),
            page(("data", 1, 0), 2, 0, 2, True),
            page(("data", 1, 1), 1, 0, 3, True),
        ]
        verify("storage-order-prefix", crash_state(entries))

    def test_empty_durable_set_is_vacuously_fine(self):
        entries = [page(("data", 1, 0), 1, 0, 1, False)]
        verify("storage-order-prefix", crash_state(entries))


class TestEpochPrefix:
    def test_linear_scan_finds_the_violation(self):
        entries = [
            page(("data", 1, 0), 1, 0, 1, False),
            page(("data", 1, 1), 1, 1, 2, True),
        ]
        with pytest.raises(VerificationError, match="epoch-prefix violated"):
            verify("epoch-prefix", crash_state(entries))

    def test_large_state_is_fast(self):
        # The O(n^2) form of this check took seconds at this size; the set
        # lookup makes it effectively linear.  A loose wall-clock bound
        # keeps the regression observable without being flaky.
        import time

        entries = [
            page(("data", 1, i), 1, 0, i + 1, i % 2 == 0) for i in range(20_000)
        ] + [page(("data", 1, 99_999), 1, 1, 20_001, True)]
        state = crash_state(entries)
        start = time.perf_counter()
        with pytest.raises(VerificationError):
            verify("epoch-prefix", state)
        assert time.perf_counter() - start < 0.5


def transaction(txid, *, data_version=1):
    """A committed transaction: one inode block, one ordered data page."""
    return JournalTransaction(
        txid=txid,
        metadata_buffers={("inode", 1): txid},
        ordered_data={("data", 1, txid): data_version},
        commit_requested_at=float(txid),
    )


def journal_pages(txid, durable):
    """The journal blocks of ``txid``: descriptor, logged inode, commit."""
    return [
        page(("jd", txid), 1, 0, 10 * txid, durable),
        page(("log", txid, ("inode", 1)), 1, 0, 10 * txid + 1, durable),
        page(("jc", txid), 1, 0, 10 * txid + 2, durable),
    ]


def verify_journal(entries, transactions):
    journal = SimpleNamespace(history=transactions, in_flight=lambda: [])
    stack = SimpleNamespace(fs=SimpleNamespace(journal=journal))
    verify("journal-recovery", crash_state(entries), stack=stack,
           transactions=transactions)


class TestJournalRecovery:
    def test_a_commit_prefix_with_durable_data_passes(self):
        entries = [
            page(("data", 1, 1), 1, 0, 1, True),
            *journal_pages(1, True),
            page(("data", 1, 2), 1, 0, 2, False),
            *journal_pages(2, False),
        ]
        verify_journal(entries, [transaction(1), transaction(2)])

    def test_a_later_commit_without_an_earlier_one_is_a_violation(self):
        entries = [
            page(("data", 1, 1), 1, 0, 1, True),
            page(("data", 1, 2), 1, 0, 2, True),
            *journal_pages(1, False),
            *journal_pages(2, True),
        ]
        with pytest.raises(
            VerificationError,
            match="transaction 2 is recoverable but earlier transaction 1 is not",
        ):
            verify_journal(entries, [transaction(1), transaction(2)])

    def test_ordered_data_must_be_durable_at_its_version(self):
        # Version 1 of the data page survived; the transaction needs v2.
        entries = [
            page(("data", 1, 1), 1, 0, 1, True),
            page(("data", 1, 1), 2, 0, 2, False),
            *journal_pages(1, True),
        ]
        with pytest.raises(
            VerificationError,
            match=r"transaction 1 is recoverable but its data block "
            r"\('data', 1, 1\) \(v2\) is not durable",
        ):
            verify_journal(entries, [transaction(1, data_version=2)])


class TestCommittedLogPrefix:
    def verify_wal(self, durable_pages, lost_pages):
        inode = SimpleNamespace(inode=SimpleNamespace(inode_no=1))
        stack = SimpleNamespace(
            fs=SimpleNamespace(exists=lambda name: True, open=lambda name: inode)
        )
        spec = SimpleNamespace(workload="sqlite", params={})
        entries = [
            page(("data", 1, number), 1, 0, number + 1, number in durable_pages)
            for number in sorted({*durable_pages, *lost_pages})
        ]
        verify("committed-log-prefix", crash_state(entries), stack=stack, spec=spec)

    def test_a_durable_prefix_passes(self):
        self.verify_wal(durable_pages={0, 1}, lost_pages={2, 3})

    def test_a_hole_right_below_the_high_page_is_a_violation(self):
        with pytest.raises(
            VerificationError,
            match=r"main.db-wal lost page 1 \(1 hole\(s\)\) while page 2 is durable",
        ):
            self.verify_wal(durable_pages={0, 2}, lost_pages={1})


class TestCrashStateViews:
    def test_durable_blocks_and_lost_set(self):
        entries = [
            page(("data", 1, 0), 1, 0, 1, True),
            page(("data", 1, 1), 1, 0, 2, False),
        ]
        state = crash_state(entries)
        assert state.durable_blocks == {("data", 1, 0): 1}
        assert list(state.lost) == [2]
        assert state.crash_time == 100.0


class TestRegistry:
    def test_core_and_workload_oracles_are_registered(self):
        assert {
            "epoch-prefix",
            "storage-order-prefix",
            "dispatch-epoch-order",
            "journal-recovery",
            "committed-log-prefix",
        } <= set(ORACLES)

    def test_duplicate_registration_is_rejected(self):
        from repro.core.verification import register_oracle

        with pytest.raises(ValueError, match="duplicate oracle"):
            register_oracle("epoch-prefix")(lambda probe: None)

    def test_applicability_on_a_bare_probe(self):
        probe = CrashProbe(state=crash_state([]))
        names = {oracle.name for oracle in ORACLES.values() if oracle.applies(probe)}
        # Without a stack, journal, dispatch log or spec only the two
        # device-level oracles apply.
        assert names == {"epoch-prefix", "storage-order-prefix"}


class TestWorkloadOracle:
    def test_committed_log_prefix_fires_on_legacy_sqlite_wal(self):
        spec = ScenarioSpec(
            workload="sqlite",
            config="EXT4-DR",
            barrier_mode="none",
            params={"inserts": 10, "journal_mode": "wal"},
        )
        boundaries = record_boundaries(spec)
        programs = [b.index for b in boundaries if b.kind == "program"]
        witnessed = False
        for index in programs:
            probe, _boundary = replay_to_point(spec, index)
            oracle = ORACLES["committed-log-prefix"]
            assert oracle.applies(probe)
            try:
                oracle.verify(probe)
            except VerificationError as error:
                assert "committed-log prefix violated" in str(error)
                assert "main.db-wal" in str(error)
                witnessed = True
                break
        assert witnessed, "legacy WAL drain order must eventually leave a hole"

    def test_committed_log_prefix_holds_on_barrier_device(self):
        spec = ScenarioSpec(
            workload="sqlite",
            config="BFS-OD",
            barrier_mode="in-order-recovery",
            params={"inserts": 6, "journal_mode": "wal"},
        )
        for boundary in record_boundaries(spec):
            probe, _ = replay_to_point(spec, boundary.index)
            ORACLES["committed-log-prefix"].verify(probe)
