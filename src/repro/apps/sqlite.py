"""SQLite workload model (Section 5 and Fig. 14).

SQLite is modelled at the level of its file accesses per insert transaction:

* **PERSIST (rollback journal) mode** — each transaction (1) appends the
  undo image to the rollback journal and syncs it, (2) updates the journal
  header and syncs it, (3) writes the modified B-tree pages to the database
  file and syncs them, and (4) resets the journal header with a final sync.
  Four sync calls per insert, of which only the last needs durability — the
  first three merely enforce the storage order, which is why the paper
  replaces them with ``fdatabarrier()``.
* **WAL mode** — each transaction appends the WAL frames and issues a single
  sync.

The workload reports inserts/second, matching Fig. 14's y-axis.
"""

from __future__ import annotations

import enum

from repro.apps.syncpolicy import Guarantee, SyncPolicy
from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult
from repro.simulation.stats import LatencyRecorder


class SQLiteJournalMode(enum.Enum):
    """SQLite journal mode."""

    PERSIST = "persist"
    WAL = "wal"


@WORKLOADS.register("sqlite")
class SQLiteWorkload(Workload):
    """Insert-only SQLite in PERSIST or WAL journal mode (Fig. 14)."""

    name = "sqlite"
    PARAMS = {
        "inserts": int,
        "journal_mode": SQLiteJournalMode,
        "relax_durability": bool,
        "pages_per_insert": int,
        "cpu_per_transaction": float,
    }

    def __init__(self, **params: object):
        super().__init__(**params)
        self.journal_mode = self.param("journal_mode", SQLiteJournalMode.PERSIST)
        self.relax_durability = self.param("relax_durability", False)
        self.pages_per_insert = self.param("pages_per_insert", 2)
        #: Host CPU work per insert (SQL parsing, B-tree update), microseconds.
        self.cpu_per_transaction = self.param("cpu_per_transaction", 80.0)

    def run(self) -> WorkloadResult:
        """Execute ``inserts`` transactions and report throughput."""
        inserts = self.param("inserts", self.scaled(120, 40))
        latencies = LatencyRecorder("insert")
        elapsed = self.stack.run_process(self._transactions(inserts, latencies))
        return WorkloadResult(
            workload=self.name,
            operations=inserts,
            elapsed_usec=elapsed,
            latencies=latencies,
            extra={"journal_mode": self.journal_mode.value},
        )

    # ------------------------------------------------------------------ internals
    def _transactions(self, num_inserts: int, latencies: LatencyRecorder):
        fs = self.stack.fs
        sim = self.stack.sim
        policy = SyncPolicy(fs, relax_durability=self.relax_durability)
        database = fs.create("sqlite/main.db", preallocate_pages=4096)
        journal = fs.create("sqlite/main.db-journal")
        wal = fs.create("sqlite/main.db-wal")
        db_page = 0

        start = sim.now
        for index in range(num_inserts):
            tx_start = sim.now
            if self.cpu_per_transaction > 0:
                yield sim.sleep(self.cpu_per_transaction)
            if self.journal_mode is SQLiteJournalMode.PERSIST:
                yield from self._persist_transaction(fs, policy, database, journal, db_page)
            else:
                yield from self._wal_transaction(fs, policy, wal)
            db_page = (db_page + self.pages_per_insert) % 4000
            latencies.record(sim.now - tx_start)
        return sim.now - start

    def _persist_transaction(self, fs, policy, database, journal, db_page: int):
        # (1) undo image appended to the rollback journal -> ordering sync.
        fs.write(journal, self.pages_per_insert)
        yield from policy.sync(journal, Guarantee.ORDERING, issuer="sqlite")
        # (2) journal header update -> ordering sync.
        fs.write(journal, 1, offset_page=0)
        yield from policy.sync(journal, Guarantee.ORDERING, issuer="sqlite")
        # (3) modified database pages -> ordering sync.
        fs.write(database, self.pages_per_insert, offset_page=db_page)
        yield from policy.sync(database, Guarantee.ORDERING, issuer="sqlite")
        # (4) journal header reset -> the transaction's durability point.
        fs.write(journal, 1, offset_page=0)
        yield from policy.sync(journal, Guarantee.DURABILITY, issuer="sqlite")

    def _wal_transaction(self, fs, policy, wal):
        # WAL mode: append the WAL frames and sync once per commit.
        fs.write(wal, self.pages_per_insert + 1)
        yield from policy.sync(wal, Guarantee.DURABILITY, issuer="sqlite")
