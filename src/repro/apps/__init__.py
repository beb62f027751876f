"""Application workload models used in the paper's evaluation.

Each application is modelled at the system-call level: which files it
writes, how many pages per operation, and — crucially for this paper — how
many sync-family calls it issues per transaction and which of them only need
ordering rather than durability.

Every model is a :class:`repro.scenarios.workloads.Workload` registered in
:data:`repro.scenarios.workloads.WORKLOADS` under its scenario name, so it
runs through a :class:`repro.scenarios.ScenarioSpec` or directly::

    SQLiteWorkload(inserts=100, relax_durability=True).prepare(stack).run()

* :mod:`repro.apps.sqlite` (``sqlite``) — SQLite in PERSIST
  (rollback-journal) and WAL modes; four fdatasync() per insert in PERSIST
  mode, three of which are ordering-only (Section 5).
* :mod:`repro.apps.mysql` (``mysql``) — MySQL/InnoDB OLTP-insert
  (sysbench): redo-log and binlog fsync per transaction.
* :mod:`repro.apps.varmail` (``varmail``) — filebench varmail:
  metadata-heavy create/append/fsync/delete mail workload.
* :mod:`repro.apps.fxmark` (``fxmark``) — fxmark DWSL: per-thread private
  files, 4 KiB allocating write + fsync, used for the
  journaling-scalability experiment.
* :mod:`repro.apps.postgres` (``postgres-wal``) — PostgreSQL WAL writer:
  per-commit WAL append + fsync with periodic checkpoint write-back.
* :mod:`repro.apps.rocksdb` (``rocksdb-compaction``) — RocksDB memtable
  flushes and multi-file compactions: whole-file SST writes ordered before
  MANIFEST edits.
* :mod:`repro.apps.syncpolicy` — maps "durability" vs "ordering" guarantees
  onto the sync calls each filesystem offers (fsync/fdatasync vs
  fbarrier/fdatabarrier vs osync).
"""

from repro.apps.fxmark import FxmarkDWSL
from repro.apps.mysql import MySQLOLTPInsert
from repro.apps.postgres import PostgresWALWorkload
from repro.apps.rocksdb import RocksDBCompactionWorkload
from repro.apps.sqlite import SQLiteJournalMode, SQLiteWorkload
from repro.apps.syncpolicy import Guarantee, SyncPolicy
from repro.apps.varmail import VarmailWorkload

__all__ = [
    "FxmarkDWSL",
    "Guarantee",
    "MySQLOLTPInsert",
    "PostgresWALWorkload",
    "RocksDBCompactionWorkload",
    "SQLiteJournalMode",
    "SQLiteWorkload",
    "SyncPolicy",
    "VarmailWorkload",
]
