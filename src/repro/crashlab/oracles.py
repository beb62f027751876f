"""Workload-level crash oracles.

The core oracle family (:mod:`repro.core.verification`) checks device- and
journal-level invariants.  This module adds what the *application* promised
its users: for WAL-style workloads, a transaction is committed once its log
append is acknowledged, so after a crash the durable part of an append-only
log file must be a hole-free prefix of the append order — a hole means a
committed transaction survived while an earlier committed transaction was
lost (the committed-transaction-prefix property for sqlite/mysql/postgres
WALs, the readable-version-history property for RocksDB's MANIFEST).

The oracle is registered into the same registry as the core family, so the
exploration engine picks it up wherever it applies; registration happens on
import (``repro.crashlab`` imports this module).
"""

from __future__ import annotations

from repro.apps.postgres import WAL_FILE as _PG_WAL_FILE
from repro.apps.rocksdb import MANIFEST_FILE as _ROCKSDB_MANIFEST
from repro.core.verification import (
    CrashProbe,
    IncrementalCheck,
    VerificationError,
    register_oracle,
)
from repro.scenarios.workloads import SyncLoopWorkload

#: Append-only log files per workload.  Only pure appends qualify — the
#: prefix check reasons in page order, which for an append-only file is the
#: commit order.  (SQLite's PERSIST rollback journal and the database files
#: are overwritten in place and are covered by the journal-recovery oracle
#: instead.)
APPEND_LOG_FILES: dict[str, tuple[str, ...]] = {
    "sync-loop": ("bench.dat",),
    "sqlite": ("sqlite/main.db-wal",),
    "mysql": ("mysql/ib_logfile0", "mysql/binlog.000001"),
    "postgres-wal": (_PG_WAL_FILE,),
    "rocksdb-compaction": (_ROCKSDB_MANIFEST,),
}


def _append_log_files(probe: CrashProbe) -> tuple[str, ...]:
    spec = probe.spec
    if spec is None or spec.workload not in APPEND_LOG_FILES:
        return ()
    if spec.workload == "sync-loop":
        workload = probe.workload
        if workload is None:  # a probe without its workload: parse the params
            workload = SyncLoopWorkload(**spec.params)
        if not workload.allocating:
            # A non-allocating sync-loop overwrites a preallocated file in a
            # round-robin pattern; there is no append order to check.
            return ()
    return APPEND_LOG_FILES[spec.workload]


def _data_block(block: object):
    """``(inode_no, page)`` of a ``("data", inode_no, page)`` block, else ``None``."""
    if isinstance(block, tuple) and len(block) == 3 and block[0] == "data":
        return block[1], block[2]
    return None


def _applies(probe: CrashProbe) -> bool:
    return bool(_append_log_files(probe)) and getattr(probe.stack, "fs", None) is not None


@register_oracle(
    "committed-log-prefix",
    description="append-only log files keep a committed-transaction prefix",
    applies=_applies,
)
class CommittedLogPrefixCheck(IncrementalCheck):
    """``committed-log-prefix`` over the high durable page per file.

    For each append-only file: a hole is a transferred page below the
    file's highest durable page with no durable version.  Every such page
    is in the state's lost set, so only the lost set is scanned, against
    per-file aggregates folded as pages are transferred and made durable.
    """

    def __init__(self, probe: CrashProbe):
        super().__init__(probe)
        self.files = _append_log_files(probe)
        self.fs = probe.stack.fs

    def restart(self) -> None:
        self._transferred_seen = 0
        #: Inodes with at least one transferred data page.
        self._transferred: set[int] = set()
        #: inode -> durable data pages, and its highest one.
        self._durable: dict[int, set[int]] = {}
        self._high: dict[int, int] = {}

    def check(self) -> None:
        new_durable = self.new_durable()
        state = self.state
        history = state.history
        for position in range(self._transferred_seen, len(history)):
            data = _data_block(history[position].block)
            if data is not None:
                self._transferred.add(data[0])
        state.folds += len(history) - self._transferred_seen
        self._transferred_seen = len(history)
        for entry in new_durable:
            data = _data_block(entry.block)
            if data is not None:
                inode_no, page = data
                self._durable.setdefault(inode_no, set()).add(page)
                if page > self._high.get(inode_no, -1):
                    self._high[inode_no] = page

        fs = self.fs
        for name in self.files:
            if not fs.exists(name):
                continue
            inode_no = fs.open(name).inode.inode_no
            durable_pages = self._durable.get(inode_no)
            if inode_no not in self._transferred or not durable_pages:
                continue
            high = self._high[inode_no]
            state.folds += len(state.lost)
            holes = sorted({
                data[1]
                for entry in state.lost.values()
                if (data := _data_block(entry.block)) is not None
                and data[0] == inode_no
                and data[1] < high
                and data[1] not in durable_pages
            })
            if holes:
                raise VerificationError(
                    f"committed-log prefix violated: {name} lost page {holes[0]} "
                    f"({len(holes)} hole(s)) while page {high} is durable — a later "
                    f"committed append survived an earlier one"
                )

