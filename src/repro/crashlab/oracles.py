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

import heapq

from repro.apps.postgres import WAL_FILE as _PG_WAL_FILE
from repro.apps.rocksdb import MANIFEST_FILE as _ROCKSDB_MANIFEST
from repro.core.verification import (
    DURABLE,
    LOG_INODES,
    LOST,
    TRANSFERS,
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
    reads=(DURABLE, LOST, TRANSFERS, LOG_INODES),
)
class CommittedLogPrefixCheck(IncrementalCheck):
    """``committed-log-prefix`` over the high durable page per file.

    For each append-only file: a hole is a transferred page below the
    file's highest durable page with no durable version.  Every such page
    is in the state's lost set.  Each log file's transferred pages wait in
    a heap by page number until they turn out not to be holes (made
    durable, or some version of their page is), so the state passes iff
    the lowest page still waiting is at or above the high page; only a
    state that fails scans the lost set, to build the witness.
    """

    def __init__(self, probe: CrashProbe):
        super().__init__(probe)
        self.files = _append_log_files(probe)
        self.fs = probe.stack.fs
        self._versioned = hasattr(self.fs, "namespace_version")

    def restart(self) -> None:
        self._transferred_seen = 0
        #: inode -> durable data pages, and its highest one.
        self._durable: dict[int, set[int]] = {}
        self._high: dict[int, int] = {}
        #: inode of a log file -> heap of ``(page, transfer_seq)`` that may
        #: be holes; ``_logs`` lists ``(name, inode)`` of the log files.
        self._waiting: dict[int, list[tuple[int, int]]] = {}
        self._logs: list[tuple[str, int]] = []
        self._namespace = None
        #: The witness of the previous call, ``None`` if it passed.
        self._witness = None

    def _resolve(self) -> None:
        """Which inode each log file names now; new ones start waiting."""
        fs = self.fs
        self._logs = [
            (name, fs.open(name).inode.inode_no) for name in self.files if fs.exists(name)
        ]
        state = self.state
        lost = state.lost
        for _, inode_no in self._logs:
            if inode_no in self._waiting:
                continue
            state.folds += len(lost)
            heap = [
                (data[1], seq)
                for seq, entry in lost.items()
                if (data := _data_block(entry.block)) is not None and data[0] == inode_no
            ]
            heapq.heapify(heap)
            self._waiting[inode_no] = heap

    def check(self) -> None:
        state = self.state
        # Whether anything a hole depends on moved: a durable data page, a
        # newly waiting page, or a log file's inode.  Otherwise the
        # previous verdict stands.
        moved = False
        if state.durable_stamp != self.durable_stamp:
            new_durable = self.new_durable()  # may restart: bind after it
            durable, high = self._durable, self._high
            for entry in new_durable:
                block = entry.block
                if block[0] == "data":
                    moved = True
                    inode_no, page = block[1], block[2]
                    if inode_no in durable:
                        durable[inode_no].add(page)
                        if page > high[inode_no]:
                            high[inode_no] = page
                    else:
                        durable[inode_no] = {page}
                        high[inode_no] = page
        namespace = self.fs.namespace_version if self._versioned else None
        if namespace != self._namespace or namespace is None:
            self._namespace = namespace
            self._resolve()
            moved = True
        waiting = self._waiting
        new = state.history[self._transferred_seen:]
        if new:
            self._transferred_seen += len(new)
            state.folds += len(new)
            for entry in new:
                block = entry.block
                if block[0] == "data" and block[1] in waiting:
                    heapq.heappush(waiting[block[1]], (block[2], entry.transfer_seq))
                    moved = True
        if not moved:
            if self._witness is not None:
                raise VerificationError(self._witness)
            return

        self._witness = None
        durable, high = self._durable, self._high
        lost = state.lost
        for name, inode_no in self._logs:
            if inode_no not in durable:
                continue
            durable_pages = durable[inode_no]
            heap = waiting[inode_no]
            while heap:
                page, seq = heap[0]
                if seq in lost and page not in durable_pages:
                    break
                heapq.heappop(heap)
                state.folds += 1
            top = high[inode_no]
            if not heap or heap[0][0] >= top:
                continue
            state.folds += len(lost)
            holes = sorted({
                data[1]
                for entry in lost.values()
                if (data := _data_block(entry.block)) is not None
                and data[0] == inode_no
                and data[1] < top
                and data[1] not in durable_pages
            })
            self._witness = (
                f"committed-log prefix violated: {name} lost page {holes[0]} "
                f"({len(holes)} hole(s)) while page {top} is durable — a later "
                f"committed append survived an earlier one"
            )
            raise VerificationError(self._witness)
