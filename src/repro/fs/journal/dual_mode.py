"""Dual-Mode Journaling (BarrierFS, Section 4.2 and 4.3).

The journal commit is split between two threads:

* the **commit thread** (control plane) waits for the conflict-page list to
  empty, turns the running transaction into a committing one, dispatches the
  ``JD`` and ``JC`` writes as order-preserving *barrier* requests — without
  waiting for any DMA or flush — and immediately moves on to the next
  transaction.  Callers that only need ordering (``fbarrier``) are woken at
  this point.
* the **flush thread** (data plane) picks up committing transactions in
  commit order once their ``JC`` has been transferred, issues a cache flush
  when some caller asked for durability (``fsync``), marks the transaction
  durable, resolves multi-transaction page conflicts and wakes the durability
  waiters.

Because the commit thread never waits on the storage, several transactions
can be committing (in flight) at once — the mechanism behind the journaling
throughput gains of Figs. 13–15.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.block.request import RequestFlag
from repro.fs.errors import EIOError, FilesystemPanicError
from repro.fs.journal.transaction import (
    CommitHistory,
    JournalTransaction,
    TransactionState,
)
from repro.simulation.resources import Condition, Store

#: JD's and JC's flags (built once, not per commit).
_ORDERED_BARRIER = RequestFlag.ORDERED | RequestFlag.BARRIER


class DualModeJournal(CommitHistory):
    """BarrierFS journaling: separate commit (control) and flush (data) threads."""

    def __init__(self, sim, filesystem):
        self.sim = sim
        self.fs = filesystem
        self._txids = itertools.count(1)
        self.running: JournalTransaction = self._new_transaction()
        #: Transactions dispatched but not yet durable, in commit order.
        self.committing_list: list[JournalTransaction] = []
        #: Conflict-page list: buffers waiting for a committing transaction
        #: to release them (name -> pending version).
        self.conflict_pages: dict[tuple, int] = {}
        self._commit_requested = Condition(sim, name="bfs.commit")
        self._conflicts_resolved = Condition(sim, name="bfs.conflicts")
        self._flush_queue = Store(sim, name="bfs.flushq")
        self.commits_dispatched = 0
        self.commits_durable = 0
        self.page_conflicts = 0
        self.max_committing_in_flight = 0
        #: Whether a durable commit failure aborted the journal.
        self.aborted = False
        sim.process(self._commit_thread(), name="bfs.commit-thread")
        sim.process(self._flush_thread(), name="bfs.flush-thread")

    def _new_transaction(self) -> JournalTransaction:
        return JournalTransaction(txid=next(self._txids)).attach(self.sim)

    # ------------------------------------------------------------------ buffers
    def add_buffer(self, name: tuple, version: int) -> None:
        """Add a metadata buffer to the running transaction.

        Unlike JBD2 the caller never blocks: a buffer held by a committing
        transaction goes to the conflict-page list and joins the running
        transaction when the flush thread releases it.
        """
        if self.aborted:
            raise EIOError("journal aborted")
        if self._buffer_held_by_committing(name):
            self.page_conflicts += 1
            pending = self.conflict_pages.get(name, 0)
            self.conflict_pages[name] = max(pending, version)
            return
        self.running.add_metadata(name, version)

    def _buffer_held_by_committing(self, name: tuple) -> bool:
        return any(
            txn.state is not TransactionState.DURABLE and txn.holds_buffer(name)
            for txn in self.committing_list
        )

    def add_ordered_data(self, name: tuple, version: int) -> None:
        """Record an ordered-mode data dependency on the running transaction."""
        self.running.add_ordered_data(name, version)

    # ------------------------------------------------------------------ commits
    def request_commit(
        self, *, durability: bool, force: bool = False
    ) -> Optional[JournalTransaction]:
        """Ask the commit thread to commit the running transaction."""
        if self.aborted:
            raise EIOError("journal aborted")
        txn = self.running
        if txn.is_empty and not self.conflict_pages and not force:
            return None
        txn.durability_requested = txn.durability_requested or durability
        txn.commit_requested = True
        self._commit_requested.notify_all()
        return txn

    def _commit_thread(self):
        while True:
            if self.aborted:
                return
            txn = self.running
            if not txn.commit_requested:
                yield self._commit_requested.wait()
                continue
            # The running transaction may only commit once every conflict
            # page has been handed back (Section 4.3).
            while self.conflict_pages and not self.aborted:
                yield self._conflicts_resolved.wait()
            if self.aborted:
                return
            self.running = self._new_transaction()
            txn.mark_committing(self.sim.now)
            self.committing_list.append(txn)
            self.max_committing_in_flight = max(
                self.max_committing_in_flight, len(self.committing_list)
            )

            block = self.fs.block
            descriptor = txn.descriptor_payload()
            jd_lba = self.fs.allocate_journal_lba(len(descriptor))
            jd_request = block.write(
                jd_lba, len(descriptor), payload=descriptor,
                flags=_ORDERED_BARRIER,
                issuer="commit-thread",
            )
            commit_payload = txn.commit_payload()
            jc_lba = self.fs.allocate_journal_lba(len(commit_payload))
            jc_request = block.write(
                jc_lba, len(commit_payload), payload=commit_payload,
                flags=_ORDERED_BARRIER,
                issuer="commit-thread",
            )
            txn.mark_dispatched(self.sim.now)
            self.commits_dispatched += 1
            self.fs.stats.journal_commits += 1
            self._flush_queue.put((txn, jd_request, jc_request))

    def _flush_thread(self):
        while True:
            txn, jd_request, jc_request = yield self._flush_queue.get()
            # The flush thread is triggered when JC has been transferred.
            yield jc_request.transferred
            error = jd_request.error or jc_request.error
            if error is None and txn.durability_requested:
                try:
                    yield from self.fs.issue_flush(issuer="flush-thread")
                except EIOError as failure:
                    error = failure.detail
            if error is not None:
                if self._commit_failed(txn, error):
                    return
                continue
            txn.mark_durable(self.sim.now)
            self.commits_durable += 1
            self._finished(txn)
            if txn in self.committing_list:
                self.committing_list.remove(txn)
            self._resolve_conflicts()

    def _commit_failed(self, txn: JournalTransaction, error: str) -> bool:
        """Handle a durably failed commit; returns True when the journal died.

        The failed transaction's waiters receive :class:`EIOError` through
        its completion events (no waiter deadlocks); the mount's ``errors=``
        behaviour then decides whether the journal keeps going.
        """
        txn.mark_failed(self.sim.now, error)
        self._finished(txn)
        if txn in self.committing_list:
            self.committing_list.remove(txn)
        behavior = self.fs.journal_failed(error)
        if behavior == "continue":
            self._resolve_conflicts()
            return False
        self._abort_journal()
        if behavior == "panic":
            raise FilesystemPanicError(
                f"journal commit of txn {txn.txid} failed: {error}"
            )
        return True

    def _abort_journal(self) -> None:
        """Stop both threads: fail every non-durable transaction and waiter."""
        self.aborted = True
        if self.running.state is TransactionState.RUNNING:
            self.running.mark_failed(self.sim.now, "journal-aborted")
        for txn in list(self.committing_list):
            if txn.state is TransactionState.COMMITTING:
                txn.mark_failed(self.sim.now, "journal-aborted")
        self.committing_list.clear()
        self.conflict_pages.clear()
        self._conflicts_resolved.notify_all()
        self._commit_requested.notify_all()

    def _resolve_conflicts(self) -> None:
        """Move conflict pages whose holders are all durable into the running
        transaction, and wake the commit thread when the list empties."""
        if not self.conflict_pages:
            self._conflicts_resolved.notify_all()
            return
        released = [
            name
            for name in self.conflict_pages
            if not self._buffer_held_by_committing(name)
        ]
        for name in released:
            self.running.add_metadata(name, self.conflict_pages.pop(name))
        if not self.conflict_pages:
            self._conflicts_resolved.notify_all()

    # ------------------------------------------------------------------ queries
    @property
    def committing_count(self) -> int:
        """Transactions currently in flight (dispatched, not yet durable)."""
        return len(self.committing_list)

    def in_flight(self) -> list[JournalTransaction]:
        """Unfinished transactions: the committing ones in order, then the running one."""
        return [*self.committing_list, self.running]
