"""JBD2-style journaling (stock EXT4).

One running transaction accumulates dirty metadata buffers; at most one
transaction commits at a time.  The commit path is the transfer-and-flush
sequence the paper analyses in Section 2.3:

``JD`` (descriptor + log blocks) is written and the JBD thread *waits for
its DMA transfer*; then ``JC`` (the commit block) is written with
``FLUSH|FUA`` and the thread waits for it to become durable.  With the
``nobarrier`` mount option the FLUSH/FUA is dropped and the thread only
waits for the transfer of ``JC``.

Page conflicts: a buffer that belongs to the committing transaction cannot
join the running transaction; the caller blocks until the commit finishes
(there is only ever one committing transaction, so the running transaction
is conflict-free when the commit ends).
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
from repro.simulation.resources import Condition

#: The commit block's flags with barriers on (built once, not per commit).
_FLUSH_FUA = RequestFlag.FLUSH | RequestFlag.FUA


class JBD2Journal(CommitHistory):
    """The EXT4 journaling thread and its transactions."""

    def __init__(self, sim, filesystem, *, use_flush_fua: bool = True):
        self.sim = sim
        self.fs = filesystem
        #: Whether the commit block is written with FLUSH|FUA (barrier on) or
        #: as a plain write (the ``nobarrier`` mount option).
        self.use_flush_fua = use_flush_fua
        self._txids = itertools.count(1)
        self.running: JournalTransaction = self._new_transaction()
        self.committing: Optional[JournalTransaction] = None
        self._commit_requested = Condition(sim, name="jbd2.commit")
        self._commit_finished = Condition(sim, name="jbd2.done")
        self.commits_done = 0
        self.page_conflicts = 0
        #: Whether a durable commit failure aborted the journal (the ext4
        #: ``errors=remount-ro`` half of the degradation story).
        self.aborted = False
        sim.process(self._jbd_thread(), name="jbd2")

    def _new_transaction(self) -> JournalTransaction:
        return JournalTransaction(txid=next(self._txids)).attach(self.sim)

    # ------------------------------------------------------------------ buffers
    def add_buffer(self, name: tuple, version: int):
        """Generator: add a metadata buffer to the running transaction.

        Blocks while the buffer is held by the committing transaction (the
        EXT4 page-conflict rule).
        """
        while (
            not self.aborted
            and self.committing is not None
            and self.committing.state is not TransactionState.DURABLE
            and self.committing.holds_buffer(name)
        ):
            self.page_conflicts += 1
            yield self._commit_finished.wait()
        if self.aborted:
            raise EIOError("journal aborted")
        self.running.add_metadata(name, version)

    def add_ordered_data(self, name: tuple, version: int) -> None:
        """Record an ordered-mode data dependency on the running transaction."""
        self.running.add_ordered_data(name, version)

    def add_journaled_data(self, name: tuple, version: int) -> None:
        """Record a data page that travels inside the journal (data=journal)."""
        self.running.add_journaled_data(name, version)

    # ------------------------------------------------------------------ commits
    def request_commit(
        self, *, durability: bool = True, force: bool = False
    ) -> Optional[JournalTransaction]:
        """Ask the JBD thread to commit the running transaction.

        Returns the transaction to wait on, or ``None`` when there is nothing
        to commit (and ``force`` is not set).
        """
        if self.aborted:
            raise EIOError("journal aborted")
        txn = self.running
        if txn.is_empty and not force:
            return None
        txn.durability_requested = txn.durability_requested or durability
        txn.commit_requested = True
        self._commit_requested.notify_all()
        return txn

    def _jbd_thread(self):
        while True:
            txn = self.running
            if not txn.commit_requested:
                yield self._commit_requested.wait()
                continue
            self.running = self._new_transaction()
            txn.mark_committing(self.sim.now)
            self.committing = txn
            yield from self._commit(txn)
            self.committing = None
            if txn.state is TransactionState.ABORTED:
                self._finished(txn)
                self._commit_finished.notify_all()
                behavior = self.fs.journal_failed(txn.error or "journal-io-error")
                if behavior == "continue":
                    continue
                self._abort_journal()
                if behavior == "panic":
                    raise FilesystemPanicError(
                        f"journal commit of txn {txn.txid} failed: {txn.error}"
                    )
                return
            self.commits_done += 1
            self._finished(txn)
            self._commit_finished.notify_all()

    def _abort_journal(self) -> None:
        """Stop committing: fail the running transaction so no waiter hangs."""
        self.aborted = True
        running = self.running
        if running is not None and running.state is TransactionState.RUNNING:
            running.mark_failed(self.sim.now, "journal-aborted")
        self._commit_finished.notify_all()
        self._commit_requested.notify_all()

    def _commit(self, txn: JournalTransaction):
        block = self.fs.block
        descriptor = txn.descriptor_payload()
        jd_lba = self.fs.allocate_journal_lba(len(descriptor))
        jd_request = block.write(
            jd_lba, len(descriptor), payload=descriptor, issuer="jbd2",
        )
        # Wait-on-Transfer between JD and JC.
        yield jd_request.transferred
        error = jd_request.error
        if error is not None:
            txn.mark_failed(self.sim.now, error)
            return

        commit_payload = txn.commit_payload()
        jc_lba = self.fs.allocate_journal_lba(len(commit_payload))
        jc_flags = _FLUSH_FUA if self.use_flush_fua else RequestFlag.NONE
        jc_request = block.write(
            jc_lba, len(commit_payload), payload=commit_payload,
            flags=jc_flags, issuer="jbd2",
        )
        if self.use_flush_fua:
            # FLUSH|FUA: completion implies the whole transaction is durable.
            yield jc_request.completed
        else:
            # nobarrier: the thread only waits for the DMA transfer.
            yield jc_request.transferred
        error = jc_request.error
        if error is not None:
            txn.mark_failed(self.sim.now, error)
            return
        txn.mark_dispatched(self.sim.now)
        txn.mark_durable(self.sim.now)
        self.fs.stats.journal_commits += 1

    # ------------------------------------------------------------------ queries
    @property
    def committing_count(self) -> int:
        """Number of transactions currently committing (0 or 1 for JBD2)."""
        return 0 if self.committing is None else 1

    def in_flight(self) -> list[JournalTransaction]:
        """Unfinished transactions: the committing one (if any), then the running one."""
        committing = self.committing
        return [self.running] if committing is None else [committing, self.running]
