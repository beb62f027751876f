"""Journal transactions.

A transaction accumulates dirty metadata buffers while it is *running*; a
commit turns it into a *committing* transaction whose journal descriptor +
log blocks (``JD``) and commit block (``JC``) are written to the journal
area; it becomes *durable* when the device acknowledges that the commit
record is on stable storage (or, for ordering-only commits, when the commit
record has been dispatched under barrier protection).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.simulation.engine import Event, Simulator
from repro.simulation.history import recorded, start_history
from repro.storage.command import WrittenBlock


class TransactionState(enum.Enum):
    """Lifecycle of a journal transaction."""

    RUNNING = "running"
    COMMITTING = "committing"
    DURABLE = "durable"
    #: The commit failed durably (a journal write completed with an error);
    #: waiters receive :class:`repro.fs.errors.EIOError`.
    ABORTED = "aborted"


@dataclass
class JournalTransaction:
    """One journal transaction (the unit of filesystem journaling)."""

    txid: int
    state: TransactionState = TransactionState.RUNNING
    #: Dirty metadata buffers captured by this transaction: name -> version.
    metadata_buffers: dict[tuple, int] = field(default_factory=dict)
    #: Journaled data pages (OptFS selective data journaling / data=journal).
    journaled_data: dict[tuple, int] = field(default_factory=dict)
    #: Data pages this transaction depends on in ordered mode: name -> version.
    ordered_data: dict[tuple, int] = field(default_factory=dict)
    #: Whether some caller requires durability (fsync) and not just ordering.
    durability_requested: bool = False
    #: Whether a sync call asked the journal thread to commit this transaction.
    commit_requested: bool = False
    #: Simulation events for the two completion levels (they fire with no
    #: value: the transaction as its own events' value would be a cycle).
    dispatched_event: Optional[Event] = None
    durable_event: Optional[Event] = None
    #: Times recorded for reporting.
    commit_requested_at: Optional[float] = None
    dispatch_done_at: Optional[float] = None
    durable_at: Optional[float] = None
    #: Error status of an aborted commit (``None`` unless ABORTED).
    error: Optional[str] = None

    def attach(self, sim: Simulator) -> "JournalTransaction":
        """Create the completion events."""
        if self.dispatched_event is None:
            self.dispatched_event = sim.event(name=f"txn{self.txid}.dispatched")
            self.durable_event = sim.event(name=f"txn{self.txid}.durable")
        return self

    # -- content ------------------------------------------------------------
    def add_metadata(self, name: tuple, version: int) -> None:
        """Record a dirty metadata buffer (keeping the newest version)."""
        current = self.metadata_buffers.get(name)
        if current is None or version > current:
            self.metadata_buffers[name] = version

    def add_journaled_data(self, name: tuple, version: int) -> None:
        """Record a data page that travels inside the journal."""
        current = self.journaled_data.get(name)
        if current is None or version > current:
            self.journaled_data[name] = version

    def add_ordered_data(self, name: tuple, version: int) -> None:
        """Record a data page that must be durable before this commit."""
        current = self.ordered_data.get(name)
        if current is None or version > current:
            self.ordered_data[name] = version

    def holds_buffer(self, name: tuple) -> bool:
        """Whether this transaction currently owns the metadata buffer."""
        return name in self.metadata_buffers

    @property
    def is_empty(self) -> bool:
        """Whether the transaction carries no buffers at all."""
        return not self.metadata_buffers and not self.journaled_data

    # -- journal payload -------------------------------------------------------
    def descriptor_payload(self) -> list[WrittenBlock]:
        """Payload of the JD write: descriptor block plus one log block per buffer."""
        payload = [WrittenBlock(block=("jd", self.txid), version=self.txid)]
        for name, version in sorted(self.metadata_buffers.items(), key=str):
            payload.append(WrittenBlock(block=("log", self.txid, name), version=version))
        for name, version in sorted(self.journaled_data.items(), key=str):
            payload.append(
                WrittenBlock(block=("logdata", self.txid, name), version=version)
            )
        return payload

    def commit_payload(self) -> list[WrittenBlock]:
        """Payload of the JC write: the commit block."""
        return [WrittenBlock(block=("jc", self.txid), version=self.txid)]

    # -- state transitions ------------------------------------------------------
    def mark_committing(self, now: float) -> None:
        """RUNNING -> COMMITTING."""
        if self.state is not TransactionState.RUNNING:
            raise RuntimeError(f"transaction {self.txid} is not running")
        self.state = TransactionState.COMMITTING
        self.commit_requested_at = now

    def mark_dispatched(self, now: float) -> None:
        """Record that JD and JC have been dispatched (ordering point)."""
        self.dispatch_done_at = now
        if self.dispatched_event is not None and not self.dispatched_event.triggered:
            self.dispatched_event.succeed()

    def mark_durable(self, now: float) -> None:
        """COMMITTING -> DURABLE."""
        self.state = TransactionState.DURABLE
        self.durable_at = now
        if self.dispatched_event is not None and not self.dispatched_event.triggered:
            self.dispatched_event.succeed()
        if self.durable_event is not None and not self.durable_event.triggered:
            self.durable_event.succeed()

    def mark_failed(self, now: float, error: str) -> None:
        """-> ABORTED: fail both completion events so no waiter deadlocks.

        Every process blocked on (or later yielding) ``dispatched_event`` or
        ``durable_event`` has :class:`~repro.fs.errors.EIOError` thrown into
        it — the journal's failure surfaces at the issuing system call
        instead of being absorbed.
        """
        from repro.fs.errors import EIOError

        self.state = TransactionState.ABORTED
        self.error = error
        self.durable_at = None
        failure = EIOError(f"journal commit of txn {self.txid} failed: {error}")
        if self.dispatched_event is not None and not self.dispatched_event.triggered:
            self.dispatched_event.fail(failure)
        if self.durable_event is not None and not self.durable_event.triggered:
            self.durable_event.fail(failure)


class CommitHistory:
    """Journal mixin: finished transactions, kept only while recording.

    Crash recovery reads every transaction a journal finished; a plain run
    reads none, so the list exists only after :meth:`record_history`.
    """

    running: JournalTransaction
    _history: Optional[list[JournalTransaction]] = None

    def record_history(self) -> None:
        """Keep every finished transaction from now on (before the first commit)."""
        self._history = start_history(
            self._history, self.running.txid > 1, "the journal commit history"
        )

    @property
    def history(self) -> list[JournalTransaction]:
        """Durable and aborted transactions, in the order they finished."""
        return recorded(self._history, "the journal commit history")

    def _finished(self, txn: JournalTransaction) -> None:
        if self._history is not None:
            self._history.append(txn)
