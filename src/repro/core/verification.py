"""Correctness checks for the barrier-enabled IO stack: the crash oracles.

Four families of invariants are checked against the crash state a power
cut leaves (:class:`repro.storage.crash.CrashState`); they back the unit
and property tests, the crash-consistency example and the
:mod:`repro.crashlab` exploration subsystem:

* **Epoch-prefix durability** (``epoch-prefix``) — after a crash on a
  barrier-honouring device, if any page of epoch *k* survived then every
  page of every epoch < *k* survived.
* **Storage-order prefix** (``storage-order-prefix``) — the durable pages
  form a prefix of the transfer order, up to same-block overwrites; this is
  the transfer-granularity form of the barrier guarantee and is what a
  legacy (``NONE``) device visibly breaks.
* **Scheduler/dispatch order** (``dispatch-epoch-order``) — the dispatch
  order never lets a request of a later epoch overtake an earlier epoch.
* **Journal recovery** (``journal-recovery``) — the transactions
  recoverable from the durable journal blocks form a prefix of the commit
  order, and (ordered mode) the data each recovered transaction
  references is itself durable.

Each invariant is one :class:`IncrementalCheck`, registered as an
:class:`Oracle` with an applicability predicate and a *guaranteed*
predicate (whether the stack × barrier-mode cell under test actually
promises the property — a violation on a cell that doesn't promise it is
an expected witness, not a bug), and with the inputs its check reads
(:data:`INPUTS`).  A check keeps its scan positions and partial results
between calls, so the exploration engine judges a run point after point
over one crash state advanced in step, and runs a check again only when
one of its inputs changed; a check built on a freshly folded state judges
that state alone.  :mod:`repro.crashlab` adds workload-level oracles on
top via :func:`register_oracle`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.block.request import BlockRequest
from repro.fs.journal.transaction import JournalTransaction
from repro.storage.barrier_modes import BarrierMode
from repro.storage.crash import CrashState


class VerificationError(AssertionError):
    """Raised when a run violates one of the paper's ordering guarantees."""


def _recoverable(txn: JournalTransaction, durable) -> bool:
    """Whether ``txn``'s commit record and every log block are in ``durable``."""
    txid = txn.txid
    if ("jc", txid) not in durable or ("jd", txid) not in durable:
        return False
    for name in txn.metadata_buffers:
        if ("log", txid, name) not in durable:
            return False
    for name in txn.journaled_data:
        if ("logdata", txid, name) not in durable:
            return False
    return True


def recovered_transactions(
    state: CrashState, transactions: Iterable[JournalTransaction]
) -> list[JournalTransaction]:
    """Transactions whose commit record and every log block survived."""
    durable = state.latest
    recovered = [txn for txn in transactions if _recoverable(txn, durable)]
    return sorted(recovered, key=lambda txn: txn.txid)


def journal_transactions(filesystem: object) -> list[JournalTransaction]:
    """Every journal transaction a filesystem has produced, by txid.

    Collects the commit history plus the journal's :meth:`in_flight`
    transactions at the moment of a crash (a committing transaction's
    commit record may already be durable even though the journal thread
    never finished its bookkeeping).  Returns ``[]`` for filesystems
    without a journal; raises
    :class:`~repro.simulation.history.HistoryNotRecordedError` when the
    journal did not record its history (``IOStack.record_history()``).
    """
    journal = getattr(filesystem, "journal", None)
    if journal is None:
        return []
    transactions = [*journal.history, *journal.in_flight()]
    unique = {txn.txid: txn for txn in transactions}
    return [unique[txid] for txid in sorted(unique)]


# --------------------------------------------------------------------------
# Crash-oracle registry
# --------------------------------------------------------------------------

@dataclass
class CrashProbe:
    """Everything an oracle may inspect about one crashed run.

    ``stack``, ``spec`` and ``workload`` are typed loosely because the
    scenario layer builds on the core, not the other way round; core oracles
    read ``state``, ``dispatch_log`` and the stack's journal, while workload
    oracles registered by :mod:`repro.crashlab` reach into the spec and the
    filesystem namespace.
    """

    #: The crash state, folded up to the power cut.
    state: CrashState
    #: The crashed :class:`repro.core.stack.IOStack` (or ``None``).
    stack: object = None
    #: The :class:`repro.scenarios.ScenarioSpec` that was replayed (or ``None``).
    spec: object = None
    #: The prepared workload instance (or ``None``).
    workload: object = None
    #: Journal transactions at crash time (see :func:`journal_transactions`).
    transactions: Sequence[JournalTransaction] = ()
    #: Block-layer dispatch log at crash time.
    dispatch_log: Sequence[BlockRequest] = ()
    #: Fault injections that fired before the crash
    #: (:class:`repro.faults.FaultEvent` records; empty when no injector ran).
    fault_events: Sequence[object] = ()

    @classmethod
    def from_stack(
        cls,
        state: CrashState,
        stack: object,
        *,
        spec: object = None,
        workload: object = None,
    ) -> "CrashProbe":
        """Assemble a probe from a crashed stack that recorded its history."""
        injector = getattr(getattr(stack, "device", None), "fault_injector", None)
        return cls(
            state=state,
            stack=stack,
            spec=spec,
            workload=workload,
            transactions=journal_transactions(getattr(stack, "fs", None)),
            dispatch_log=list(getattr(getattr(stack, "block", None), "dispatch_log", ())),
            fault_events=tuple(injector.events) if injector is not None else (),
        )


# What a check may read.  An oracle declares the inputs its check reads;
# the in-line judge runs the check again only when one of them changed
# since the previous point and otherwise keeps the previous verdict.

#: The durable set: ``state.durable`` and ``state.latest``.
DURABLE = "durable"
#: The lost set (``state.lost``), apart from pages joining its tail by
#: transfer: such a page is newer, in transfer order and (while
#: ``state.epochs_ordered`` holds) in epoch, than every page before it.
LOST = "lost"
#: The pages transferred since (``state.history``), which join the lost set.
TRANSFERS = "transfers"
#: The block layer's dispatch log (``probe.dispatch_log``).
DISPATCH_LOG = "dispatch-log"
#: The journal's transactions.  They change when one starts (the running
#: transaction is replaced), which is also when one is asked to commit,
#: and when one finishes; what the running transaction holds is not
#: tracked, since no commit record of it can be durable yet.
TRANSACTIONS = "transactions"
#: Which inode each file name resolves to (the filesystem namespace).
LOG_INODES = "log-inodes"
#: The fault injections that fired (``probe.fault_events``).
FAULTS = "faults"
#: Every input; an oracle that declares none is taken to read them all.
INPUTS = (DURABLE, LOST, TRANSFERS, DISPATCH_LOG, TRANSACTIONS, LOG_INODES, FAULTS)


@dataclass(frozen=True)
class Oracle:
    """One registered recovery invariant.

    ``check`` builds the oracle's :class:`IncrementalCheck` on a probe; its
    :meth:`~IncrementalCheck.check` raises :class:`VerificationError` with a
    concrete witness when the invariant is violated.  ``applies`` says
    whether the oracle is
    meaningful for a probe at all; ``guaranteed`` says whether the cell under
    test (stack configuration × barrier mode) *promises* the property — a
    violation on a non-guaranteeing cell is an expected witness of legacy
    behaviour, not a checker failure.  ``reads`` names the :data:`INPUTS`
    the check reads (see :func:`register_oracle`).
    """

    name: str
    description: str
    check: Callable[[CrashProbe], "IncrementalCheck"]
    applies: Callable[[CrashProbe], bool]
    guaranteed: Callable[[CrashProbe], bool]
    reads: frozenset = frozenset(INPUTS)

    def verify(self, probe: CrashProbe) -> None:
        """Judge ``probe``'s state alone; raises :class:`VerificationError`."""
        self.check(probe).check()


#: Registered oracles by name (insertion order is the evaluation order).
ORACLES: dict[str, Oracle] = {}


#: Oracles that judge host-side state only — no injected storage fault can
#: break them, so their guarantee never degrades.
_FAULT_IMMUNE_ORACLES = frozenset({"dispatch-epoch-order"})

#: Oracles whose property is internal to the device's transfer/durable
#: bookkeeping (an errored command transfers nothing, so retries cannot
#: perturb them).
_DEVICE_PREFIX_ORACLES = frozenset({"epoch-prefix", "storage-order-prefix"})

#: The durability oracles of the remount-and-continue judge
#: (:mod:`repro.recovery.judge`): acknowledged pages must survive a crash,
#: and a continuation's pages the next one.
ACKED_PREFIX_ORACLE = "recovered-acked-prefix"
CONTINUATION_ORACLE = "recovered-continuation-durability"
_DURABILITY_ORACLES = frozenset({ACKED_PREFIX_ORACLE, CONTINUATION_ORACLE})

#: Fault kinds that corrupt media pages at program time.
_MEDIA_FAULT_KINDS = frozenset(
    {"torn-write", "misdirected-write", "dropped-write", "latent-read-error"}
)


def faults_permit(oracle_name: str, probe: CrashProbe) -> bool:
    """Whether the faults that fired still allow ``oracle_name``'s guarantee.

    Composed into every registered oracle's ``guaranteed`` predicate: the
    cell promises the property only if its base predicate holds *and* none
    of the injected faults voids it.  The degradation rules (see
    ``docs/FAULTS.md`` for the full table):

    * **media faults** (torn/misdirected/dropped/latent) punch holes in the
      durable set; only the in-order-recovery firmware converts a hole into
      a clean log truncation, so every other mode forfeits the guarantee.
      (PLP never programs, so these faults cannot fire there at all.)
    * **flush lies** void any guarantee that leans on a flush: the
      transfer-and-flush (EXT4-style) stack lets a FLUSH|FUA commit record
      overtake unflushed data, so for the ordering oracles only an
      order-preserving block layer — whose drain policy orders persistence
      without flushes — or PLP keeps its promises.  This also voids the
      ``use_flush_fua`` rescue of the journal-recovery oracle.  Durability
      (the acknowledged-prefix oracles) rests on the flush on every stack,
      so a lied flush leaves it guaranteed only on PLP.
    * **io-errors** are invisible to device-internal prefix properties (a
      failed command transfers nothing) but the bounded retry path may
      reorder application-level appends, so journal- and workload-level
      oracles conservatively forfeit their guarantee.

    Only faults that actually *fired* before the crash point degrade the
    guarantee — a plan that never triggered leaves the cell's promise (and
    therefore ``unexpected`` accounting) intact.
    """
    events = probe.fault_events
    if not events:
        return True
    if oracle_name in _FAULT_IMMUNE_ORACLES:
        return True
    kinds = {getattr(event, "kind", None) for event in events}
    mode = probe.state.barrier_mode
    if kinds & _MEDIA_FAULT_KINDS and mode is not BarrierMode.IN_ORDER_RECOVERY:
        return False
    if "flush-lie" in kinds and mode is not BarrierMode.PLP:
        if oracle_name in _DURABILITY_ORACLES:
            return False
        order_preserving = bool(
            getattr(getattr(probe.stack, "block", None), "order_preserving", False)
        )
        if not order_preserving:
            return False
    if "io-error" in kinds and oracle_name not in _DEVICE_PREFIX_ORACLES:
        return False
    return True


def register_oracle(
    name: str,
    *,
    description: str = "",
    applies: Optional[Callable[[CrashProbe], bool]] = None,
    guaranteed: Optional[Callable[[CrashProbe], bool]] = None,
    reads: Iterable[str] = INPUTS,
):
    """Register a crash-recovery oracle; decorates its check class.

    ``applies`` defaults to always-on, ``guaranteed`` to whether the barrier
    mode orders persistence (the paper's baseline promise).  ``reads``
    names the :data:`INPUTS` the check reads; the in-line judge runs the
    check again only when one of them changed, so a check must read
    nothing else that can change during a run (its default, every input,
    is always safe).  ``applies`` and ``guaranteed`` may read the cell
    (spec, stack, barrier mode), the fired faults and whether the dispatch
    log and the journal's transactions are empty: the judge evaluates them
    once per cell and again only when one of those changes.
    """
    reads = frozenset(reads)
    unknown = reads - set(INPUTS)
    if unknown:
        raise ValueError(f"oracle {name!r} reads unknown inputs {sorted(unknown)}")

    def decorator(check: Callable[[CrashProbe], "IncrementalCheck"]):
        if name in ORACLES:
            raise ValueError(f"duplicate oracle name {name!r}")
        doc = (check.__doc__ or "").strip().splitlines()
        base_guaranteed = guaranteed or (
            lambda probe: probe.state.barrier_mode.orders_persistence
        )

        def guarded(probe: CrashProbe, _base=base_guaranteed, _name=name) -> bool:
            # Injected faults can void a promise the cell otherwise makes.
            return _base(probe) and faults_permit(_name, probe)

        ORACLES[name] = Oracle(
            name=name,
            description=description or (doc[0] if doc else name),
            check=check,
            applies=applies or (lambda probe: True),
            guaranteed=guarded,
            reads=reads,
        )
        return check

    return decorator


class IncrementalCheck:
    """One oracle's check over a probe's crash state, kept between calls.

    Built once per probe, on the first point the oracle applies at;
    :meth:`check` judges the state as it stands and raises
    :class:`VerificationError` with a witness.  A check is phrased over
    aggregates folded as the durable list grows (the state's newest
    durable epoch and horizon, the newest durable version per block, the
    high durable page per file, the unrecovered transactions) and decides
    a passing state from them and the oldest lost pages in O(pages
    changed since the last call); only a state that may fail is scanned in
    full, and that scan builds the witness.
    """

    def __init__(self, probe: CrashProbe):
        self.state = probe.state
        self.probe = probe
        self._generation = self.state.generation
        self._durable_seen = 0
        #: ``state.durable_stamp`` at the last :meth:`new_durable`: while
        #: it stands, nothing new is durable and no restart is due.
        self.durable_stamp = None
        self.restart()

    def restart(self) -> None:
        """Drop every folded result (the state's durable list changed)."""

    def new_durable(self) -> list:
        """Durable pages found since the last call; restarts when needed.

        Call it before reading any folded result: a restart replaces them.
        """
        state = self.state
        self.durable_stamp = state.durable_stamp
        if self._generation != state.generation:
            self._generation = state.generation
            self._durable_seen = 0
            self.restart()
        durable = state.durable
        seen = self._durable_seen
        self._durable_seen = end = len(durable)
        state.folds += end - seen
        return durable[seen:end]

    def check(self) -> None:
        raise NotImplementedError


@register_oracle(
    "epoch-prefix",
    description="durable epochs form a prefix of the persist-epoch order",
    reads=(DURABLE, LOST),
)
class EpochPrefixCheck(IncrementalCheck):
    """``epoch-prefix`` over the newest durable epoch and the lost set.

    Guaranteed by devices whose barrier mode orders persistence; for a
    legacy (``NONE``) device the property is expected to fail and a
    violation witnesses the legacy behaviour rather than a bug.  While
    epochs never go down along the transfer order
    (``state.epochs_ordered``), the oldest lost page carries the lowest
    lost epoch, so the state passes iff that epoch is at least the newest
    durable one (``state.newest_epoch``): one look instead of a scan of
    the lost set.  A newly transferred page is then in no earlier epoch
    than any durable page, so it is neither a violation nor part of a
    witness: the check does not read :data:`TRANSFERS`.
    """

    def check(self) -> None:
        state = self.state
        newest = state.newest_epoch
        if newest is None:
            return
        lost = state.lost
        if state.epochs_ordered:
            for seq in lost:
                state.folds += 1
                if lost[seq].epoch >= newest:
                    return
                break
            else:
                return
        state.folds += len(lost)
        missing = [entry for entry in lost.values() if entry.epoch < newest]
        if missing:
            raise VerificationError(
                f"epoch-prefix violated: epoch {newest} has durable pages "
                f"but {len(missing)} earlier-epoch pages were lost "
                f"(example: {missing[0].block} in epoch {missing[0].epoch})"
            )


@register_oracle(
    "storage-order-prefix",
    description="durable pages form a prefix of the transfer order",
    reads=(DURABLE, LOST),
)
class StorageOrderPrefixCheck(IncrementalCheck):
    """``storage-order-prefix`` over the durable horizon and the lost set.

    A lost page is a violation if a page transferred after it is durable
    (below ``state.horizon``), unless a durable write of the same block
    carries at least its version (an overwrite supersedes the lost page).
    The lost set is in transfer order, so the scan stops at the first lost
    page at or past the horizon: a passing prefix device costs one look,
    and the newest durable version per block is folded only when a lost
    page lies below the horizon.  A newly transferred page lies past the
    horizon, so the check does not read :data:`TRANSFERS`.
    """

    def restart(self) -> None:
        self.newest_version: dict[object, int] = {}

    def check(self) -> None:
        state = self.state
        horizon = state.horizon
        if horizon is None:
            return
        lost = state.lost
        newest_version = None
        for seq in lost:
            state.folds += 1
            if seq >= horizon:
                return
            if newest_version is None:
                new_durable = self.new_durable()
                newest_version = self.newest_version
                for entry in new_durable:
                    block = entry.block
                    if block not in newest_version or entry.version > newest_version[block]:
                        newest_version[block] = entry.version
            entry = lost[seq]
            block = entry.block
            if block in newest_version and newest_version[block] >= entry.version:
                continue
            raise VerificationError(
                f"storage-order prefix violated: {entry.block} v{entry.version} "
                f"(transfer #{entry.transfer_seq}, epoch {entry.epoch}) was lost "
                f"while a later transfer (#{horizon}) is durable"
            )


@register_oracle(
    "dispatch-epoch-order",
    description="dispatch order never reorders requests across epochs",
    applies=lambda probe: probe.dispatch_log is not None and len(probe.dispatch_log) > 0,
    guaranteed=lambda probe: True,
    reads=(DISPATCH_LOG,),
)
class DispatchEpochOrderCheck(IncrementalCheck):
    """``dispatch-epoch-order`` over the dispatch log, from where it stopped.

    ``I = D`` at epoch granularity: requests may be reordered only within
    an epoch, so the epoch numbers along the dispatch order never decrease.
    Host-side only, so no restart of the state touches it; the first
    violation of an append-only log stays the first violation.
    """

    def __init__(self, probe: CrashProbe):
        super().__init__(probe)
        self._position = 0
        self._last_epoch = -1
        self._violation = None

    def check(self) -> None:
        if self._violation is None:
            last_epoch = self._last_epoch
            position = self._position
            for request in self.probe.dispatch_log[position:]:
                position += 1
                epoch = request.issue_epoch
                if epoch is None:
                    continue
                if epoch < last_epoch:
                    self._violation = (request, epoch, last_epoch)
                    break
                if epoch > last_epoch:
                    last_epoch = epoch
            self.state.folds += position - self._position
            self._position, self._last_epoch = position, last_epoch
        if self._violation is not None:
            request, epoch, last_epoch = self._violation
            raise VerificationError(
                f"dispatch order violates epochs: {request.describe()} of epoch "
                f"{epoch} dispatched after epoch {last_epoch}"
            )


def _journal_guaranteed(probe: CrashProbe) -> bool:
    """Whether the cell promises journal-recovery consistency.

    Transfer-and-flush journaling (EXT4 with barriers, i.e. FLUSH|FUA on the
    commit record) is safe on any device; everything else — nobarrier EXT4,
    OptFS's osync, BarrierFS's dual-mode journal — relies on the device
    persisting in transfer order.
    """
    journal = getattr(getattr(probe.stack, "fs", None), "journal", None)
    if journal is not None and getattr(journal, "use_flush_fua", False):
        return True
    return probe.state.barrier_mode.orders_persistence


@register_oracle(
    "journal-recovery",
    description="recoverable transactions form a commit prefix with durable data",
    applies=lambda probe: len(probe.transactions) > 0,
    guaranteed=_journal_guaranteed,
    reads=(DURABLE, TRANSACTIONS),
)
class JournalRecoveryCheck(IncrementalCheck):
    """``journal-recovery`` over the unrecovered transactions.

    The recoverable transactions (commit record and every log block
    durable) must form a prefix of the commit order, and (ordered mode)
    every data page a recovered transaction references must be durable
    with at least the referenced version.  A committed transaction's
    content is frozen and the durable set only grows, so a recoverable
    transaction stays recoverable and a satisfied ordered-data dependency
    stays satisfied.  An unrecovered transaction can become recoverable
    only once its commit record is durable, so only those are looked at
    in full when the durable set grows; transactions are folded in once,
    when the journal's running transaction is replaced or one finishes.
    """

    def __init__(self, probe: CrashProbe):
        super().__init__(probe)
        self.journal = probe.stack.fs.journal
        self._finished = self.journal.history
        self._has_running = hasattr(self.journal, "running")

    def restart(self) -> None:
        #: The running transaction and the finished count when last folded.
        self._running = None
        self._finished_count = -1
        #: Every transaction up to this txid has been folded, and this
        #: many finished ones looked at.
        self._known = 0
        self._finished_folded = 0
        #: Transactions not recoverable yet, ascending by txid.
        self._unrecovered: dict[int, JournalTransaction] = {}
        self._newest: Optional[int] = None
        #: Unmet ordered-data dependencies of recovered transactions:
        #: ``(txid, position) -> (block, version)``, plus a per-block heap.
        self._unmet: dict[tuple[int, int], tuple[object, int]] = {}
        self._waiting: dict[object, list[tuple[int, int, int]]] = {}

    def _recover(self, txn: JournalTransaction, durable) -> None:
        """Record ``txn`` as recovered, with its unmet ordered-data pages."""
        txid = txn.txid
        if self._newest is None or txid > self._newest:
            self._newest = txid
        for position, (name, version) in enumerate(txn.ordered_data.items()):
            current = durable.get(name)
            if current is None or current.version < version:
                self._unmet[(txid, position)] = (name, version)
                heapq.heappush(self._waiting.setdefault(name, []), (version, txid, position))

    def _fold_transactions(self) -> None:
        """Add the transactions that appeared since the last fold."""
        known = self._known
        finished = self._finished[self._finished_folded:]
        self._finished_folded += len(finished)
        new = {
            txn.txid: txn
            for txn in [*finished, *self.journal.in_flight()]
            if txn.txid > known
        }
        self.state.folds += len(new)
        for txid in sorted(new):  # above every txid folded before
            self._unrecovered[txid] = new[txid]
            self._known = txid

    def check(self) -> None:
        state = self.state
        durable = state.latest
        grown = state.durable_stamp != self.durable_stamp
        if grown:
            new_durable = self.new_durable()
            waiting = self._waiting
            if waiting:
                unmet = self._unmet
                for entry in new_durable:
                    block = entry.block
                    if block in waiting:
                        heap = waiting[block]
                        version = durable[block].version
                        while heap and heap[0][0] <= version:
                            _, txid, position = heapq.heappop(heap)
                            del unmet[(txid, position)]
        running = self.journal.running if self._has_running else None
        finished = len(self._finished)
        if running is not self._running or finished != self._finished_count:
            self._running, self._finished_count = running, finished
            self._fold_transactions()
            grown = True
        unrecovered = self._unrecovered
        if grown:
            # A transaction turns recoverable only once its commit record
            # is durable, so only those are looked at in full.
            state.folds += len(unrecovered)
            ready = [txid for txid in unrecovered if ("jc", txid) in durable]
            for txid in ready:
                txn = unrecovered[txid]
                if _recoverable(txn, durable):
                    del unrecovered[txid]
                    self._recover(txn, durable)

        newest = self._newest
        if newest is not None:
            for txid in unrecovered:  # ascending
                state.folds += 1
                if txid >= newest:
                    break
                if unrecovered[txid].commit_requested_at is not None:
                    raise VerificationError(
                        f"journal recovery violates commit order: transaction "
                        f"{newest} is recoverable but earlier transaction "
                        f"{txid} is not"
                    )
        unmet = self._unmet
        if unmet:
            first = min(unmet)
            name, version = unmet[first]
            raise VerificationError(
                f"ordered-mode violation: transaction {first[0]} is "
                f"recoverable but its data block {name} (v{version}) is not durable"
            )
