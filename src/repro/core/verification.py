"""Correctness checks for the barrier-enabled IO stack.

Four families of invariants are verified (they back the unit/property
tests, the crash-consistency example and the :mod:`repro.crashlab`
exploration subsystem):

* **Epoch-prefix durability** — after a crash on a barrier-honouring device,
  if any page of epoch *k* survived then every page of every epoch < *k*
  survived (:func:`verify_epoch_prefix`).
* **Storage-order prefix** — the durable pages form a prefix of the transfer
  order, up to same-block overwrites (:func:`verify_storage_order_prefix`);
  this is the transfer-granularity form of the barrier guarantee and is what
  a legacy (``NONE``) device visibly breaks.
* **Scheduler/dispatch order** — the dispatch order never lets a request of
  a later epoch overtake an earlier epoch
  (:func:`verify_dispatch_preserves_epochs`).
* **Journal recovery** — the transactions recoverable from the durable
  journal blocks form a prefix of the commit order, and in ordered mode the
  data each recovered transaction references is itself durable
  (:func:`verify_journal_recovery`).

The module also hosts the **crash-oracle registry**: each invariant family
is wrapped as an :class:`Oracle` with an applicability predicate and a
*guaranteed* predicate (whether the stack × barrier-mode cell under test
actually promises the property — a violation on a cell that doesn't promise
it is an expected witness, not a bug).  :mod:`repro.crashlab` adds
workload-level oracles on top via :func:`register_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.block.request import BlockRequest
from repro.fs.journal.transaction import JournalTransaction
from repro.storage.barrier_modes import BarrierMode
from repro.storage.crash import CrashState


class VerificationError(AssertionError):
    """Raised when a run violates one of the paper's ordering guarantees."""


def verify_epoch_prefix(state: CrashState) -> None:
    """Check epoch-prefix durability of a crash state.

    Guaranteed by devices whose barrier mode orders persistence; for a
    legacy (``NONE``) device the property is expected to fail and a
    violation witnesses the legacy behaviour rather than a bug.
    """
    durable_epochs = {entry.epoch for entry in state.durable}
    if not durable_epochs:
        return
    max_durable_epoch = max(durable_epochs)
    durable_seqs = state.durable_seqs
    missing = [
        entry
        for entry in state.transferred
        if entry.epoch < max_durable_epoch and entry.transfer_seq not in durable_seqs
    ]
    if missing:
        raise VerificationError(
            f"epoch-prefix violated: epoch {max_durable_epoch} has durable pages "
            f"but {len(missing)} earlier-epoch pages were lost "
            f"(example: {missing[0].block} in epoch {missing[0].epoch})"
        )


def verify_storage_order_prefix(state: CrashState) -> None:
    """Check that the durable set is a prefix of the transfer order.

    A transferred page that did not survive is a violation if any page
    transferred *after* it is durable — unless a durable write of the same
    block carries at least its version (an overwrite supersedes the lost
    page).  This is the transfer-granularity barrier guarantee: all the
    ordering barrier modes drain the cache in transfer order (or atomically),
    so their durable sets are prefixes; the legacy ``NONE`` drain order is
    arbitrary and visibly breaks the property.
    """
    if not state.durable:
        return
    horizon = state.durable[-1].transfer_seq
    durable_seqs = state.durable_seqs
    newest_durable: dict[object, int] = {}
    for entry in state.durable:
        current = newest_durable.get(entry.block)
        if current is None or entry.version > current:
            newest_durable[entry.block] = entry.version
    for entry in state.transferred:
        if entry.transfer_seq >= horizon:
            break
        if entry.transfer_seq in durable_seqs:
            continue
        if newest_durable.get(entry.block, -1) >= entry.version:
            continue
        raise VerificationError(
            f"storage-order prefix violated: {entry.block} v{entry.version} "
            f"(transfer #{entry.transfer_seq}, epoch {entry.epoch}) was lost "
            f"while a later transfer (#{horizon}) is durable"
        )


def epoch_prefix_holds(state: CrashState) -> bool:
    """Boolean form of :func:`verify_epoch_prefix`."""
    try:
        verify_epoch_prefix(state)
    except VerificationError:
        return False
    return True


def verify_dispatch_preserves_epochs(dispatch_log: Sequence[BlockRequest]) -> None:
    """Check ``I = D`` at epoch granularity.

    In the barrier-enabled block layer requests may be reordered only within
    an epoch; the epoch numbers observed along the dispatch order must
    therefore be non-decreasing.
    """
    last_epoch = -1
    for request in dispatch_log:
        epoch = request.issue_epoch
        if epoch is None:
            continue
        if epoch < last_epoch:
            raise VerificationError(
                f"dispatch order violates epochs: {request.describe()} of epoch "
                f"{epoch} dispatched after epoch {last_epoch}"
            )
        last_epoch = max(last_epoch, epoch)


def recovered_transactions(
    state: CrashState, transactions: Iterable[JournalTransaction]
) -> list[JournalTransaction]:
    """Transactions whose commit record and every log block survived."""
    durable = state.durable_blocks
    recovered = []
    for txn in transactions:
        needed = [("jc", txn.txid), ("jd", txn.txid)]
        needed.extend(("log", txn.txid, name) for name in txn.metadata_buffers)
        needed.extend(("logdata", txn.txid, name) for name in txn.journaled_data)
        if all(block in durable for block in needed):
            recovered.append(txn)
    return sorted(recovered, key=lambda txn: txn.txid)


def verify_journal_recovery(
    state: CrashState,
    transactions: Sequence[JournalTransaction],
    *,
    ordered_mode: bool = True,
    require_commit_prefix: bool = True,
) -> list[JournalTransaction]:
    """Check the filesystem-journal invariants and return the recovered set.

    * the recovered transactions form a prefix of the commit (txid) order;
    * in ordered mode, every data page a recovered transaction references is
      durable with at least the referenced version.
    """
    ordered_txns = sorted(transactions, key=lambda txn: txn.txid)
    recovered = recovered_transactions(state, ordered_txns)
    recovered_ids = {txn.txid for txn in recovered}

    if require_commit_prefix and recovered:
        newest = max(recovered_ids)
        committed_before = [
            txn for txn in ordered_txns
            if txn.txid < newest and txn.commit_requested_at is not None
        ]
        for txn in committed_before:
            if txn.txid not in recovered_ids:
                raise VerificationError(
                    f"journal recovery violates commit order: transaction "
                    f"{newest} is recoverable but earlier transaction {txn.txid} is not"
                )

    if ordered_mode:
        durable = state.durable_blocks
        for txn in recovered:
            for name, version in txn.ordered_data.items():
                if durable.get(name, -1) < version:
                    raise VerificationError(
                        f"ordered-mode violation: transaction {txn.txid} is "
                        f"recoverable but its data block {name} (v{version}) is not durable"
                    )
    return recovered


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
    only read ``state``/``transactions``/``dispatch_log``, while workload
    oracles registered by :mod:`repro.crashlab` reach into the spec and the
    filesystem namespace.
    """

    #: Durable state reconstructed by ``recover_durable_blocks``.
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


@dataclass(frozen=True)
class Oracle:
    """One registered recovery invariant.

    ``check`` raises :class:`VerificationError` with a concrete witness when
    the invariant is violated.  ``applies`` says whether the oracle is
    meaningful for a probe at all; ``guaranteed`` says whether the cell under
    test (stack configuration × barrier mode) *promises* the property — a
    violation on a non-guaranteeing cell is an expected witness of legacy
    behaviour, not a checker failure.
    """

    name: str
    description: str
    check: Callable[[CrashProbe], None]
    applies: Callable[[CrashProbe], bool]
    guaranteed: Callable[[CrashProbe], bool]


#: Registered oracles by name (insertion order is the evaluation order).
ORACLES: dict[str, Oracle] = {}


#: Oracles that judge host-side state only — no injected storage fault can
#: break them, so their guarantee never degrades.
_FAULT_IMMUNE_ORACLES = frozenset({"dispatch-epoch-order"})

#: Oracles whose property is internal to the device's transfer/durable
#: bookkeeping (an errored command transfers nothing, so retries cannot
#: perturb them).
_DEVICE_PREFIX_ORACLES = frozenset({"epoch-prefix", "storage-order-prefix"})

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
      overtake unflushed data, so only an order-preserving block layer —
      whose drain policy orders persistence without flushes — or PLP keeps
      its promises.  This also voids the ``use_flush_fua`` rescue of the
      journal-recovery oracle.
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
    if "flush-lie" in kinds:
        order_preserving = bool(
            getattr(getattr(probe.stack, "block", None), "order_preserving", False)
        )
        if not order_preserving and mode is not BarrierMode.PLP:
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
):
    """Register a crash-recovery oracle; usable as a decorator.

    ``applies`` defaults to always-on, ``guaranteed`` to whether the barrier
    mode orders persistence (the paper's baseline promise).
    """

    def decorator(check: Callable[[CrashProbe], None]) -> Callable[[CrashProbe], None]:
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
        )
        return check

    return decorator


def applicable_oracles(probe: CrashProbe) -> list[Oracle]:
    """The registered oracles that apply to this probe, in registry order."""
    return [oracle for oracle in ORACLES.values() if oracle.applies(probe)]


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
    "epoch-prefix",
    description="durable epochs form a prefix of the persist-epoch order",
)
def _oracle_epoch_prefix(probe: CrashProbe) -> None:
    verify_epoch_prefix(probe.state)


@register_oracle(
    "storage-order-prefix",
    description="durable pages form a prefix of the transfer order",
)
def _oracle_storage_order_prefix(probe: CrashProbe) -> None:
    verify_storage_order_prefix(probe.state)


@register_oracle(
    "dispatch-epoch-order",
    description="dispatch order never reorders requests across epochs",
    applies=lambda probe: probe.dispatch_log is not None and len(probe.dispatch_log) > 0,
    guaranteed=lambda probe: True,
)
def _oracle_dispatch_epoch_order(probe: CrashProbe) -> None:
    verify_dispatch_preserves_epochs(probe.dispatch_log)


@register_oracle(
    "journal-recovery",
    description="recoverable transactions form a commit prefix with durable data",
    applies=lambda probe: len(probe.transactions) > 0,
    guaranteed=_journal_guaranteed,
)
def _oracle_journal_recovery(probe: CrashProbe) -> None:
    from repro.fs.mount import JournalMode

    config = getattr(probe.stack, "config", None)
    ordered = True
    if config is not None and getattr(config, "journal_mode", None) is not None:
        ordered = config.journal_mode is JournalMode.ORDERED
    verify_journal_recovery(probe.state, probe.transactions, ordered_mode=ordered)
