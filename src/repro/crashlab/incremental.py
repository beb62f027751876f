"""Incremental crash judging: each point from the previous point's state.

Barrier epochs make durability advance in transfer order, and in-order
recovery keeps the programmed prefix of the FTL log, so the crash state at
boundary *k* is the state at *k − 1* plus a few pages.  The in-line
verifier therefore keeps one :class:`CrashTracker` per run and advances it
at every judged boundary by that boundary's delta:

* the pages newly transferred (the tail of the device-cache history) join
  the *lost set* — transferred, not (yet) durable, in transfer order;
* the pages newly durable leave it: lost pages the device has programmed
  undamaged, or — under in-order recovery — the entries by which the FTL
  log's programmed prefix grew since the last point.

The durable set only grows, while the lost set stays bounded by the
device's dirty and in-flight window plus damaged pages.  Every registered
oracle has an incremental form here (:data:`INCREMENTAL_CHECKS`) that
keeps its scan positions and partial results between points and is
phrased over the lost set plus aggregates kept as durability advances: the
newest durable epoch, the newest durable version per block, the high
durable page per file, the unrecovered-transaction frontier.  The
dispatch log and the journal's transactions are folded the same way, from
where the previous point stopped.  A point then costs O(pages changed
since the last judged point + lost set), not O(history).

Two events break that monotonicity: an FTL garbage-collection run (it
relocates pages and drops stale log segments) and a misdirected write
(it damages a page that was already durable).  When either happened since
the last judged point the tracker starts over from the whole history, and
so does every incremental check; a durable version of a block going down
(a newer transfer of an older version) restarts the checks alone.  Each
restart counts in :attr:`CrashTracker.rebuilds`.

The from-scratch reference — :func:`repro.storage.crash.recover_durable_blocks`
and the ``verify_*`` functions of :mod:`repro.core.verification` — is not
used here; ``tests/crashlab/test_inline_equivalence.py`` pins every
incremental verdict to it.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from functools import partial
from typing import Callable, Optional

from repro.core.verification import (
    ORACLES,
    CrashProbe,
    Oracle,
    VerificationError,
    journal_transactions,
)
from repro.crashlab.report import OracleVerdict
from repro.storage.crash import recover_durable_blocks


class CrashTracker:
    """The crash state of a running device, advanced point by point.

    ``lost`` maps the transfer sequence of every transferred page that
    would not survive a power cut now to its cache entry, in transfer
    order.  ``durable`` lists the pages that would, in the order they were
    found durable; ``latest`` maps each durable block to its entry with the
    highest transfer sequence (what :attr:`CrashState.durable_blocks`
    reads).  ``generation`` changes whenever ``durable`` stops being an
    append-only list — the incremental checks start over when it does.
    """

    def __init__(self, device):
        self.device = device
        self.barrier_mode = device.barrier_mode
        self.history = device.cache.history
        #: The FTL whose log prefix is the durable set; the device keeps
        #: one only under in-order recovery (with history recorded).
        self._log = device.ftl
        #: Rebuilds from the whole history (and restarts of the checks).
        self.rebuilds = 0
        #: Entries folded or scanned so far, by the tracker and the checks:
        #: the deterministic work counter of a check.
        self.folds = 0
        self.generation = 0
        self._gc_runs = self._log.gc_runs if self._log is not None else 0
        self._events = 0
        self._reset()

    def _reset(self) -> None:
        self.generation += 1
        self.lost: dict[int, object] = {}
        self.durable: list = []
        self.latest: dict[object, object] = {}
        self._seen = 0
        self._segment = 0
        self._offset = 0
        self._log_ended = False

    def _broken(self) -> bool:
        """Whether durable pages may have been lost since the last point."""
        broken = False
        if self._log is not None and self._log.gc_runs != self._gc_runs:
            self._gc_runs = self._log.gc_runs
            broken = True
        injector = self.device.fault_injector
        if injector is not None and len(injector.events) != self._events:
            events = injector.events
            broken = broken or any(
                event.kind == "misdirected-write" for event in events[self._events:]
            )
            self._events = len(events)
        return broken

    def advance(self) -> None:
        """Fold everything that changed since the previous call."""
        if self._broken() and self._seen:
            self.rebuilds += 1
            self._reset()
        history = self.history
        lost = self.lost
        seen = self._seen
        for position in range(seen, len(history)):
            entry = history[position]
            lost[entry.transfer_seq] = entry
        self._seen = len(history)
        self.folds += self._seen - seen
        if self._log is not None:
            self._scan_log()
            return
        found = [
            entry
            for entry in lost.values()
            if entry.durable_time is not None and entry.damage is None
        ]
        self.folds += len(lost)
        for entry in found:
            self._make_durable(entry)

    def _scan_log(self) -> None:
        """Extend the recovered FTL-log prefix from where it stopped.

        The same scan as the LFS recovery: programmed pages in log order
        up to the first hole, duplicates (GC relocations) skipped, and
        nothing past the first damaged page.
        """
        if self._log_ended:
            return
        order = self._log.segment_order
        segments = self._log.segments
        lost = self.lost
        index, offset = self._segment, self._offset
        scanned = 0
        while index < len(order):
            segment = segments[order[index]]
            entries = segment.entry_column
            programmed = segment.programmed_column
            end = len(entries)
            while offset < end and programmed[offset] == programmed[offset]:  # NaN: hole
                entry = entries[offset]
                offset += 1
                scanned += 1
                if entry.transfer_seq not in lost:  # already durable
                    continue
                if entry.damage is not None:
                    self._log_ended = True
                    self.folds += scanned
                    return
                self._make_durable(entry)
            if offset < end or index + 1 == len(order):
                break
            index += 1
            offset = 0
        self._segment, self._offset = index, offset
        self.folds += scanned

    def _make_durable(self, entry) -> None:
        seq = entry.transfer_seq
        del self.lost[seq]
        self.durable.append(entry)
        current = self.latest.get(entry.block)
        if current is None or seq > current.transfer_seq:
            if current is not None and entry.version < current.version:
                # A block's durable version went down: the checks' folded
                # "satisfied" results may no longer hold.
                self.generation += 1
                self.rebuilds += 1
            self.latest[entry.block] = entry


class IncrementalCheck:
    """Incremental form of one registered oracle.

    Built once per run, on the first point the oracle applies at, from the
    tracker and the run's in-line probe; :meth:`check` raises
    :class:`VerificationError` with the witness the oracle's from-scratch
    form would give for the current crash state.
    """

    def __init__(self, tracker: CrashTracker, probe: CrashProbe):
        self.tracker = tracker
        self.probe = probe
        self._generation = tracker.generation
        self._durable_seen = 0
        self.restart()

    def restart(self) -> None:
        """Drop every folded result (the tracker's durable list changed)."""

    def new_durable(self) -> list:
        """Durable pages found since the last call; restarts when needed.

        Call it before reading any folded result: a restart replaces them.
        """
        tracker = self.tracker
        if self._generation != tracker.generation:
            self._generation = tracker.generation
            self._durable_seen = 0
            self.restart()
        durable = tracker.durable
        new = durable[self._durable_seen:]
        self._durable_seen = len(durable)
        tracker.folds += len(new)
        return new

    def check(self) -> None:
        raise NotImplementedError


class EpochPrefixCheck(IncrementalCheck):
    """``epoch-prefix`` over the newest durable epoch and the lost set."""

    def restart(self) -> None:
        self.max_epoch: Optional[int] = None

    def check(self) -> None:
        for entry in self.new_durable():
            if self.max_epoch is None or entry.epoch > self.max_epoch:
                self.max_epoch = entry.epoch
        newest = self.max_epoch
        if newest is None:
            return
        lost = self.tracker.lost
        self.tracker.folds += len(lost)
        missing = [entry for entry in lost.values() if entry.epoch < newest]
        if missing:
            raise VerificationError(
                f"epoch-prefix violated: epoch {newest} has durable pages "
                f"but {len(missing)} earlier-epoch pages were lost "
                f"(example: {missing[0].block} in epoch {missing[0].epoch})"
            )


class StorageOrderPrefixCheck(IncrementalCheck):
    """``storage-order-prefix`` over the durable horizon and the lost set."""

    def restart(self) -> None:
        self.horizon: Optional[int] = None
        self.newest_version: dict[object, int] = {}

    def check(self) -> None:
        new_durable = self.new_durable()
        newest_version = self.newest_version
        for entry in new_durable:
            if self.horizon is None or entry.transfer_seq > self.horizon:
                self.horizon = entry.transfer_seq
            if entry.version > newest_version.get(entry.block, -1):
                newest_version[entry.block] = entry.version
        horizon = self.horizon
        if horizon is None:
            return
        tracker = self.tracker
        for entry in tracker.lost.values():
            tracker.folds += 1
            if entry.transfer_seq >= horizon:
                return
            if newest_version.get(entry.block, -1) >= entry.version:
                continue
            raise VerificationError(
                f"storage-order prefix violated: {entry.block} v{entry.version} "
                f"(transfer #{entry.transfer_seq}, epoch {entry.epoch}) was lost "
                f"while a later transfer (#{horizon}) is durable"
            )


class DispatchEpochOrderCheck(IncrementalCheck):
    """``dispatch-epoch-order`` over the dispatch log, from where it stopped.

    Host-side only, so no tracker restart touches it; the first violation
    of an append-only log stays the first violation.
    """

    def __init__(self, tracker: CrashTracker, probe: CrashProbe):
        super().__init__(tracker, probe)
        self._position = 0
        self._last_epoch = -1
        self._violation = None

    def check(self) -> None:
        if self._violation is None:
            log = self.probe.dispatch_log
            last_epoch = self._last_epoch
            position = self._position
            while position < len(log):
                request = log[position]
                position += 1
                epoch = request.issue_epoch
                if epoch is None:
                    continue
                if epoch < last_epoch:
                    self._violation = (request, epoch, last_epoch)
                    break
                last_epoch = max(last_epoch, epoch)
            self.tracker.folds += position - self._position
            self._position, self._last_epoch = position, last_epoch
        if self._violation is not None:
            request, epoch, last_epoch = self._violation
            raise VerificationError(
                f"dispatch order violates epochs: {request.describe()} of epoch "
                f"{epoch} dispatched after epoch {last_epoch}"
            )


class JournalRecoveryCheck(IncrementalCheck):
    """``journal-recovery`` over the unrecovered-transaction frontier.

    A committed transaction's content is frozen and the durable set only
    grows, so a recoverable transaction stays recoverable and a satisfied
    ordered-data dependency stays satisfied; only the frontier (finished
    transactions not yet recoverable, plus the ones in flight) and the
    unmet dependencies of recovered transactions are looked at again.
    """

    def __init__(self, tracker: CrashTracker, probe: CrashProbe):
        super().__init__(tracker, probe)
        from repro.fs.mount import JournalMode

        self.journal = probe.stack.fs.journal
        config = getattr(probe.stack, "config", None)
        self.ordered = True
        if config is not None and getattr(config, "journal_mode", None) is not None:
            self.ordered = config.journal_mode is JournalMode.ORDERED

    def restart(self) -> None:
        self._finished_seen = 0
        #: Finished transactions not yet recoverable, by txid.
        self._frontier: dict[int, object] = {}
        self._recovered: set[int] = set()
        self._newest: Optional[int] = None
        #: Unmet ordered-data dependencies of recovered transactions:
        #: ``(txid, position) -> (block, version)``, plus a per-block heap.
        self._unmet: dict[tuple[int, int], tuple[object, int]] = {}
        self._waiting: dict[object, list[tuple[int, int, int]]] = {}

    def _recoverable(self, txn, durable: dict) -> bool:
        txid = txn.txid
        return (
            ("jc", txid) in durable
            and ("jd", txid) in durable
            and all(("log", txid, name) in durable for name in txn.metadata_buffers)
            and all(("logdata", txid, name) in durable for name in txn.journaled_data)
        )

    def check(self) -> None:
        new_durable = self.new_durable()
        tracker = self.tracker
        durable = tracker.latest
        waiting = self._waiting
        unmet = self._unmet
        for entry in new_durable:
            heap = waiting.get(entry.block)
            if heap:
                version = durable[entry.block].version
                while heap and heap[0][0] <= version:
                    _, txid, position = heapq.heappop(heap)
                    del unmet[(txid, position)]

        finished = self.journal.history
        frontier = self._frontier
        recovered = self._recovered
        for position in range(self._finished_seen, len(finished)):
            txn = finished[position]
            if txn.txid not in recovered:
                frontier[txn.txid] = txn
        tracker.folds += len(finished) - self._finished_seen
        self._finished_seen = len(finished)

        candidates = dict(frontier)
        for txn in self.journal.in_flight():
            if txn.txid not in recovered:
                candidates.setdefault(txn.txid, txn)
        tracker.folds += len(candidates)
        pending = []
        for txid in sorted(candidates):
            txn = candidates[txid]
            if not self._recoverable(txn, durable):
                pending.append(txn)
                continue
            recovered.add(txid)
            frontier.pop(txid, None)
            if self._newest is None or txid > self._newest:
                self._newest = txid
            if self.ordered:
                for position, (name, version) in enumerate(txn.ordered_data.items()):
                    current = durable.get(name)
                    if current is None or current.version < version:
                        unmet[(txid, position)] = (name, version)
                        heap = waiting.setdefault(name, [])
                        heapq.heappush(heap, (version, txid, position))

        newest = self._newest
        if newest is not None:
            for txn in pending:  # ascending txid
                if txn.txid >= newest:
                    break
                if txn.commit_requested_at is not None:
                    raise VerificationError(
                        f"journal recovery violates commit order: transaction "
                        f"{newest} is recoverable but earlier transaction "
                        f"{txn.txid} is not"
                    )
        if unmet:
            first = min(unmet)
            name, version = unmet[first]
            raise VerificationError(
                f"ordered-mode violation: transaction {first[0]} is "
                f"recoverable but its data block {name} (v{version}) is not durable"
            )


#: Incremental form of each registered oracle, by oracle name.  An oracle
#: registered without one is judged from a from-scratch probe instead.
INCREMENTAL_CHECKS: dict[str, Callable[..., IncrementalCheck]] = {
    "epoch-prefix": EpochPrefixCheck,
    "storage-order-prefix": StorageOrderPrefixCheck,
    "dispatch-epoch-order": DispatchEpochOrderCheck,
    "journal-recovery": JournalRecoveryCheck,
}


class _LiveTransactions(Sequence):
    """:func:`journal_transactions` of a live filesystem, without the copy.

    Sized from the history and :meth:`in_flight` in O(in flight) — at any
    instant the device can emit a boundary, a transaction is in exactly one
    of them — and materialized only when indexed.
    """

    def __init__(self, fs):
        self.fs = fs

    def __len__(self) -> int:
        journal = getattr(self.fs, "journal", None)
        if journal is None:
            return 0
        return len(journal.history) + len(journal.in_flight())

    def __getitem__(self, index):
        return journal_transactions(self.fs)[index]

    def __iter__(self):
        return iter(journal_transactions(self.fs))


def oracle_verdict(
    oracle: Oracle,
    check: Callable[[], None],
    probe: CrashProbe,
    interned: Optional[dict] = None,
) -> OracleVerdict:
    """Run ``check`` and wrap its outcome as ``oracle``'s verdict on ``probe``.

    With ``interned``, equal verdicts share one object: a check judges
    thousands of points whose verdicts are mostly the same few.
    """
    passed, witness = True, None
    try:
        check()
    except VerificationError as error:
        passed, witness = False, str(error)
    fields = (oracle.name, passed, bool(oracle.guaranteed(probe)), witness)
    if interned is None:
        return OracleVerdict(*fields)
    verdict = interned.get(fields)
    if verdict is None:
        verdict = interned[fields] = OracleVerdict(*fields)
    return verdict


class IncrementalJudge:
    """The registered oracles' verdicts on a running stack, point after point.

    Its probe is live: ``state`` is the tracker (the predicates read only
    its barrier mode), and the dispatch log, journal transactions and fault
    events are the stack's own lists, read while the run is paused inside
    the crash tap.  An oracle registered without an incremental form is
    judged on a from-scratch probe (``recover_durable_blocks``) instead.
    """

    def __init__(self, stack, *, spec=None, workload=None):
        self.stack = stack
        self.spec = spec
        self.workload = workload
        self.tracker = CrashTracker(stack.device)
        block = getattr(stack, "block", None)
        injector = stack.device.fault_injector
        self.probe = CrashProbe(
            state=self.tracker,
            stack=stack,
            spec=spec,
            workload=workload,
            transactions=_LiveTransactions(getattr(stack, "fs", None)),
            dispatch_log=block.dispatch_log if block is not None else (),
            fault_events=injector.events if injector is not None else (),
        )
        self._oracles = [
            (oracle, INCREMENTAL_CHECKS.get(oracle.name)) for oracle in ORACLES.values()
        ]
        self._checks: dict[str, IncrementalCheck] = {}
        self._interned: dict = {}

    def scratch_probe(self) -> CrashProbe:
        """A from-scratch probe of a power cut right now (full recovery)."""
        return CrashProbe.from_stack(
            recover_durable_blocks(self.stack.device),
            self.stack,
            spec=self.spec,
            workload=self.workload,
        )

    def verdicts(self) -> tuple[OracleVerdict, ...]:
        """Every applicable oracle's verdict on a power cut right now."""
        self.tracker.advance()
        probe = self.probe
        checks = self._checks
        interned = self._interned
        verdicts = []
        scratch = None
        for oracle, make in self._oracles:
            if make is None:
                if scratch is None:
                    scratch = self.scratch_probe()
                if oracle.applies(scratch):
                    check = partial(oracle.check, scratch)
                    verdicts.append(oracle_verdict(oracle, check, scratch, interned))
                continue
            if not oracle.applies(probe):
                continue
            check = checks.get(oracle.name)
            if check is None:
                check = checks[oracle.name] = make(self.tracker, probe)
            verdicts.append(oracle_verdict(oracle, check.check, probe, interned))
        return tuple(verdicts)
