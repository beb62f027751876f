"""Incremental crash judging: each point from the previous point's state.

Barrier epochs make durability advance in transfer order, and in-order
recovery keeps the programmed prefix of the FTL log, so the crash state at
boundary *k* is the state at *k − 1* plus a few pages.  The in-line
verifier therefore keeps one :class:`~repro.storage.crash.CrashState` per
run and advances it at every judged boundary by that boundary's delta, and
keeps every registered oracle's check
(:class:`~repro.core.verification.IncrementalCheck`) with its scan
positions and partial results between points.  The dispatch log and the
journal's transactions are folded the same way, from where the previous
point stopped.

Judging is change-driven: each oracle declares the inputs its check reads
(:data:`~repro.core.verification.INPUTS`), and :class:`IncrementalJudge`
runs a check again only when one of them changed since the previous
point, keeping the oracle's previous verdict otherwise.  The ``applies``
and ``guaranteed`` predicates are evaluated once per cell and again only
when a fault fires or the dispatch log or the journal's transactions stop
being empty.  A point then costs O(inputs changed since the last judged
point), and a point where nothing an oracle reads changed (a flush
completion, say) costs a few comparisons.

An FTL garbage-collection run or a misdirected write since the last judged
point rebuilds the state from the whole history, and a durable version of
a block going down restarts the checks; each counts in
:attr:`CrashState.rebuilds <repro.storage.crash.CrashState.rebuilds>`.
``tests/crashlab/test_inline_equivalence.py`` pins every in-line verdict
to one replay per point (a fresh state folded once at the crash).
"""

from __future__ import annotations

from collections.abc import Sequence
from repro.core.verification import (
    INPUTS,
    ORACLES,
    CrashProbe,
    VerificationError,
    journal_transactions,
)
from repro.crashlab.report import OracleVerdict
from repro.storage.crash import CrashState

_DURABLE, _LOST, _TRANSFERS, _DISPATCH_LOG, _TRANSACTIONS, _LOG_INODES, _FAULTS = (
    1 << position for position in range(len(INPUTS))
)
_EVERY_INPUT = (1 << len(INPUTS)) - 1
#: Inputs whose change can flip an ``applies`` or ``guaranteed`` predicate.
_PREDICATE_INPUTS = _DISPATCH_LOG | _TRANSACTIONS | _FAULTS


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


class IncrementalJudge:
    """The registered oracles' verdicts on one probe, point after point.

    :meth:`verdicts` judges the probe's state as it stands; called again
    after the state advanced, it runs only the checks whose inputs changed.
    On a probe judged once (a replay's crashed stack) it runs every
    applicable check once.  :meth:`on_stack` builds the live judge the
    in-line verifier uses, whose probe reads a running stack.
    """

    def __init__(self, probe: CrashProbe):
        self.probe = probe
        self.state = probe.state
        fs = getattr(probe.stack, "fs", None)
        journal = getattr(fs, "journal", None)
        # Where each input's stamp is read from (``None``: nothing to read).
        self._fs = fs if hasattr(fs, "namespace_version") else None
        #: The transactions are stamped by the journal's running
        #: transaction and finished count, or else by their number.
        self._journal = journal if hasattr(journal, "running") else None
        self._finished = self._journal.history if self._journal is not None else ()
        self._log = probe.dispatch_log
        self._durable_stamp = self._lost_stamp = self._transfer_stamp = None
        self._log_count = len(self._log) if self._log is not None else 0
        self._running = None
        self._transaction_count = len(self._finished) if self._journal else len(
            probe.transactions
        )
        self._namespace = None
        self._fault_count = len(probe.fault_events)
        #: The predicates' inputs when last evaluated: fired faults and
        #: whether the dispatch log and the transactions are non-empty.
        self._predicate_key = None
        self._predicate_watch = _PREDICATE_INPUTS
        #: One ``[name, input mask, check, guaranteed, passing verdict]``
        #: per applicable oracle, in registry order.
        self._slots: list = []
        #: Per set of changed inputs, the checks to run:
        #: ``(position, check, passing verdict)``.
        self._runs: list = []
        self._current: list = []
        self._verdicts: tuple = ()
        self._checks: dict = {}
        self._interned: dict = {}
        self._first = True

    @classmethod
    def on_stack(cls, stack, *, spec=None, workload=None) -> "IncrementalJudge":
        """A judge of ``stack`` as it runs, with a fresh crash state.

        The probe is live: ``state`` is the crash state the caller advances
        before each :meth:`verdicts`, and the dispatch log, journal
        transactions and fault events are the stack's own lists, read while
        the run is paused inside the crash tap.
        """
        block = getattr(stack, "block", None)
        injector = stack.device.fault_injector
        return cls(
            CrashProbe(
                state=CrashState(stack.device),
                stack=stack,
                spec=spec,
                workload=workload,
                transactions=_LiveTransactions(getattr(stack, "fs", None)),
                dispatch_log=block.dispatch_log if block is not None else (),
                fault_events=injector.events if injector is not None else (),
            )
        )

    def _intern(self, fields: tuple) -> OracleVerdict:
        """Equal verdicts share one object: most points repeat a few."""
        verdict = self._interned.get(fields)
        if verdict is None:
            verdict = self._interned[fields] = OracleVerdict(*fields)
        return verdict

    def _select(self) -> bool:
        """Evaluate ``applies`` and ``guaranteed``; whether the set changed."""
        probe = self.probe
        previous = {slot[0]: verdict for slot, verdict in zip(self._slots, self._current)}
        slots, current = [], []
        for oracle in ORACLES.values():
            if not oracle.applies(probe):
                continue
            name = oracle.name
            check = self._checks.get(name)
            if check is None:
                check = self._checks[name] = oracle.check(probe)
            guaranteed = bool(oracle.guaranteed(probe))
            passing = self._intern((name, True, guaranteed, None))
            mask = sum(1 << INPUTS.index(read) for read in oracle.reads)
            slots.append([name, mask, check, guaranteed, passing])
            verdict = previous.get(name)
            if verdict is not None:
                verdict = self._intern((name, verdict.passed, guaranteed, verdict.witness))
            current.append(verdict)
        changed = [slot[0] for slot in slots] != list(previous)
        self._slots, self._current = slots, current
        self._runs = [None] * (_EVERY_INPUT + 1)
        return changed

    def verdicts(self) -> tuple[OracleVerdict, ...]:
        """Every applicable oracle's verdict on the probe's state now."""
        state = self.state
        changed = 0
        if state.durable_stamp != self._durable_stamp:
            self._durable_stamp = state.durable_stamp
            changed = _DURABLE
        if state.lost_stamp != self._lost_stamp:
            self._lost_stamp = state.lost_stamp
            changed |= _LOST
        if state.transfer_stamp != self._transfer_stamp:
            self._transfer_stamp = state.transfer_stamp
            changed |= _TRANSFERS
        log = self._log
        if log is not None and len(log) != self._log_count:
            self._log_count = len(log)
            changed |= _DISPATCH_LOG
        journal = self._journal
        if journal is not None and (
            journal.running is not self._running
            or len(self._finished) != self._transaction_count
        ):
            self._running = journal.running
            self._transaction_count = len(self._finished)
            changed |= _TRANSACTIONS
        fs = self._fs
        if fs is not None and fs.namespace_version != self._namespace:
            self._namespace = fs.namespace_version
            changed |= _LOG_INODES
        events = self.probe.fault_events
        if len(events) != self._fault_count:
            self._fault_count = len(events)
            changed |= _FAULTS
        if self._first:
            self._first = False
            changed = _EVERY_INPUT
        elif not changed:
            return self._verdicts

        if changed & self._predicate_watch:
            key = (
                self._fault_count,
                self._log_count > 0,
                self._transaction_count > 0 or len(self.probe.transactions) > 0,
            )
            # The dispatch log and the transactions only grow: once both
            # are non-empty, only a fault can flip a predicate.
            if key[1] and key[2]:
                self._predicate_watch = _FAULTS
            if key != self._predicate_key:
                self._predicate_key = key
                if self._select():
                    changed = _EVERY_INPUT

        runs = self._runs[changed]
        if runs is None:
            runs = self._runs[changed] = [
                (position, slot[2], slot[4])
                for position, slot in enumerate(self._slots)
                if slot[1] & changed
            ]
        current = self._current
        for position, check, passing in runs:
            try:
                check.check()
            except VerificationError as error:
                name, _, _, guaranteed, _ = self._slots[position]
                current[position] = self._intern((name, False, guaranteed, str(error)))
            else:
                current[position] = passing
        self._verdicts = verdicts = tuple(current)
        return verdicts
