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
point stopped.  A point then costs O(pages changed since the last judged
point + lost set), not O(history).

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
    ORACLES,
    CrashProbe,
    VerificationError,
    journal_transactions,
)
from repro.crashlab.report import OracleVerdict
from repro.storage.crash import CrashState


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


def judge_oracles(
    probe: CrashProbe, checks: dict, interned: dict
) -> tuple[OracleVerdict, ...]:
    """Every applicable registered oracle's verdict on ``probe``'s state.

    ``checks`` holds each oracle's check by name, built on the first call
    the oracle applies at and kept for the next ones.  Equal verdicts share
    one object from ``interned``: a check judges thousands of points whose
    verdicts are mostly the same few.
    """
    verdicts = []
    for oracle in ORACLES.values():
        if not oracle.applies(probe):
            continue
        check = checks.get(oracle.name)
        if check is None:
            check = checks[oracle.name] = oracle.check(probe)
        passed, witness = True, None
        try:
            check.check()
        except VerificationError as error:
            passed, witness = False, str(error)
        fields = (oracle.name, passed, bool(oracle.guaranteed(probe)), witness)
        verdict = interned.get(fields)
        if verdict is None:
            verdict = interned[fields] = OracleVerdict(*fields)
        verdicts.append(verdict)
    return tuple(verdicts)


class IncrementalJudge:
    """The registered oracles' verdicts on a running stack, point after point.

    Its probe is live: ``state`` is the crash state it advances, and the
    dispatch log, journal transactions and fault events are the stack's
    own lists, read while the run is paused inside the crash tap.
    """

    def __init__(self, stack, *, spec=None, workload=None):
        self.state = CrashState(stack.device)
        block = getattr(stack, "block", None)
        injector = stack.device.fault_injector
        self.probe = CrashProbe(
            state=self.state,
            stack=stack,
            spec=spec,
            workload=workload,
            transactions=_LiveTransactions(getattr(stack, "fs", None)),
            dispatch_log=block.dispatch_log if block is not None else (),
            fault_events=injector.events if injector is not None else (),
        )
        self._checks: dict = {}
        self._interned: dict = {}

    def verdicts(self) -> tuple[OracleVerdict, ...]:
        """Every applicable oracle's verdict on a power cut right now."""
        self.state.advance()
        return judge_oracles(self.probe, self._checks, self._interned)
