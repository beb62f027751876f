"""Opt-in crash history: what a layer keeps only when a crash consumer asks.

Crash recovery and order verification read what happened during a run:
the block layer's issue and dispatch logs, the journal's commit history,
every inode's size log (the file size at each metadata version, which
journal recovery resolves a recovered inode block through), every page the
device cache admitted and, under in-order recovery, the device's FTL log
(one entry per programmed page, which the recovery scan reads).  A plain
run reads none of it, so a layer keeps these records only after its
``record_history()`` was called --
:meth:`repro.core.stack.IOStack.record_history` switches on all of them
at once.  The call must come before the first IO, or the history
would silently miss its start; reading a history that was never recorded
raises :class:`HistoryNotRecordedError` instead of returning a partial one.
"""

from __future__ import annotations

from typing import Optional, TypeVar

from repro.simulation.engine import SimulationError

T = TypeVar("T")


class HistoryNotRecordedError(SimulationError):
    """A crash-history reader ran on a stack that did not record history."""


def refuse_late_start(io_seen: bool, what: str) -> None:
    """Raise when recording ``what`` would start after the layer saw IO."""
    if io_seen:
        raise SimulationError(
            f"record_history() called after the first IO: {what} would miss "
            "its start; call it right after building the stack"
        )


def start_history(history: Optional[list[T]], io_seen: bool, what: str) -> list[T]:
    """The list to record ``what`` into from now on.

    Returns ``history`` unchanged when recording is already on (the call is
    idempotent); raises when the layer has already seen IO.
    """
    if history is not None:
        return history
    refuse_late_start(io_seen, what)
    return []


def recorded(history: Optional[list[T]], what: str) -> list[T]:
    """``history``, or a clear error when it was never switched on."""
    if history is None:
        raise HistoryNotRecordedError(
            f"{what} was not recorded: call record_history() on the stack "
            "before its first IO"
        )
    return history
