"""The deterministic continuation a remounted stack runs.

After :func:`repro.recovery.remount` the judge does what a restarted
application would do: reopen its log, keep appending one page and syncing
it, ``calls`` times.  The sync goes through a
:class:`repro.apps.syncpolicy.SyncPolicy` that retries an ``EIOError`` up
to ``SYNC_RETRIES`` times, so transient IO errors are survived, and the
loop stops cleanly (no deadlock, no unhandled error) when the mount
degrades: a write raising :class:`~repro.fs.errors.ReadOnlyFSError` or a
sync exhausting its retries ends the continuation with the error recorded
in the outcome.

Power is cut **immediately after the last acknowledgement** — no drain,
no grace period.  That is the adversarial moment: everything the
continuation's syncs acknowledged must already be durable, which is
exactly what the ``recovered-continuation-durability`` oracle checks.
"""

from __future__ import annotations

from repro.apps.syncpolicy import Guarantee, SyncPolicy
from repro.core.stack import IOStack
from repro.fs.errors import EIOError, ReadOnlyFSError

#: Fallback continuation file for workloads without an append-only log.
DEFAULT_CONTINUATION_FILE = "recovery.dat"
#: Retries per continuation sync before an ``EIOError`` stops the loop.
SYNC_RETRIES = 3


def continuation_file(spec) -> str:
    """The file the continuation appends to (the workload's log if it has one)."""
    from repro.crashlab.oracles import APPEND_LOG_FILES

    return APPEND_LOG_FILES.get(spec.workload, (DEFAULT_CONTINUATION_FILE,))[0]


def run_continuation(stack: IOStack, spec, calls: int) -> dict:
    """Append and sync ``calls`` times on the remounted stack, then cut power.

    Returns ``{"completed": n, "error": name-or-None}`` — how many
    append+sync iterations were acknowledged and what (if anything)
    stopped the loop early.
    """
    if calls < 1:
        raise ValueError(f"continuation needs at least 1 call, got {calls}")
    fs = stack.fs
    name = continuation_file(spec)
    outcome: dict[str, object] = {"completed": 0, "error": None}

    def loop():
        # SyncPolicy aborts at the first error by default.
        policy = SyncPolicy(fs, on_error="retry", max_sync_retries=SYNC_RETRIES)
        try:
            handle = fs.open(name) if fs.exists(name) else fs.create(name)
        except ReadOnlyFSError as error:
            outcome["error"] = type(error).__name__
            return
        for _ in range(calls):
            try:
                fs.write(handle, 1)
                yield from policy.synced(
                    handle, Guarantee.DURABILITY, issuer="continuation", metadata=True
                )
            except (EIOError, ReadOnlyFSError) as error:
                outcome["error"] = type(error).__name__
                return
            outcome["completed"] = int(outcome["completed"]) + 1

    stack.run_process(loop())
    # The second crash: right after the last acknowledgement, no drain.
    stack.device.power_off()
    return outcome
