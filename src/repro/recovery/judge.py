"""The recover-then-continue judge ``runner check --continue`` installs.

:func:`recovery_judge` is the judge :func:`repro.crashlab.verify_points`
hands each point's probe and verdict, and is module-level, so a
``functools.partial(recovery_judge, plan=...)`` pickles into process-pool
workers.  To the registered oracles' verdicts it appends two recovery
verdicts:

* ``recovered-acked-prefix`` — every page a durability-claiming sync
  acknowledged *before the crash* must be durable after it;
* ``recovered-continuation-durability`` — the same property after the
  full round trip: remount on the recovered image, run the continuation,
  cut power again right after its last acknowledgement.

Neither oracle lives in the global registry
(:data:`repro.core.verification.ORACLES`): registering them would change
every existing ``crashcheck``/``faultcheck`` table.  They exist only in
verdicts produced by this judge.

The *guaranteed* predicate is the durability promise of the cell: PLP
hardware, or a stack that actually flushes (``nobarrier`` mounts
acknowledge at transfer time and promise nothing across power loss —
their violations are expected witnesses, the fsyncgate behaviour the
paper's Section 2 describes).  Injected faults degrade the promise
through :func:`repro.core.verification.faults_permit`, for the
continuation verdict on *both* crashes' fault events; a flush that lied
voids it on every stack but PLP.
"""

from __future__ import annotations

from typing import Optional

from repro.core.verification import (
    ACKED_PREFIX_ORACLE,
    CONTINUATION_ORACLE,
    CrashProbe,
    faults_permit,
)
from repro.crashlab.report import OracleVerdict, PointVerdict
from repro.recovery.continuation import ContinuationPlan, run_continuation
from repro.recovery.image import capture_image
from repro.recovery.remount import remount
from repro.storage.barrier_modes import BarrierMode
from repro.storage.crash import recover_durable_blocks


def verify_acked_prefix(probe: CrashProbe) -> Optional[str]:
    """Witness string if an acknowledged page did not survive, else ``None``.

    For every file, every page in ``[preallocated, synced_size_pages)``
    must be durable (any version): those pages were appended and then
    acknowledged by a durability-claiming sync, so the application was
    promised they survive power loss.  Pages below the preallocation
    baseline are excluded — a preallocated file's acked size covers
    pre-run content the run never wrote (and a round-robin overwrite of
    such a page after the last sync was never acknowledged).
    """
    fs = probe.stack.fs
    durable_blocks = probe.state.durable_blocks
    for name in fs.files:
        inode = fs.open(name).inode
        for page in range(inode.preallocated_pages, inode.synced_size_pages):
            if (inode.data_block_name(page)) not in durable_blocks:
                return (
                    f"acked prefix violated: {name} lost page {page} below the "
                    f"acknowledged size {inode.synced_size_pages} "
                    f"(durability was promised to the caller)"
                )
    return None


def _durability_promised(probe: CrashProbe) -> bool:
    """Whether the cell's stack promises acked data survives power loss."""
    fs = getattr(probe.stack, "fs", None)
    if fs is None:
        return False
    if probe.state.barrier_mode is BarrierMode.PLP:
        return True
    # A nobarrier mount acknowledges at transfer time: no flush, no
    # promise.  Everything else only acknowledges after its flush (or an
    # order-preserving drain) covered the data.
    return not fs.options.no_barrier


def recovery_judge(
    probe: CrashProbe,
    base: PointVerdict,
    *,
    plan: ContinuationPlan,
) -> PointVerdict:
    """Judge one crash point: ``base`` (the registered oracles' verdict of
    ``probe``) plus the recovery round trip."""
    witness = verify_acked_prefix(probe)
    acked = OracleVerdict(
        oracle=ACKED_PREFIX_ORACLE,
        passed=witness is None,
        guaranteed=_durability_promised(probe)
        and faults_permit(ACKED_PREFIX_ORACLE, probe),
        witness=witness,
    )

    image = capture_image(probe)
    stack = remount(image, probe.spec)
    outcome = run_continuation(stack, probe.spec, plan)
    final_state = recover_durable_blocks(stack.device)
    final_probe = CrashProbe.from_stack(final_state, stack, spec=probe.spec)

    continuation_witness = verify_acked_prefix(final_probe)
    if continuation_witness is not None:
        continuation_witness += (
            f" [continuation: {outcome['completed']}/{plan.calls} acked"
            + (f", stopped by {outcome['error']}" if outcome["error"] else "")
            + "]"
        )
    continuation = OracleVerdict(
        oracle=CONTINUATION_ORACLE,
        passed=continuation_witness is None,
        guaranteed=_durability_promised(final_probe)
        and faults_permit(CONTINUATION_ORACLE, probe)
        and faults_permit(CONTINUATION_ORACLE, final_probe),
        witness=continuation_witness,
    )

    return PointVerdict(
        index=base.index,
        kind=base.kind,
        time=base.time,
        verdicts=base.verdicts + (acked, continuation),
        trace_tail=base.trace_tail,
    )
