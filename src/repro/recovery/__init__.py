"""Recover-and-continue: remount after a crash and keep running.

The crash machinery (:mod:`repro.crashlab`) answers "what survived?".
This package answers the question a deployment actually cares about:
*can the system come back up on what survived and keep its promises?*

The pipeline, composed by :func:`recovery_judge` at every explored crash
point:

1. :func:`capture_image` distils the crashed probe into a
   :class:`RecoveredImage` — what a real remount's journal recovery would
   reconstruct from the surviving device contents (file sizes resolved
   through the recovered metadata versions, durable data pages).
2. :func:`remount` builds a fresh stack for the same spec and seeds it
   with the image: inodes readopted under their pre-crash numbers, the
   durable pages admitted to the device as the on-media baseline (and
   replayed into the FTL log, so in-order recovery still works), error
   propagation enabled, the spec's fault plan reinstalled.
3. :func:`run_continuation` appends and syncs through a
   :class:`repro.apps.syncpolicy.SyncPolicy` — surviving ``EIOError`` per
   its retry policy and stopping cleanly on read-only degradation — then
   cuts power again immediately after the last acknowledgement.
4. Two oracles judge the round trip: ``recovered-acked-prefix`` (what the
   first crash's syncs acknowledged actually survived it) and
   ``recovered-continuation-durability`` (the same property for the
   continuation's post-remount acknowledgements).

``runner check --continue`` drives this over workload × config ×
barrier-mode × fault-plan cells; see ``docs/RECOVERY.md``.
"""

from repro.recovery.continuation import continuation_file, run_continuation
from repro.recovery.image import RecoveredFile, RecoveredImage, capture_image
from repro.recovery.judge import (
    ACKED_PREFIX_ORACLE,
    CONTINUATION_ORACLE,
    recovery_judge,
    verify_acked_prefix,
)
from repro.recovery.remount import remount

__all__ = [
    "ACKED_PREFIX_ORACLE",
    "CONTINUATION_ORACLE",
    "RecoveredFile",
    "RecoveredImage",
    "capture_image",
    "continuation_file",
    "recovery_judge",
    "remount",
    "run_continuation",
    "verify_acked_prefix",
]
