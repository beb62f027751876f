"""A stand-in storage device for judging hand-built crash states.

:class:`repro.storage.crash.CrashState` folds a device's cache history
(and, under in-order recovery, its FTL log).  Tests that judge a synthetic
history build the state on this stub instead of a simulated device: the
history is a plain list of cache entries whose ``durable_time`` says what
the device programmed, and the registered oracles judge it through
:data:`repro.core.verification.ORACLES` exactly as they judge a run.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.verification import ORACLES, CrashProbe
from repro.storage.barrier_modes import BarrierMode
from repro.storage.crash import CrashState
from repro.storage.writeback_cache import CacheEntry


def page(block, version, epoch, seq, durable, *, damage=None) -> CacheEntry:
    """Transfer ``seq`` of ``block``; ``durable`` says whether it was programmed."""
    return CacheEntry(
        block=block,
        version=version,
        epoch=epoch,
        transfer_seq=seq,
        transfer_time=float(seq),
        command_id=seq,
        durable_time=float(seq) if durable else None,
        damage=damage,
    )


def stub_device(history, mode=BarrierMode.IN_ORDER_RECOVERY, *, ftl=None, now=100.0):
    """A device whose cache history is ``history`` (transfer order)."""
    return SimpleNamespace(
        barrier_mode=mode,
        cache=SimpleNamespace(history=history),
        ftl=ftl,
        fault_injector=None,
        sim=SimpleNamespace(now=now),
    )


def crash_state(entries, mode=BarrierMode.IN_ORDER_RECOVERY, *, ftl=None) -> CrashState:
    """The crash state of a stub device that transferred ``entries``, folded once."""
    history = sorted(entries, key=lambda entry: entry.transfer_seq)
    return CrashState(stub_device(history, mode, ftl=ftl)).advance()


def verify(oracle: str, state: CrashState, **probe) -> None:
    """Judge ``state`` with a registered oracle; raises ``VerificationError``."""
    ORACLES[oracle].verify(CrashProbe(state=state, **probe))
