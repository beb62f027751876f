"""How a storage controller can honour the cache-barrier command.

Section 3.2 of the paper lists the implementation options:

* devices with **power-loss protection** (supercap) satisfy the barrier for
  free — the cache is durable on arrival, so the persist order never violates
  the transfer order that the host already controls;
* **in-order write-back** drains the cache epoch by epoch, inserting a stall
  between epochs, at some cost in parallelism;
* **transactional write-back** flushes the whole cache as one atomic unit, so
  epochs can never be split by a crash;
* **in-order recovery** (the paper's UFS prototype) writes the cache out in
  log order at full parallelism and relies on an LFS-style recovery scan to
  discard everything after the first hole, which restores the epoch-prefix
  guarantee after a crash.

``NONE`` models the legacy device: the barrier flag is not supported and the
cache drains in an arbitrary order — the reason the legacy host must resort
to transfer-and-flush.
"""

from __future__ import annotations

import enum

from repro.storage.profiles import DeviceProfile


class BarrierMode(enum.Enum):
    """Barrier-command implementation strategy of the storage controller."""

    #: Legacy device: no barrier support, cache drains in arbitrary order.
    NONE = "none"
    #: Power-loss protection: the writeback cache itself is durable.
    PLP = "plp"
    #: Drain epoch-by-epoch, stalling between epochs.
    IN_ORDER_WRITEBACK = "in-order-writeback"
    #: Flush the cache as one atomic unit (all-or-nothing per flush group).
    TRANSACTIONAL = "transactional"
    #: Drain in log order, recover the durable prefix after a crash.
    IN_ORDER_RECOVERY = "in-order-recovery"

    @property
    def supports_barrier(self) -> bool:
        """Whether a barrier write is meaningful under this mode."""
        return self is not BarrierMode.NONE

    @property
    def orders_persistence(self) -> bool:
        """Whether the mode guarantees epoch-prefix durability after a crash."""
        return self in (
            BarrierMode.PLP,
            BarrierMode.IN_ORDER_WRITEBACK,
            BarrierMode.TRANSACTIONAL,
            BarrierMode.IN_ORDER_RECOVERY,
        )

    @property
    def is_atomic_flush(self) -> bool:
        """Whether cache drains are all-or-nothing groups."""
        return self is BarrierMode.TRANSACTIONAL

    def program_overhead(self, profile: DeviceProfile) -> float:
        """Fractional slowdown charged on every program batch.

        The paper charges a 5% penalty on the plain SSD to account for the
        barrier bookkeeping and quotes a 12% worst case for a traditional
        transactional-write-back commit; PLP and the legacy mode pay nothing.
        """
        if self is BarrierMode.NONE or self is BarrierMode.PLP:
            return 0.0
        if self is BarrierMode.TRANSACTIONAL:
            return max(profile.barrier_overhead, 0.12)
        return profile.barrier_overhead


def default_barrier_mode(
    profile: DeviceProfile, *, order_preserving: bool = True
) -> BarrierMode:
    """The barrier mode the paper associates with each device class.

    Under the legacy block layer (``order_preserving=False``) no barrier
    reaches the device, but power-loss protection is a hardware property:
    it applies to the legacy stack as well.
    """
    if not order_preserving:
        return BarrierMode.PLP if profile.has_plp else BarrierMode.NONE
    if not profile.supports_barrier:
        return BarrierMode.NONE
    if profile.has_plp:
        return BarrierMode.PLP
    return BarrierMode.IN_ORDER_RECOVERY
