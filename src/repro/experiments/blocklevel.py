"""Raw block-level write loops shared by Fig. 1, Fig. 9 and Fig. 10.

The four scenarios of Fig. 9:

* ``XnF`` — write() followed by fdatasync(): Wait-on-Transfer **and** a
  cache flush per write.
* ``X`` — write() followed by fdatasync() under ``nobarrier``:
  Wait-on-Transfer only.
* ``B`` — write() followed by fdatabarrier(): an order-preserving barrier
  write, no waiting.
* ``P`` — plain buffered writes: orderless, free to merge.

They are driven directly against the block device (the filesystems add
journaling on top, which Fig. 9 deliberately excludes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.block.block_device import BlockDevice, BlockDeviceConfig
from repro.block.request import RequestFlag
from repro.simulation.engine import Simulator
from repro.simulation.stats import TimeSeries
from repro.storage.barrier_modes import BarrierMode, default_barrier_mode
from repro.storage.device import StorageDevice
from repro.storage.profiles import DeviceProfile, get_profile

#: The four write scenarios of Fig. 9.
SCENARIOS = ("XnF", "X", "B", "P")

_ORDERED_BARRIER = RequestFlag.ORDERED | RequestFlag.BARRIER


@dataclass
class ScenarioResult:
    """Outcome of one block-level random-write run."""

    scenario: str
    device: str
    writes: int
    elapsed_usec: float
    mean_queue_depth: float
    max_queue_depth: float
    queue_depth_series: TimeSeries

    @property
    def iops(self) -> float:
        """4 KiB writes per second."""
        if self.elapsed_usec <= 0:
            return 0.0
        return self.writes / (self.elapsed_usec / 1_000_000.0)

    @property
    def kiops(self) -> float:
        """Thousands of writes per second (the paper's unit)."""
        return self.iops / 1000.0


def _build(profile_name: str, *, order_preserving: bool, seed: int = 1):
    profile = get_profile(profile_name)
    if order_preserving and not profile.supports_barrier:
        order_preserving = False
    sim = Simulator(context_switch_cost=profile.context_switch_cost)
    barrier_mode = (
        default_barrier_mode(profile) if order_preserving
        else (BarrierMode.PLP if profile.has_plp else BarrierMode.NONE)
    )
    device = StorageDevice(
        sim, profile, barrier_mode=barrier_mode, seed=seed, track_queue_depth=True
    )
    block = BlockDevice(
        sim, device,
        BlockDeviceConfig(order_preserving=order_preserving),
    )
    return sim, device, block


def run_scenario(
    scenario: str,
    device_name: str,
    *,
    num_writes: int = 500,
    working_set_pages: int = 1 << 16,
    seed: int = 1,
) -> ScenarioResult:
    """Run one Fig. 9 scenario on one device and return its throughput."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    order_preserving = scenario == "B"
    sim, device, block = _build(device_name, order_preserving=order_preserving, seed=seed)
    rng = random.Random(seed)
    profile: DeviceProfile = device.profile
    throttle_limit = 4 * profile.queue_depth

    def host():
        start = sim.now
        if scenario in ("XnF", "X"):
            for _ in range(num_writes):
                request = block.write(rng.randrange(working_set_pages), 1, issuer="app")
                yield request.transferred
                if scenario == "XnF":
                    flush = block.flush(issuer="app")
                    yield flush.completed
        elif scenario == "B":
            for _ in range(num_writes):
                while block.queued_requests > throttle_limit:
                    yield sim.sleep(50.0)
                block.write(
                    rng.randrange(working_set_pages), 1,
                    flags=_ORDERED_BARRIER, issuer="app",
                )
            yield from block.drain()
        else:  # P: plain buffered writes, submitted in bursts so they merge.
            burst = 32
            base = 0
            submitted = 0
            while submitted < num_writes:
                count = min(burst, num_writes - submitted)
                for offset in range(count):
                    block.write(base + offset, 1, issuer="pdflush")
                base += count
                submitted += count
                while block.queued_requests > throttle_limit:
                    yield sim.sleep(50.0)
            yield from block.drain()
        return sim.now - start

    elapsed = sim.run_until_complete(sim.process(host()), limit=3_600_000_000)
    series = device.queue_depth_series
    return ScenarioResult(
        scenario=scenario,
        device=device_name,
        writes=num_writes,
        elapsed_usec=elapsed,
        mean_queue_depth=device.stats.queue_depth.mean(now=sim.now),
        max_queue_depth=device.stats.queue_depth.peak,
        queue_depth_series=series,
    )


def ordered_vs_buffered_ratio(device_name: str, *, num_writes: int = 300) -> tuple[float, float, float]:
    """Fig. 1's data point for one device.

    Returns ``(ordered_iops, buffered_iops, ratio_percent)`` where *ordered*
    is write()+fdatasync (scenario XnF) and *buffered* is plain write()
    (scenario P).
    """
    ordered = run_scenario("XnF", device_name, num_writes=max(20, num_writes // 5))
    buffered = run_scenario("P", device_name, num_writes=num_writes)
    ratio = 100.0 * ordered.iops / buffered.iops if buffered.iops else 0.0
    return ordered.iops, buffered.iops, ratio
