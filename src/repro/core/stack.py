"""Assemble complete IO stacks.

:func:`build_stack` wires a simulator, a storage device, a block layer and a
filesystem together according to a :class:`StackConfig`.  The named
configurations of the paper's evaluation are available through
:func:`standard_config`:

====================  =====================================================
name                  meaning
====================  =====================================================
``EXT4-DR``           stock EXT4, durability guarantee (FLUSH/FUA)
``EXT4-OD``           EXT4 mounted ``nobarrier`` (ordering only, no flush)
``BFS-DR``            BarrierFS with ``fsync`` (durability guarantee)
``BFS-OD``            BarrierFS with ``fbarrier`` (ordering guarantee)
``OptFS``             OptFS with ``osync``
====================  =====================================================

``*-OD`` and ``OptFS`` differ from their ``*-DR`` counterparts only in which
system call the *workload* issues; the stack itself is identical, so
:func:`standard_config` records the intended sync call in
``StackConfig.sync_call`` for the workloads to pick up.

The table itself lives in the scenario-layer registry
(:data:`repro.scenarios.stacks.STACK_CONFIGS`); register new named
configurations there rather than editing this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.block.block_device import BlockDevice
from repro.fs.barrierfs import BarrierFS
from repro.fs.ext4 import Ext4Filesystem
from repro.fs.mount import MountOptions
from repro.fs.optfs import OptFS
from repro.fs.vfs import FilesystemBase
from repro.simulation.engine import Simulator
from repro.storage.barrier_modes import BarrierMode, default_barrier_mode
from repro.storage.device import StorageDevice
from repro.storage.profiles import DeviceProfile, get_profile


@dataclass(frozen=True)
class StackConfig:
    """Declarative description of one simulated IO stack."""

    device: str = "plain-ssd"
    #: The filesystem; BarrierFS runs over the epoch scheduler +
    #: order-preserving dispatch, the others over the legacy block layer.
    filesystem: str = "ext4"
    #: EXT4 ``nobarrier`` mount option (no FLUSH/FUA on journal commits).
    no_barrier: bool = False
    #: Storage-controller barrier implementation; defaults to the paper's
    #: choice for the device (PLP for supercap, in-order recovery otherwise)
    #: under BarrierFS, and to the legacy behaviour under the others.
    barrier_mode: Optional[BarrierMode] = None
    seed: int = 0
    track_queue_depth: bool = False
    #: The sync call the workload should use ("fsync", "fdatasync",
    #: "fbarrier", "fdatabarrier", "osync"); informational, set by
    #: :func:`standard_config`.
    sync_call: str = "fsync"
    mount_overrides: dict = field(default_factory=dict)


@dataclass
class IOStack:
    """A fully assembled simulated IO stack."""

    config: StackConfig
    profile: DeviceProfile
    sim: Simulator
    device: StorageDevice
    block: BlockDevice
    fs: FilesystemBase

    @property
    def label(self) -> str:
        """Short label used in experiment reports."""
        return f"{self.fs.name}/{self.profile.name}"

    def record_history(self) -> None:
        """Keep the crash history every layer would otherwise drop.

        Switches on the block dispatch log, the journal commit history,
        every inode's size log, the device-cache history and (under
        in-order recovery) the device's FTL log, which crash recovery
        (:func:`repro.storage.crash.recover_durable_blocks`), remount
        recovery (:func:`repro.recovery.image.capture_image`) and the crash
        oracles read.  Call it before the first IO; a later call raises,
        and reading history from a stack that never called it raises
        :class:`repro.simulation.history.HistoryNotRecordedError`.
        """
        self.block.record_history()
        self.device.record_history()
        self.fs.record_history()
        journal = getattr(self.fs, "journal", None)
        if journal is not None:
            journal.record_history()

    def run_process(self, generator, *, limit: float = 600_000_000):
        """Run ``generator`` as a process until it completes; return its value."""
        process = self.sim.process(generator)
        return self.sim.run_until_complete(process, limit=limit)


#: Filesystem class by ``StackConfig.filesystem`` name.
FILESYSTEMS = {
    "ext4": Ext4Filesystem,
    "barrierfs": BarrierFS,
    "optfs": OptFS,
}


def build_stack(config: StackConfig) -> IOStack:
    """Build a simulator + device + block layer + filesystem from ``config``."""
    try:
        fs_class = FILESYSTEMS[config.filesystem]
    except KeyError:
        raise KeyError(
            f"unknown filesystem {config.filesystem!r}; choose from {sorted(FILESYSTEMS)}"
        ) from None

    profile = get_profile(config.device)
    order_preserving = fs_class is BarrierFS
    barrier_mode = config.barrier_mode or default_barrier_mode(
        profile, order_preserving=order_preserving
    )

    sim = Simulator(context_switch_cost=profile.context_switch_cost)
    device = StorageDevice(
        sim,
        profile,
        barrier_mode=barrier_mode,
        seed=config.seed,
        track_queue_depth=config.track_queue_depth,
    )
    block = BlockDevice(sim, device, order_preserving=order_preserving)
    mount = MountOptions(no_barrier=config.no_barrier, **config.mount_overrides)
    fs = fs_class(sim, block, mount)
    return IOStack(
        config=config, profile=profile, sim=sim, device=device, block=block, fs=fs
    )


def standard_config(name: str, device: str = "plain-ssd", **overrides) -> StackConfig:
    """The paper's named stack configurations (EXT4-DR, BFS-OD, ...).

    The configuration table lives in the scenario-layer registry
    (:data:`repro.scenarios.stacks.STACK_CONFIGS`); this function is the
    core-layer shim over it.  Imported lazily: the scenario layer builds on
    the core, not the other way round.
    """
    from repro.scenarios.stacks import stack_config

    return stack_config(name, device, **overrides)
