"""Deterministic, seeded fault injection for the storage device.

The :class:`FaultInjector` is installed on a :class:`~repro.storage.device.
StorageDevice` (``device.fault_injector``, set through a
:class:`repro.hooks.Hooks` ledger together with the checked read/write
service) and consulted at three sites:

* ``command_error(command)`` when a command starts service (``io-error``);
* ``lie_on_flush()`` when the device is about to drain its cache for a
  standalone FLUSH or the pre-flush half of a FLUSH|FUA write
  (``flush-lie``);
* ``damage_batch(device, batch)`` after a program batch lands on flash and
  before the entries are marked durable (the four media kinds).

Each :class:`~repro.faults.spec.FaultSpec` gets a private ``random.Random``
stream derived from ``(plan seed, spec index, kind)``, and a probabilistic
trigger draws **exactly one** value per eligible site whether or not it
fires — so the fault sites a plan selects depend only on the seed and the
sequence of eligible sites, never on what other specs in the plan did.
Rebuilding an injector from the same plan inside a bit-identical simulation
reproduces the same :class:`FaultEvent` log, which is what makes crashlab's
``--jobs 1`` and ``--jobs 4`` reports agree.

Media faults are *silent*: the device still marks damaged entries durable
(it believes the program succeeded) so timing is unperturbed; the damage
surfaces when the crash state (:class:`repro.storage.crash.CrashState`)
treats the page as unreadable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.faults.spec import (
    FaultPlan,
    FaultSpec,
    MEDIA_KINDS,
    coerce_faults,
    plan_label,
)
from repro.hooks import Hooks, require_unstarted


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault occurrence (the witness record)."""

    kind: str
    #: Injection site class: ``"command"`` / ``"flush"`` / ``"program"``.
    site: str
    #: 1-based index of the eligible site at which the spec fired.
    site_index: int
    #: Simulation time of the injection (µs).
    time: float
    #: Human-readable description of what was injected.
    detail: str


class _Arm:
    """Per-spec trigger state: eligible-site counter, fire counter, stream."""

    __slots__ = ("spec", "rng", "sites", "fires")

    def __init__(self, spec: FaultSpec, plan_seed: int, index: int):
        self.spec = spec
        self.rng = spec.stream(plan_seed, index)
        self.sites = 0
        self.fires = 0

    def should_fire(self) -> bool:
        self.sites += 1
        spec = self.spec
        if spec.nth is not None:
            fire = self.sites == spec.nth
        else:
            # One draw per eligible site, fired or not, so the stream position
            # depends only on the site count.
            fire = self.rng.random() < spec.effective_probability
        if fire and spec.max_fires is not None and self.fires >= spec.max_fires:
            fire = False
        if fire:
            self.fires += 1
        return fire


class FaultInjector:
    """Evaluates a fault plan at the device's injection sites."""

    def __init__(self, faults=(), seed: int = 0):
        if isinstance(faults, FaultPlan):
            seed = faults.seed
            faults = faults.specs
        self.specs: tuple[FaultSpec, ...] = coerce_faults(faults)
        self.seed = seed
        self._arms = [_Arm(spec, seed, index) for index, spec in enumerate(self.specs)]
        self._media_arms = [arm for arm in self._arms if arm.spec.kind in MEDIA_KINDS]
        self._flush_arms = [arm for arm in self._arms if arm.spec.kind == "flush-lie"]
        self._error_arms = [arm for arm in self._arms if arm.spec.kind == "io-error"]
        self.events: list[FaultEvent] = []
        self._device = None
        self._hooks = Hooks()

    # ------------------------------------------------------------------ wiring
    def install(self, device) -> "FaultInjector":
        """Attach to a device that has not run yet (undone by :meth:`uninstall`).

        Switches on the device-cache history: misdirected writes draw their
        victim from every durable page, and damaged pages are only visible
        in that history once they persisted.
        """
        require_unstarted(device.sim, "a fault injector")
        device.record_history()
        self._device = device
        swap = self._hooks.swap
        swap(device, "fault_injector", self)
        swap(device, "_service_write", device._service_write_checked)
        swap(device, "_service_read", device._service_read_checked)
        return self

    def uninstall(self) -> None:
        """Detach from the device, restoring its plain service."""
        self._hooks.restore()

    @property
    def label(self) -> str:
        """Canonical plan rendering, as shown in report tables."""
        return plan_label(self.specs)

    @property
    def fires(self) -> int:
        """Total number of injections so far."""
        return len(self.events)

    def _now(self) -> float:
        return self._device.sim.now if self._device is not None else 0.0

    def _record(self, arm: _Arm, site: str, detail: str, *, time: Optional[float] = None) -> None:
        self.events.append(
            FaultEvent(
                kind=arm.spec.kind,
                site=site,
                site_index=arm.sites,
                time=self._now() if time is None else time,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------ sites
    def command_error(self, command) -> Optional[str]:
        """``io-error``: should this command complete with an error status?"""
        for arm in self._error_arms:
            op = arm.spec.op or "write"
            if command.kind.value != op:
                continue
            if arm.should_fire():
                code = "write-io-error" if op == "write" else "read-io-error"
                # No command id in the witness: ids come from a process-global
                # counter, and the event log must replay bit-identically.
                self._record(
                    arm, "command",
                    f"{code}: {command.kind.value} lba={command.lba} "
                    f"pages={command.num_pages}",
                )
                return code
        return None

    def lie_on_flush(self) -> bool:
        """``flush-lie``: acknowledge this flush without draining the cache?"""
        lied = False
        for arm in self._flush_arms:
            if arm.should_fire():
                lied = True
                self._record(arm, "flush", "flush acknowledged but cache not drained")
        return lied

    def damage_batch(self, device, batch: Sequence) -> None:
        """Media faults: damage pages of a just-programmed batch."""
        if not batch:
            return
        for arm in self._media_arms:
            if not arm.should_fire():
                continue
            kind = arm.spec.kind
            if kind == "torn-write":
                self._tear(arm, batch)
            elif kind == "misdirected-write":
                self._misdirect(arm, device, batch)
            elif kind == "dropped-write":
                self._drop(arm, batch)
            else:  # latent-read-error
                self._latent(arm, batch)

    # ------------------------------------------------------------------ media damage
    @staticmethod
    def _mark(entry, damage: str) -> bool:
        # First fault to touch a page wins; the page is unreadable either way.
        if entry.damage is None:
            entry.damage = damage
            return True
        return False

    def _tear(self, arm: _Arm, batch: Sequence) -> None:
        # The program round tore: pages from a random offset onward never hit
        # the media even though the device believes the batch completed.
        offset = arm.rng.randrange(len(batch))
        torn = sum(1 for entry in batch[offset:] if self._mark(entry, "torn"))
        self._record(
            arm, "program",
            f"torn program: {torn} of {len(batch)} pages lost from offset {offset}",
        )

    def _misdirect(self, arm: _Arm, device, batch: Sequence) -> None:
        # One page lands at the wrong physical address: its intended location
        # is stale/unreadable, and the page it landed on is clobbered.
        entry = arm.rng.choice(list(batch))
        self._mark(entry, "misdirected")
        victims = [
            candidate
            for candidate in device.cache.all_entries()
            if candidate.is_durable and candidate.damage is None
        ]
        victim = arm.rng.choice(victims) if victims else None
        if victim is not None:
            self._mark(victim, "clobbered")
        clobbered = f", clobbering {victim.block}@v{victim.version}" if victim else ""
        self._record(
            arm, "program",
            f"misdirected write of {entry.block}@v{entry.version}{clobbered}",
        )

    def _drop(self, arm: _Arm, batch: Sequence) -> None:
        entry = arm.rng.choice(list(batch))
        self._mark(entry, "dropped")
        self._record(
            arm, "program",
            f"silently dropped write of {entry.block}@v{entry.version}",
        )

    def _latent(self, arm: _Arm, batch: Sequence) -> None:
        entry = arm.rng.choice(list(batch))
        self._mark(entry, "latent")
        self._record(
            arm, "program",
            f"latent read error on {entry.block}@v{entry.version} "
            "(surfaces at recovery)",
        )
