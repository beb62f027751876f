"""Declarative scenario descriptions and the matrix expander.

A :class:`ScenarioSpec` names one point of the evaluation space — a stack
configuration × device × barrier mode × workload, plus the workload's
parameters — without building anything.  Specs are frozen,
picklable values, which is what lets the sweep engine fan them out across
worker processes and lets experiments be written as plain tables of specs.

:func:`sweep` expands axis lists into the corresponding product of specs,
so a matrix that exists in no experiment module is one call away::

    sweep(workloads=["varmail"], configs=["EXT4-DR", "BFS-DR", "OptFS"],
          devices=["ufs", "plain-ssd"])
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.faults.spec import FaultSpec, coerce_faults, plan_label
from repro.storage.barrier_modes import BarrierMode


def _frozen_params(params: Optional[Mapping[str, object]]) -> Mapping[str, object]:
    return MappingProxyType(dict(params or {}))


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: where to run (stack axes) and what to run (workload)."""

    #: Registered workload name ("sync-loop", "sqlite", "varmail", ...).
    workload: str
    #: Registered stack configuration name; ``None`` for workloads that run
    #: against the raw block device and build no filesystem stack.
    config: Optional[str] = "EXT4-DR"
    #: Registered device name (evaluation devices or Fig. 1 labels).
    device: str = "plain-ssd"
    #: Storage-controller barrier implementation override, as the
    #: :class:`BarrierMode` value string (None = config default).
    barrier_mode: Optional[str] = None
    #: Seed threaded into ``StackConfig.seed`` and the workload's RNG.
    seed: int = 0
    #: Iteration-count multiplier handed to the workload.
    scale: float = 1.0
    #: Display label for experiment rows (defaults to the config name).
    label: str = ""
    #: Workload construction parameters.
    params: Mapping[str, object] = field(default_factory=dict)
    #: Extra ``StackConfig`` field overrides (e.g. track_queue_depth=True).
    stack_overrides: Mapping[str, object] = field(default_factory=dict)
    #: Fault plan applied to the storage device (:mod:`repro.faults`).
    #: Accepts specs, plan-syntax strings or keyword dicts; normalised to a
    #: tuple of :class:`~repro.faults.spec.FaultSpec`.  The injector streams
    #: are seeded from :attr:`seed`, so a spec fully determines its faults.
    faults: Sequence[FaultSpec] = ()

    def __post_init__(self) -> None:
        # Freeze the mappings so a spec really is an immutable value
        # (mutation raises TypeError; pickling converts back to plain dicts
        # via __getstate__ so worker processes still accept specs).
        object.__setattr__(self, "params", _frozen_params(self.params))
        object.__setattr__(self, "stack_overrides", _frozen_params(self.stack_overrides))
        object.__setattr__(self, "faults", coerce_faults(self.faults))
        if self.barrier_mode is not None:
            mode = self.barrier_mode
            value = mode.value if isinstance(mode, BarrierMode) else mode
            BarrierMode(value)  # validates early, with the enum's error
            object.__setattr__(self, "barrier_mode", value)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["params"] = dict(self.params)
        state["stack_overrides"] = dict(self.stack_overrides)
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "params", _frozen_params(state["params"]))
        object.__setattr__(
            self, "stack_overrides", _frozen_params(state["stack_overrides"])
        )

    def __hash__(self) -> int:
        # The dataclass-generated hash would choke on the mapping fields, and
        # hashing their items would choke on unhashable param values (lists
        # are legal --param literals).  Hash the axes only: equal specs have
        # equal axes, and specs differing only in params merely collide.
        return hash((
            self.workload, self.config, self.device, self.barrier_mode,
            self.seed, self.scale, self.label, self.faults,
        ))

    @property
    def display_label(self) -> str:
        """The row label: explicit label, else the config name, else device."""
        return self.label or self.config or self.device

    @property
    def fault_label(self) -> str:
        """Canonical rendering of the fault plan (``-`` when none)."""
        return plan_label(self.faults)

    def with_(self, **changes) -> "ScenarioSpec":
        """Copy of the spec with selected fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable description."""
        axes = [self.workload, self.config or "raw-block", self.device]
        if self.barrier_mode:
            axes.append(f"barrier={self.barrier_mode}")
        if self.seed:
            axes.append(f"seed={self.seed}")
        if self.faults:
            axes.append(f"faults={self.fault_label}")
        return " × ".join(axes)


def sweep(
    *,
    workloads: Sequence[str],
    configs: Sequence[Optional[str]] = ("EXT4-DR",),
    devices: Sequence[str] = ("plain-ssd",),
    barrier_modes: Sequence[Optional[str]] = (None,),
    seeds: Sequence[int] = (0,),
    scale: float = 1.0,
    params: Optional[Mapping[str, object]] = None,
    stack_overrides: Optional[Mapping[str, object]] = None,
    faults: Sequence = (),
) -> list[ScenarioSpec]:
    """Expand axis lists into the product of :class:`ScenarioSpec` values.

    The expansion order is deterministic — devices vary slowest, then
    configs, workloads, barrier modes and seeds — so a sweep's table rows
    always come out in the same order.

    For raw-block workloads (``blocklevel``, ``ordered-vs-buffered``) pass
    ``configs=[None]`` and leave the barrier-mode axis at its default: the
    engine refuses stack axes on stack-less workloads rather than silently
    ignoring them.
    """
    specs = []
    for device, config, workload, barrier_mode, seed in itertools.product(
        devices, configs, workloads, barrier_modes, seeds
    ):
        specs.append(
            ScenarioSpec(
                workload=workload,
                config=config,
                device=device,
                barrier_mode=barrier_mode,
                seed=seed,
                scale=scale,
                params=params or {},
                stack_overrides=stack_overrides or {},
                faults=faults,
            )
        )
    return specs
