"""Declarative scenario layer: registries, specs and the matrix sweep engine.

The paper's evaluation is a matrix — stack configurations × devices ×
workloads — and this package makes that matrix a first-class, open space
instead of eleven hard-coded figure modules:

* :mod:`repro.scenarios.registry` — the generic named registry.
* :mod:`repro.scenarios.stacks` — :data:`STACK_CONFIGS` (EXT4-DR, EXT4-OD,
  BFS-DR, BFS-OD, OptFS, and whatever you register next) and
  :data:`DEVICES`.
* :mod:`repro.scenarios.workloads` — the :class:`Workload` protocol,
  :class:`WorkloadResult`, and :data:`WORKLOADS` (sync-loop, fxmark, mysql,
  sqlite, varmail, postgres-wal, rocksdb-compaction, blocklevel,
  ordered-vs-buffered; the application models live in :mod:`repro.apps`).
* :mod:`repro.scenarios.spec` — the frozen :class:`ScenarioSpec` and the
  :func:`sweep` product expander.
* :mod:`repro.scenarios.engine` — :func:`run_specs` (one run per spec,
  process-pool fan-out), :func:`run_matrix` (spec table ->
  ExperimentResult) and :func:`sweep_table` (ad-hoc sweeps; ``python -m
  repro.experiments.runner sweep`` on the command line).

See ``docs/EXPERIMENTS.md`` for a guided tour.
"""

from repro.scenarios.engine import (
    ScenarioOutcome,
    build_spec_stack,
    prepare_spec,
    run_matrix,
    run_spec,
    run_specs,
    sweep_table,
)
from repro.scenarios.registry import Registry
from repro.scenarios.spec import ScenarioSpec, sweep
from repro.scenarios.stacks import (
    DEVICES,
    STACK_CONFIGS,
    device_profile,
    register_stack_config,
    stack_config,
)
from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult

__all__ = [
    "DEVICES",
    "Registry",
    "STACK_CONFIGS",
    "ScenarioOutcome",
    "ScenarioSpec",
    "WORKLOADS",
    "Workload",
    "WorkloadResult",
    "build_spec_stack",
    "device_profile",
    "prepare_spec",
    "register_stack_config",
    "run_matrix",
    "run_spec",
    "run_specs",
    "stack_config",
    "sweep",
    "sweep_table",
]
