"""Systematic crash-point exploration and recovery verification.

The paper's core claim is not just speed but *correctness under power
loss*: barrier-enabled devices preserve epoch-prefix durability without
flushes.  This package turns the crash state
(:class:`repro.storage.crash.CrashState`) and the crash oracles
(:mod:`repro.core.verification`) into a checker
that adversarially validates that claim over the whole scenario matrix,
instead of relying on hand-picked crash instants:

* :mod:`repro.crashlab.points` — record every IO boundary of a run (the
  complete crash-point space) and select points to explore: exhaustive
  or stratified sampling.
* :mod:`repro.crashlab.engine` — run a
  :class:`~repro.scenarios.ScenarioSpec` once and, at each chosen boundary,
  advance the one crash state of the run to what a power cut there would
  leave and run every applicable oracle in-line; the cells of a matrix
  spread over worker processes, one verifying run per cell.
* :mod:`repro.crashlab.incremental` — the in-line judge: the crash state
  and every oracle's check, kept from point to point.
* :mod:`repro.crashlab.oracles` — workload-level oracles (committed-log
  prefix for WAL-style workloads) on top of the core invariant families.
* :mod:`repro.crashlab.report` — per-cell verdict tables through the
  standard :class:`~repro.analysis.reporting.ExperimentResult` machinery.

Command line: ``python -m repro.experiments.runner check --workload
sync-loop --barrier-mode in-order-recovery --strategy exhaustive`` (see
``docs/CRASH_CONSISTENCY.md``).
"""

from repro.crashlab.engine import (
    CellError,
    check_point,
    explore,
    explore_cells,
    replay_to_point,
    verify_points,
)
from repro.crashlab.points import (
    STRATEGIES,
    CrashPointReached,
    InlineVerifier,
    record_boundaries,
    select_points,
)
from repro.crashlab.report import (
    CellReport,
    OracleVerdict,
    PointVerdict,
    summary_result,
    violations_result,
)

__all__ = [
    "CellError",
    "CellReport",
    "CrashPointReached",
    "InlineVerifier",
    "OracleVerdict",
    "PointVerdict",
    "STRATEGIES",
    "check_point",
    "explore",
    "explore_cells",
    "record_boundaries",
    "replay_to_point",
    "select_points",
    "summary_result",
    "verify_points",
    "violations_result",
]
