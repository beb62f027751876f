"""Crash-exploration verdicts and their tabular/JSON forms.

The engine produces one :class:`PointVerdict` per explored crash point (one
:class:`OracleVerdict` per applicable oracle) and one :class:`CellReport`
per scenario cell.  Rendering goes through the existing
:class:`repro.analysis.reporting.ExperimentResult` machinery, so
``runner check`` gets ``--format table|json|csv`` and ``--output`` for
free: :func:`summary_result` is the per-cell pass/fail table,
:func:`violations_result` lists every violation with its concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.reporting import ExperimentResult
from repro.simulation.engine import MSEC


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's verdict at one crash point."""

    oracle: str
    passed: bool
    #: Whether the cell under test promises the property (a violation on a
    #: non-guaranteeing cell is an expected legacy-behaviour witness).
    guaranteed: bool
    #: The :class:`VerificationError` message when the oracle failed.
    witness: Optional[str] = None


@dataclass(frozen=True)
class PointVerdict:
    """All oracle verdicts at one crash point."""

    index: int
    kind: str
    time: float
    verdicts: tuple[OracleVerdict, ...] = ()
    #: The last spans before the crash (``Span.describe()`` lines), present
    #: only when the exploration ran with ``trace_tail=N``; the violation
    #: report appends them to the witness so a failing boundary comes with
    #: the IO timeline that led to it.
    trace_tail: tuple[str, ...] = ()

    @property
    def violations(self) -> list[OracleVerdict]:
        """The oracles this point violated."""
        return [verdict for verdict in self.verdicts if not verdict.passed]

    @property
    def unexpected_violations(self) -> list[OracleVerdict]:
        """Violations of properties the cell claims to guarantee."""
        return [
            verdict
            for verdict in self.verdicts
            if not verdict.passed and verdict.guaranteed
        ]


@dataclass
class CellReport:
    """Exploration outcome of one scenario cell (spec × strategy)."""

    spec: object  # ScenarioSpec; typed loosely to keep the module import-light
    strategy: str
    seed: int
    #: Boundaries the cell's run exposes.
    boundaries_total: int
    #: Verdicts for the explored points, in boundary order.
    points: list[PointVerdict] = field(default_factory=list)
    #: How often the in-line judge rebuilt its incremental crash state from
    #: the whole history (an FTL GC run or a misdirected write took durable
    #: pages away, or a block's durable version went down).  Like
    #: :attr:`folds` it describes the exploration's cost, not its outcome:
    #: it is in no table and no comparison.
    rebuilds: int = field(default=0, compare=False)
    #: Entries the incremental crash state and the oracles' incremental
    #: forms folded over the whole check: a deterministic work counter.
    folds: int = field(default=0, compare=False)

    @property
    def points_checked(self) -> int:
        return len(self.points)

    @property
    def violations(self) -> list[tuple[PointVerdict, OracleVerdict]]:
        """(point, verdict) for every violated oracle, in point order."""
        return [
            (point, verdict)
            for point in self.points
            for verdict in point.violations
        ]

    @property
    def unexpected_violations(self) -> list[tuple[PointVerdict, OracleVerdict]]:
        return [
            (point, verdict)
            for point, verdict in self.violations
            if verdict.guaranteed
        ]

    @property
    def oracle_names(self) -> list[str]:
        names: list[str] = []
        for point in self.points:
            for verdict in point.verdicts:
                if verdict.oracle not in names:
                    names.append(verdict.oracle)
        return names

    @property
    def first_witness(self) -> str:
        violations = self.violations
        if not violations:
            return "-"
        point, verdict = violations[0]
        return f"[point {point.index}/{verdict.oracle}] {verdict.witness}"


#: Columns of the per-cell summary table.
SUMMARY_COLUMNS = (
    "device",
    "config",
    "workload",
    "barrier_mode",
    "seed",
    "faults",
    "strategy",
    "boundaries",
    "points_checked",
    "oracles",
    "violations",
    "unexpected",
    "first_witness",
)

#: Columns of the violation-witness table.
VIOLATION_COLUMNS = (
    "device",
    "config",
    "workload",
    "barrier_mode",
    "faults",
    "point",
    "boundary_kind",
    "time_ms",
    "oracle",
    "guaranteed",
    "witness",
)


def _mode_label(spec) -> str:
    return spec.barrier_mode or "default"


def _fault_label(spec) -> str:
    return getattr(spec, "fault_label", "-") or "-"


def summary_result(reports: Sequence[CellReport]) -> ExperimentResult:
    """One row per explored cell: budget, verdict counts, first witness."""
    result = ExperimentResult(
        name="crashcheck",
        description="systematic crash-point exploration and recovery verification",
        columns=SUMMARY_COLUMNS,
        notes=(
            "violations on cells whose barrier mode does not guarantee the "
            "property (unexpected=0) witness legacy behaviour, not bugs"
        ),
    )
    for report in reports:
        spec = report.spec
        result.add_row(
            spec.device,
            spec.config or "raw-block",
            spec.workload,
            _mode_label(spec),
            spec.seed,
            _fault_label(spec),
            report.strategy,
            report.boundaries_total,
            report.points_checked,
            " ".join(report.oracle_names) or "-",
            len(report.violations),
            len(report.unexpected_violations),
            report.first_witness,
        )
    return result


def violations_result(reports: Sequence[CellReport]) -> ExperimentResult:
    """One row per violated oracle, with the concrete witness."""
    result = ExperimentResult(
        name="crashcheck-violations",
        description="every violated oracle with its witness, in point order",
        columns=VIOLATION_COLUMNS,
    )
    for report in reports:
        spec = report.spec
        for point, verdict in report.violations:
            witness = verdict.witness or "-"
            if point.trace_tail:
                witness += " || trace tail: " + " | ".join(point.trace_tail)
            result.add_row(
                spec.device,
                spec.config or "raw-block",
                spec.workload,
                _mode_label(spec),
                _fault_label(spec),
                point.index,
                point.kind,
                point.time / MSEC,
                verdict.oracle,
                verdict.guaranteed,
                witness,
            )
    return result
