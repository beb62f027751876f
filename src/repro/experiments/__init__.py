"""Experiment harness: one module per table/figure of the paper's evaluation.

Every module is a declarative table of :class:`repro.scenarios.ScenarioSpec`
values plus a row formatter, executed by the scenario sweep engine
(:func:`repro.scenarios.run_matrix`).  Each exposes
``run(scale=1.0, ..., jobs=1) -> ExperimentResult``; ``scale`` multiplies
the iteration counts so the same code serves both the quick benchmark suite
and longer, more faithful runs, and ``jobs`` shards the module's own spec
matrix over worker processes.  ``repro.experiments.runner`` runs everything
— and arbitrary ad-hoc matrices via its ``sweep`` subcommand; the tables are
documented in ``docs/EXPERIMENTS.md``.
"""

from repro.experiments import (
    fig1_ordered_vs_buffered,
    fig8_commit_interval,
    fig9_random_write,
    fig10_queue_depth,
    fig11_context_switches,
    fig12_barrierfs_queue_depth,
    fig13_fxmark,
    fig14_sqlite,
    fig15_server_workloads,
    table1_fsync_latency,
)

__all__ = [
    "fig1_ordered_vs_buffered",
    "fig8_commit_interval",
    "fig9_random_write",
    "fig10_queue_depth",
    "fig11_context_switches",
    "fig12_barrierfs_queue_depth",
    "fig13_fxmark",
    "fig14_sqlite",
    "fig15_server_workloads",
    "table1_fsync_latency",
]
