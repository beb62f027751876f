"""Result analysis and reporting helpers."""

from repro.analysis.reporting import ExperimentResult, format_table
from repro.analysis.measure import measure_sync_latency

__all__ = [
    "ExperimentResult",
    "format_table",
    "measure_sync_latency",
]
