"""Cross-layer IO tracing and streaming metrics.

The observability plane of the reproduction: install a
:class:`~repro.trace.tracer.Tracer` over a built stack to collect typed
spans (fs syscalls, journal commits, block request legs, device command
legs, flash program rounds) into a bounded ring buffer plus a metrics
registry with exact span-duration percentiles (8 B per observed duration),
then export a Perfetto-loadable Chrome trace and the paper's per-stage
fsync latency breakdown.  See ``docs/OBSERVABILITY.md``.
"""

from repro.trace.export import (
    breakdown_result,
    chrome_trace,
    write_chrome_trace,
)
from repro.trace.metrics import MetricsRegistry
from repro.trace.spans import LAYERS, Span, SpanBuffer, TraceContext
from repro.trace.tracer import Tracer

__all__ = [
    "LAYERS",
    "MetricsRegistry",
    "Span",
    "SpanBuffer",
    "TraceContext",
    "Tracer",
    "breakdown_result",
    "chrome_trace",
    "write_chrome_trace",
]
