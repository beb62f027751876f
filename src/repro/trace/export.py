"""Trace exporters: Chrome trace-event JSON and the breakdown table.

``chrome_trace`` renders a tracer's span buffer in the Chrome trace-event
format (the ``traceEvents`` array of complete ``"ph": "X"`` events) that
``chrome://tracing`` and https://ui.perfetto.dev load directly.  Each IO
layer gets its own thread lane, ordered top-of-stack first, so the
waterfall reads fs → journal → block → device → flash.

``breakdown_result`` aggregates the per-syscall stage decompositions
(:meth:`repro.trace.spans.TraceContext.stage_deltas`) into the paper's
fsync-latency breakdown: for each syscall type, the mean time spent before
the first block issue (``submit``), between issue and the last scheduler
dispatch (``dispatch``), between dispatch and the last DMA completion
(``transfer``), and from there to syscall return (``persist``).  The four
stage columns sum exactly to the end-to-end column, row by row — the
telescoping property the CI trace-smoke job asserts.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.reporting import ExperimentResult
from repro.trace.spans import LAYERS, Span, TraceContext

#: Stage columns of the breakdown table, in journey order.
BREAKDOWN_STAGES = ("submit", "dispatch", "transfer", "persist")

#: Synthetic pid for the single simulated "process" in the trace.
_TRACE_PID = 1


def chrome_trace(
    spans: Iterable[Span],
    *,
    label: str = "repro",
    dropped: int = 0,
) -> dict:
    """Render spans as a Chrome trace-event JSON document (a dict).

    Timestamps are simulated microseconds, which is exactly the unit the
    trace-event format expects — no scaling needed.
    """
    lanes = {layer: index + 1 for index, layer in enumerate(LAYERS)}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _TRACE_PID,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for layer, tid in lanes.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"name": layer},
            }
        )
    for span in spans:
        tid = lanes.get(span.layer)
        if tid is None:  # never happens for tracer-emitted spans
            tid = len(lanes) + 1
        args: dict[str, object] = {"seq": span.seq}
        if span.ctx is not None:
            args["ctx"] = span.ctx
        if span.epoch is not None:
            args["epoch"] = span.epoch
        args.update(span.detail)
        events.append(
            {
                "name": f"{span.layer}.{span.op}",
                "cat": span.layer,
                "ph": "X",
                "ts": span.start,
                "dur": span.duration,
                "pid": _TRACE_PID,
                "tid": tid,
                "args": args,
            }
        )
    document: dict[str, object] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if dropped:
        document["otherData"] = {"droppedSpans": dropped}
    return document


def breakdown_result(
    contexts: Iterable[TraceContext],
    *,
    label: Optional[str] = None,
) -> ExperimentResult:
    """Aggregate syscall journeys into the per-stage latency breakdown.

    One row per syscall type; the stage columns are means over every closed
    journey of that type, in microseconds, and sum (telescoping, so exactly
    up to float addition order) to the end-to-end mean.
    """
    buckets: dict[str, list[dict[str, float]]] = {}
    open_journeys = 0
    for ctx in contexts:
        deltas = ctx.stage_deltas()
        if deltas is None:
            open_journeys += 1
            continue
        buckets.setdefault(ctx.op, []).append(deltas)
    description = "per-stage fsync decomposition (mean us per syscall stage)"
    if label:
        description += f" — {label}"
    result = ExperimentResult(
        name="trace-breakdown",
        description=description,
        columns=("syscall", "calls") + BREAKDOWN_STAGES + ("end_to_end",),
    )
    for op in sorted(buckets):
        journeys = buckets[op]
        count = len(journeys)
        means = [
            sum(j[stage] for j in journeys) / count for stage in BREAKDOWN_STAGES
        ]
        end_to_end = sum(j["end_to_end"] for j in journeys) / count
        result.add_row(op, count, *(round(m, 3) for m in means), round(end_to_end, 3))
    notes = []
    if open_journeys:
        notes.append(f"{open_journeys} journeys still open (excluded)")
    notes.append("stage columns sum to end_to_end (telescoping decomposition)")
    result.notes = "; ".join(notes)
    return result
