"""Trace exporters: Chrome trace-event JSON and the breakdown table."""

import json

import pytest

from repro.scenarios.engine import run_spec
from repro.scenarios.spec import ScenarioSpec
from repro.trace import (
    LAYERS,
    Span,
    TraceContext,
    Tracer,
    breakdown_result,
    chrome_trace,
)
from repro.trace.export import BREAKDOWN_STAGES


def traced_run(workload="sync-loop", config="BFS-DR", mode="in-order-writeback"):
    spec = ScenarioSpec(
        workload=workload, config=config, device="plain-ssd",
        barrier_mode=mode, scale=0.1,
    )
    tracer = Tracer()
    run_spec(spec, tracer=tracer)
    return tracer


class TestChromeTrace:
    def test_document_structure(self):
        spans = [
            Span(seq=1, layer="fs", op="fsync", start=10.0, end=30.0, ctx=1,
                 detail={"issuer": "app"}),
            Span(seq=2, layer="device", op="write", start=12.0, end=20.0,
                 ctx=1, epoch=3),
        ]
        document = chrome_trace(spans, label="unit")
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        # One process-name record plus one thread lane per layer.
        assert len(metadata) == 1 + len(LAYERS)
        assert metadata[0]["args"]["name"] == "unit"
        lanes = {e["args"]["name"]: e["tid"] for e in metadata[1:]}
        assert lanes == {layer: i + 1 for i, layer in enumerate(LAYERS)}
        assert [e["name"] for e in complete] == ["fs.fsync", "device.write"]
        first, second = complete
        assert first["ts"] == 10.0 and first["dur"] == 20.0
        assert first["tid"] == lanes["fs"]
        assert first["args"] == {"seq": 1, "ctx": 1, "issuer": "app"}
        assert second["args"] == {"seq": 2, "ctx": 1, "epoch": 3}

    def test_dropped_spans_are_reported(self):
        document = chrome_trace([], dropped=7)
        assert document["otherData"] == {"droppedSpans": 7}
        assert "otherData" not in chrome_trace([], dropped=0)

    def test_document_round_trips_through_json(self):
        tracer = traced_run()
        count = len(tracer.spans)
        assert count > 0
        document = json.loads(json.dumps(chrome_trace(
            tracer.spans, label="round-trip", dropped=tracer.spans.dropped
        )))
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == count
        lanes = {i + 1 for i in range(len(LAYERS))}
        for event in complete:
            assert event["tid"] in lanes
            assert event["dur"] >= 0.0


class TestBreakdown:
    def test_stage_columns_sum_to_end_to_end(self):
        tracer = traced_run()
        result = breakdown_result(tracer.contexts)
        assert result.columns == ("syscall", "calls") + BREAKDOWN_STAGES + ("end_to_end",)
        rows = result.as_dicts()
        assert rows
        for row in rows:
            total = sum(row[stage] for stage in BREAKDOWN_STAGES)
            # Stage means are rounded to 3 decimals in the table, so the
            # telescoping identity holds to rounding accumulation.
            assert total == pytest.approx(row["end_to_end"], abs=0.01)
            assert row["calls"] > 0

    def test_open_journeys_are_excluded_and_noted(self):
        closed = TraceContext(ctx_id=1, op="fsync", issuer="app", start=0.0)
        closed.note_issue(5.0)
        closed.note_dispatch(10.0)
        closed.note_transfer(40.0)
        closed.end = 50.0
        still_open = TraceContext(ctx_id=2, op="fsync", issuer="app", start=60.0)
        result = breakdown_result([closed, still_open])
        rows = result.as_dicts()
        assert len(rows) == 1
        assert rows[0]["calls"] == 1
        assert rows[0]["submit"] == 5.0
        assert rows[0]["persist"] == 10.0
        assert "1 journeys still open" in result.notes

    def test_label_lands_in_the_description(self):
        result = breakdown_result([], label="sync-loop/BFS-DR")
        assert "sync-loop/BFS-DR" in result.description
