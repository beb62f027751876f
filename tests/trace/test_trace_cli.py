"""The ``runner trace`` command line and the trace flags of its siblings
(``sweep --metrics``, ``check --trace-tail``)."""

import hashlib
import json

import pytest

from repro.experiments.runner import check_main, sweep_main, trace_main
from repro.trace.export import BREAKDOWN_STAGES


#: sha256 of the ``trace.json`` that ``runner trace`` writes for two cells,
#: captured before condition waits stopped building Events: the trace-smoke
#: cell and the ordering-only BFS-OD ``fdatabarrier`` loop.  A hooked stack
#: keeps its own milestone wiring, so spans and their order must not move.
TRACE_PINS = {
    ("--config", "BFS-DR", "--barrier-mode", "in-order-writeback"):
        "c664cea5212f0e0e7ea6107ecfec25192fd8600a09afc2adda487a2d3284c420",
    ("--config", "BFS-OD", "--param", "sync_call='fdatabarrier'"):
        "30e37d272ffb84f8104920fc5958758f10729a22a5bd65afe54d1a7eec03c4eb",
}


@pytest.mark.parametrize("cell", list(TRACE_PINS))
def test_trace_export_is_pinned(cell, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    trace_main(["--workload", "sync-loop", *cell, "--output", str(trace_path)])
    capsys.readouterr()
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == TRACE_PINS[cell]


class TestTraceCLI:
    def test_acceptance_cell_emits_valid_trace_and_breakdown(self, tmp_path, capsys):
        # The PR's acceptance command: sync-loop on BFS-DR with --breakdown.
        trace_path = tmp_path / "trace.json"
        trace_main([
            "--workload", "sync-loop",
            "--config", "BFS-DR",
            "--barrier-mode", "in-order-writeback",
            "--scale", "0.1",
            "--output", str(trace_path),
            "--breakdown", "--format", "json",
        ])
        captured = capsys.readouterr().out

        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        assert complete, "trace exported no spans"
        assert all(event["dur"] >= 0.0 for event in complete)
        assert {event["args"]["name"] for event in events if event["ph"] == "M"} >= {
            "fs", "journal", "block", "device", "flash"
        }

        # Stdout: the table list as JSON, then the human summary line.
        end = captured.rindex("\n]") + 2
        (breakdown,) = json.loads(captured[:end])
        assert breakdown["name"] == "trace-breakdown"
        for row in breakdown["rows"]:
            record = dict(zip(breakdown["columns"], row))
            total = sum(record[stage] for stage in BREAKDOWN_STAGES)
            assert total == pytest.approx(record["end_to_end"], abs=0.01)
        assert "traced" in captured and "syscall journeys" in captured
        assert str(trace_path) in captured

    def test_metrics_table_is_emitted_on_request(self, capsys):
        trace_main([
            "--workload", "sync-loop", "--scale", "0.1",
            "--metrics", "--format", "json",
        ])
        out = capsys.readouterr().out
        (table,) = json.loads(out[: out.rindex("\n]") + 2])
        assert table["name"] == "trace-metrics"
        assert table["rows"]

    def test_small_buffer_reports_dropped_spans(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        trace_main([
            "--workload", "sync-loop", "--scale", "0.1",
            "--buffer", "8", "--output", str(trace_path),
        ])
        assert "spans dropped (ring full)" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        assert document["otherData"]["droppedSpans"] > 0
        assert len([e for e in document["traceEvents"] if e["ph"] == "X"]) == 8

    def test_raw_block_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            trace_main(["--workload", "blocklevel"])
        assert "raw block device" in capsys.readouterr().err

    def test_non_positive_buffer_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            trace_main(["--workload", "sync-loop", "--buffer", "0"])
        assert "--buffer must be at least 1" in capsys.readouterr().err


class TestSweepMetricsCLI:
    def run_sweep(self, tmp_path, *argv):
        output = tmp_path / "sweep.json"
        sweep_main([*argv, "--format", "json", "--output", str(output)])
        (table,) = json.loads(output.read_text())
        return table

    def test_metrics_flag_appends_counter_columns(self, tmp_path):
        argv = ("-w", "sync-loop", "--param", "calls=4")
        plain = self.run_sweep(tmp_path, *argv)
        metrics = self.run_sweep(tmp_path, *argv, "--metrics")
        assert "io_errors" not in plain["columns"]  # default shape unchanged
        for column in ("io_errors", "io_retries", "busy_requeues", "commands",
                       "flushes"):
            assert column in metrics["columns"]
        row = dict(zip(metrics["columns"], metrics["rows"][0]))
        assert row["commands"] > 0  # counters came from a real device snapshot
        assert row["io_errors"] == 0
        assert metrics["columns"][-1] == "detail"  # detail stays the last column

    def test_metrics_survive_jobs_sharding(self, tmp_path):
        # Device stats ride WorkloadResult back from pool workers and must
        # agree bit-for-bit with an in-process run.
        argv = ("-w", "sync-loop", "--param", "calls=[3,5]", "--metrics")
        serial = self.run_sweep(tmp_path, *argv)
        sharded = self.run_sweep(tmp_path, *argv, "--jobs", "2")
        assert serial == sharded
        assert len(serial["rows"]) == 2


class TestCrashcheckTraceTail:
    def test_violation_witnesses_carry_the_trace_tail(self, tmp_path):
        output = tmp_path / "report.json"
        argv = [
            "--workload", "sync-loop",
            "--barrier-mode", "none",
            "--strategy", "exhaustive",
            "--param", "calls=12",
            "--format", "json", "--output", str(output),
        ]
        check_main([*argv, "--trace-tail", "6"])
        summary, violations = json.loads(output.read_text())
        row = dict(zip(summary["columns"], summary["rows"][0]))
        assert row["violations"] >= 1
        witness = dict(zip(violations["columns"], violations["rows"][0]))["witness"]
        assert "trace tail:" in witness
        # The tail renders Span.describe() lines, pipe-separated.
        tail = witness.split("trace tail:", 1)[1]
        assert "us)" in tail and tail.count(" | ") >= 1

        # The flag is purely additive: the verdict grid is unchanged.
        check_main(argv)
        plain_summary, plain_violations = json.loads(output.read_text())
        assert plain_summary == summary
        stripped = [row[:-1] for row in violations["rows"]]
        assert [row[:-1] for row in plain_violations["rows"]] == stripped
