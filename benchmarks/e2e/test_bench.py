"""Self-test of the end-to-end benchmark, at tiny sizes.

    python -m pytest benchmarks/e2e -q

Runs every workload with a fraction of a second of timed work per repeat,
untraced and traced, and checks what the benchmark promises: metric names
and units as BENCHMARK.json lists them, exact repeatability of the
simulated outputs, tracing that only observes, per-layer rows that add up,
and failures and hangs that stay contained in their own workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import compare
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SECONDS = "0.3"


def run_main(*args: str) -> tuple[int, list[str]]:
    """Run the benchmark in-process; return its exit code and stdout lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--seconds", SECONDS, *args])
    return code, out.getvalue().splitlines()


def digests_and_counters(document: dict, traced: bool) -> dict:
    return {
        name: [
            (child["digest"], child["counters"])
            for child in result["children"]
            if child["traced"] == traced
        ]
        for name, result in document["workloads"].items()
    }


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    path = tmp_path_factory.mktemp("untraced") / "run.json"
    code, lines = run_main("--seed", "0", "--json", str(path))
    return code, lines, json.loads(path.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traced")
    code, lines = run_main(
        "--seed", "0", "--trace", "--json", str(directory / "run.json"),
        "--trace-out", str(directory / "trace.json"),
    )
    return (
        code,
        lines,
        json.loads((directory / "run.json").read_text()),
        json.loads((directory / "trace.json").read_text()),
    )


def test_metric_names_and_units_match_benchmark_json(untraced, traced):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        True: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    assert [w["name"] for w in benchmark["workloads"]] == list(bench.WORKLOADS)
    all_units = {"error_rate": "fraction", **dict(bench.END_TO_END), **dict(bench.PER_LAYER)}
    for is_traced, (code, lines) in ((False, untraced[:2]), (True, traced[:2])):
        assert code == 0
        assert bench.summary_units(is_traced) == declared[is_traced]
        summary = json.loads(lines[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] and summary["failed"] == 0
        expected = {
            f"{workload}/{name}": unit
            for workload in bench.WORKLOADS
            for name, unit in declared[is_traced].items()
        }
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
        printed = [line.split() for line in lines[:-1]]
        for workload, name, value, unit in printed:
            assert unit == all_units[name]
            float(value)
        names = {(workload, name) for workload, name, _, _ in printed}
        for workload in bench.WORKLOADS:
            assert {(workload, name) for name in declared[is_traced]} <= names
            assert (workload, "error_rate") in names


def test_setup_and_end_to_end_metrics_are_never_zero(untraced):
    for result in untraced[2]["workloads"].values():
        assert result["error_rate"] == 0.0
        for name, _unit in bench.END_TO_END:
            assert result["metrics"][name] > 0


def test_same_seed_runs_repeat_exactly(untraced, traced):
    first = digests_and_counters(untraced[2], traced=False)
    second = digests_and_counters(traced[2], traced=False)
    assert first == second
    for runs in first.values():
        assert len(runs) == bench.REPEATS
        assert all(run == runs[0] for run in runs)


def test_tracing_only_observes(traced):
    plain = digests_and_counters(traced[2], traced=False)
    profiled = digests_and_counters(traced[2], traced=True)
    for name in bench.WORKLOADS:
        assert len(profiled[name]) == 1
        assert profiled[name][0] == plain[name][0]


def test_layer_rows_sum_to_the_profiled_total(traced):
    trace = traced[3]
    assert set(trace["layers"]) == set(bench.WORKLOADS)
    for cost in trace["layers"].values():
        rows = sum(layer["self_s"] for layer in cost["layers"].values())
        assert rows == pytest.approx(cost["profiled_s"], rel=0.01)
    phases = [span["name"] for span in trace["spans"] if span["parent"] is not None]
    assert {"setup", "warm", "timed", "verify"} <= set(phases)


def test_traced_run_reports_every_layer_metric(traced):
    for name, result in traced[2]["workloads"].items():
        metrics = result["metrics"]
        assert {metric for metric, _ in bench.PER_LAYER} <= set(metrics)
        assert metrics["trace_overhead_pct"] != 0
    crash = traced[2]["workloads"]["crashcheck-bfs"]["metrics"]
    assert crash["crashlab.points"] > 0 and crash["crashlab.checkpoints"] > 0
    ordered = traced[2]["workloads"]["ordered-bfs"]["metrics"]
    assert ordered["fs.journal.commits_per_op"] == 0
    assert traced[2]["workloads"]["fsync-bfs"]["metrics"]["fs.journal.commits_per_op"] > 0


def _plant(tmp_path: Path, monkeypatch, module: str, attribute: str, body: str) -> None:
    """Make every child replace ``module.attribute`` at start-up."""
    (tmp_path / "sitecustomize.py").write_text(
        "try:\n"
        f"    import {module} as target\n"
        "except ImportError:  # the parent process has no simulator on its path\n"
        "    target = None\n"
        "if target is not None:\n"
        "    def planted(*args, **kwargs):\n"
        f"        {body}\n"
        f"    target.{attribute} = planted\n"
    )
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))


def test_a_raising_workload_fails_alone(tmp_path, monkeypatch):
    _plant(tmp_path, monkeypatch, "repro.crashlab", "explore",
           "raise RuntimeError('planted failure')")
    path = tmp_path / "run.json"
    code, lines = run_main(
        "--workload", "fsync-bfs", "--workload", "crashcheck-bfs", "--json", str(path)
    )
    results = json.loads(path.read_text())["workloads"]
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert results["crashcheck-bfs"]["error_rate"] == 1.0
    statuses = [child["status"] for child in results["crashcheck-bfs"]["children"]]
    assert statuses == ["failed"] + ["skipped"] * (bench.REPEATS - 1)
    assert "planted failure" in results["crashcheck-bfs"]["children"][0]["stderr_tail"]
    assert results["fsync-bfs"]["error_rate"] == 0.0
    assert results["fsync-bfs"]["correct"]


def test_a_hung_child_is_killed_at_its_deadline(tmp_path, monkeypatch):
    _plant(tmp_path, monkeypatch, "repro.scenarios.engine", "prepare_spec",
           "__import__('time').sleep(600)")
    record = bench.run_child("fsync-bfs", 0, 50, False, deadline_s=3.0)
    assert record["status"] == "timeout"
    assert record["wall_s"] < 30
    with pytest.raises(ProcessLookupError):
        os.killpg(record["pid"], 0)


def test_exits_without_a_result_when_the_simulator_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_verdicts():
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.compare_metric(steady_a, steady_a, "higher", 0.1)["verdict"] == "within bound"
    slower = [value * 0.8 for value in steady_a]
    assert compare.compare_metric(steady_a, slower, "higher", 0.1)["verdict"] == "regression"
    noisy = [100.0, 150.0, 60.0, 130.0, 80.0]
    assert compare.compare_metric(steady_a, noisy, "higher", 0.1)["verdict"] == "unresolved"
    faster = [value * 1.3 for value in steady_a]
    row = compare.compare_metric(steady_a, faster, "higher", 0.1)
    assert row["verdict"] == "within bound" and row["won"] == 1.0
    assert not row["gain"]  # five pairs are too few to claim a gain
    assert compare.compare_metric(steady_a * 2, faster * 2, "higher", 0.1)["gain"]
    errors = compare.compare_metric([0.0, 0.0], [0.0, 0.01], "lower", 0.0)
    assert errors["verdict"] == "regression"


def test_layer_map():
    src = os.path.join(os.sep, "x", "src")
    assert layers.module_of_file(
        os.path.join(src, "repro", "fs", "journal", "jbd2.py"), src
    ) == "repro.fs.journal.jbd2"
    assert layers.module_of_file(
        os.path.join(src, "repro", "storage", "__init__.py"), src
    ) == "repro.storage"
    assert layers.module_of_file(str(HERE / "bench.py"), src) == ""
    expected = {
        "repro.simulation.engine": "simulation",
        "repro.fs.barrierfs": "fs",
        "repro.fs.journal.dual_mode": "fs.journal",
        "repro.block.scheduler.epoch": "block",
        "repro.storage.ftl": "storage",
        "repro.storage.crash": "crashlab",
        "repro.core.verification": "crashlab",
        "repro.snapshot": "crashlab",
        "repro.analysis.measure": "apps",
        "repro.core.stack": "harness",
        "repro.trace.tracer": "harness",
        "heapq": "python",
    }
    for module, layer in expected.items():
        assert layers.layer_of_module(module) == layer
