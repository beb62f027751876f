"""ScenarioSpec, sweep() expansion and the matrix sweep engine."""

import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro.scenarios import (
    ScenarioSpec,
    build_spec_stack,
    run_matrix,
    run_spec,
    run_specs,
    sweep,
    sweep_table,
)
from repro.scenarios.engine import pool_map
from repro.storage.barrier_modes import BarrierMode


def _pid_and_item(item):
    """The worker's pid and the item; item 0 finishes last in a pool."""
    if item == 0:
        time.sleep(0.05)
    return os.getpid(), item


def _reciprocal(item):
    return 1 / item


def _fingerprint(result):
    """Everything a WorkloadResult observes, in comparable form."""
    return (
        result.workload,
        result.operations,
        result.elapsed_usec,
        list(result.latencies.samples) if result.latencies is not None else None,
        sorted((key, repr(value)) for key, value in result.extra.items()),
        result.device_stats,
    )


def _measured_sweep(workload, config, key, values, warmup=60):
    """Specs that differ only in the measured-phase param ``key``."""
    return [
        ScenarioSpec(
            workload=workload, config=config, device="ufs",
            params={f"warmup_{key}": warmup, key: value}, label=f"{key}={value}",
        )
        for value in values
    ]


class TestScenarioSpec:
    def test_defaults(self):
        spec = ScenarioSpec(workload="sync-loop")
        assert spec.config == "EXT4-DR"
        assert spec.device == "plain-ssd"
        assert spec.barrier_mode is None
        assert spec.seed == 0 and spec.scale == 1.0
        assert spec.display_label == "EXT4-DR"

    def test_params_are_copied_not_aliased(self):
        params = {"calls": 5}
        spec = ScenarioSpec(workload="sync-loop", params=params)
        params["calls"] = 99
        assert spec.params["calls"] == 5

    def test_barrier_mode_validated_and_normalised(self):
        spec = ScenarioSpec(workload="sync-loop", barrier_mode=BarrierMode.PLP)
        assert spec.barrier_mode == "plp"
        with pytest.raises(ValueError):
            ScenarioSpec(workload="sync-loop", barrier_mode="bogus-mode")

    def test_with_and_describe(self):
        spec = ScenarioSpec(workload="varmail", config="OptFS", device="ufs")
        moved = spec.with_(device="plain-ssd", seed=4)
        assert moved.device == "plain-ssd" and moved.seed == 4
        assert spec.device == "ufs"
        assert "varmail" in moved.describe() and "seed=4" in moved.describe()

    def test_specs_are_picklable(self):
        spec = ScenarioSpec(
            workload="sync-loop", barrier_mode="plp", params={"calls": 3},
            stack_overrides={"track_queue_depth": True},
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.params["calls"] == 3

    def test_specs_are_immutable_and_hashable(self):
        spec = ScenarioSpec(workload="sync-loop", params={"calls": 3})
        with pytest.raises(TypeError):
            spec.params["calls"] = 9
        with pytest.raises(Exception):  # FrozenInstanceError
            spec.device = "ufs"
        assert spec in {spec}
        assert hash(spec) == hash(ScenarioSpec(workload="sync-loop", params={"calls": 3}))
        # Unhashable param values (legal --param literals) must not break it.
        assert isinstance(
            hash(ScenarioSpec(workload="sync-loop", params={"xs": [1, 2]})), int
        )


class TestSweepExpansion:
    def test_full_product_in_device_major_order(self):
        specs = sweep(
            workloads=["sync-loop", "sqlite"],
            configs=["EXT4-DR", "BFS-DR", "OptFS"],
            devices=["ufs", "plain-ssd"],
        )
        assert len(specs) == 2 * 3 * 2
        assert [s.device for s in specs[:6]] == ["ufs"] * 6
        assert [s.config for s in specs[:2]] == ["EXT4-DR", "EXT4-DR"]
        assert [s.workload for s in specs[:2]] == ["sync-loop", "sqlite"]

    def test_extra_axes_and_params_propagate(self):
        specs = sweep(
            workloads=["sync-loop"],
            barrier_modes=[None, "plp"],
            seeds=[0, 1],
            scale=0.5,
            params={"calls": 7},
        )
        assert len(specs) == 4
        assert {s.barrier_mode for s in specs} == {None, "plp"}
        assert {s.seed for s in specs} == {0, 1}
        assert all(s.scale == 0.5 and s.params["calls"] == 7 for s in specs)


class TestEngine:
    def test_unknown_axes_fail_fast(self):
        with pytest.raises(KeyError, match="unknown workload"):
            run_spec(ScenarioSpec(workload="postgres"))
        with pytest.raises(KeyError, match="unknown stack configuration"):
            run_spec(ScenarioSpec(workload="sync-loop", config="EXT5"))
        with pytest.raises(KeyError, match="unknown device"):
            run_spec(
                ScenarioSpec(
                    workload="blocklevel", config=None, device="floppy",
                    params={"scenario": "X", "num_writes": 5},
                )
            )
        with pytest.raises(KeyError, match="unknown workload"):
            run_specs(
                [ScenarioSpec(workload="sync-loop"), ScenarioSpec(workload="nope")],
                jobs=4,
            )
        with pytest.raises(KeyError, match="unknown device"):
            run_specs(
                [ScenarioSpec(workload="sync-loop"),
                 ScenarioSpec(workload="sync-loop", device="floppy")],
                jobs=4,
            )

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_run_specs_is_one_run_spec_per_spec_in_spec_order(self, jobs):
        # Latency samples hang on every RNG draw and the fault plan's
        # counters on every injected site, so equal fingerprints mean each
        # spec ran exactly as it does alone, whichever process ran it.
        sync = ScenarioSpec(
            workload="sync-loop", config="BFS-DR", device="ufs",
            params={"warmup_calls": 20, "calls": 10}, faults=("torn-write:p=0.4",),
        )
        specs = [
            sync,
            ScenarioSpec(workload="varmail", config="EXT4-DR", device="ufs", scale=0.05),
            sync.with_(params={"warmup_calls": 20, "calls": 25}),
        ]
        outcomes = run_specs(specs, jobs=jobs)
        assert [outcome.spec for outcome in outcomes] == specs
        for outcome, spec in zip(outcomes, specs):
            assert _fingerprint(outcome.result) == _fingerprint(run_spec(spec).result)

    @pytest.mark.parametrize("config", ["EXT4-DR", "BFS-DR"])
    def test_a_sync_loop_sweep_matches_lone_runs(self, config):
        # EXT4-DR services SIMPLE commands with an RNG draw on every
        # selection, so equal samples mean each point's device stream
        # started from the spec's own seed, not from a neighbour's state.
        specs = _measured_sweep("sync-loop", config, "calls", (10, 25))
        for outcome, spec in zip(run_specs(specs), specs):
            assert _fingerprint(outcome.result) == _fingerprint(run_spec(spec).result)

    def test_a_postgres_wal_sweep_matches_lone_runs(self):
        specs = _measured_sweep("postgres-wal", "BFS-DR", "commits", (5, 15), warmup=40)
        for outcome, spec in zip(run_specs(specs), specs):
            assert _fingerprint(outcome.result) == _fingerprint(run_spec(spec).result)

    def test_a_sweep_without_warmup_matches_lone_runs(self):
        specs = _measured_sweep("sync-loop", "EXT4-DR", "calls", (10, 15), warmup=0)
        for outcome, spec in zip(run_specs(specs, jobs=2), specs):
            assert _fingerprint(outcome.result) == _fingerprint(run_spec(spec).result)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_spec_raises_in_the_caller(self, jobs):
        # The constructor never reads ``calls``; run() does, and its
        # ValueError must reach the caller from a pool worker too.
        good = ScenarioSpec(workload="sync-loop", config="BFS-DR", params={"calls": 5})
        bad = good.with_(params={"calls": "x"})
        with pytest.raises(ValueError, match="calls"):
            run_specs([good, bad], jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_build_spec_stack_applies_every_axis(self):
        spec = ScenarioSpec(
            workload="sync-loop", config="BFS-DR", device="supercap-ssd",
            barrier_mode="transactional", seed=11,
            stack_overrides={"track_queue_depth": True},
        )
        stack = build_spec_stack(spec)
        assert stack.config.device == "supercap-ssd"
        assert stack.config.seed == 11
        assert stack.config.track_queue_depth
        assert stack.device.barrier_mode is BarrierMode.TRANSACTIONAL

    def test_barrier_mode_string_in_stack_overrides_is_coerced(self):
        stack = build_spec_stack(ScenarioSpec(
            workload="sync-loop", config="BFS-DR",
            stack_overrides={"barrier_mode": "plp"},
        ))
        assert stack.device.barrier_mode is BarrierMode.PLP

    def test_stackless_spec_rejects_stack_build(self):
        with pytest.raises(ValueError, match="no stack configuration"):
            build_spec_stack(ScenarioSpec(workload="blocklevel", config=None))

    def test_stack_axes_on_stackless_workload_are_refused(self):
        # A blocklevel sweep over EXT4-DR vs BFS-DR must not produce rows
        # labelled as a filesystem comparison that are the same raw run.
        with pytest.raises(ValueError, match="raw block device"):
            run_spec(ScenarioSpec(
                workload="blocklevel", config="EXT4-DR",
                params={"scenario": "X", "num_writes": 5},
            ))
        with pytest.raises(ValueError, match="barrier_mode"):
            run_spec(ScenarioSpec(
                workload="ordered-vs-buffered", config=None, device="A",
                barrier_mode="plp", params={"num_writes": 5},
            ))

    def test_sweep_rows_distinguish_barrier_mode(self):
        specs = sweep(
            workloads=["sync-loop"], configs=["BFS-DR"],
            barrier_modes=["in-order-recovery", "in-order-writeback"],
            params={"calls": 5},
        )
        rows = sweep_table(specs).as_dicts()
        assert [row["barrier_mode"] for row in rows] == [
            "in-order-recovery", "in-order-writeback",
        ]
        assert rows[0] != rows[1]

    def test_run_matrix_needs_exactly_one_extractor(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_matrix(name="x", description="d", columns=("a",), specs=[])
        with pytest.raises(ValueError, match="exactly one"):
            run_matrix(
                name="x", description="d", columns=("a",), specs=[],
                row=lambda o: (1,), rows=lambda os: [],
            )

    def test_novel_matrix_outside_any_experiment_module(self):
        # OptFS × ufs × varmail appears in none of the 11 experiment modules;
        # the sweep engine runs it anyway (the acceptance criterion).
        specs = sweep(
            workloads=["varmail"], configs=["OptFS"], devices=["ufs"], scale=0.05
        )
        table = sweep_table(specs)
        assert len(table.rows) == 1
        row = table.as_dicts()[0]
        assert row["config"] == "OptFS" and row["workload"] == "varmail"
        assert row["operations"] > 0 and row["ops_per_sec"] > 0

    def test_sharded_sweep_is_bit_identical_to_serial(self):
        specs = sweep(
            workloads=["sync-loop"],
            configs=["EXT4-DR", "BFS-DR"],
            devices=["plain-ssd", "supercap-ssd"],
            params={"calls": 10, "sync_call": "fsync"},
        )
        serial = sweep_table(specs, jobs=1)
        sharded = sweep_table(specs, jobs=2)
        assert serial.rows == sharded.rows


class TestPoolMap:
    def test_one_worker_runs_in_the_calling_process(self):
        me = os.getpid()
        assert pool_map(_pid_and_item, [1, 2, 3], jobs=1) == [(me, 1), (me, 2), (me, 3)]
        assert pool_map(_pid_and_item, [7], jobs=4) == [(me, 7)]
        assert pool_map(_pid_and_item, [], jobs=4) == []

    def test_a_pool_returns_results_in_input_order(self):
        items = [0, 1, 2, 3, 4]
        results = pool_map(_pid_and_item, items, jobs=2)
        assert [item for _, item in results] == items
        assert os.getpid() not in {pid for pid, _ in results}
        assert multiprocessing.active_children() == []

    def test_there_is_at_most_one_worker_per_item(self):
        results = pool_map(_pid_and_item, [0, 1], jobs=8)
        assert [item for _, item in results] == [0, 1]
        assert len({pid for pid, _ in results}) <= 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_item_raises_and_leaves_no_worker_behind(self, jobs):
        with pytest.raises(ZeroDivisionError):
            pool_map(_reciprocal, [1, 2, 0, 4], jobs=jobs)
        assert multiprocessing.active_children() == []


class TestMachineReadableOutput:
    def _table(self):
        specs = sweep(workloads=["sync-loop"], params={"calls": 5})
        return sweep_table(specs)

    def test_to_json_round_trips(self):
        table = self._table()
        data = json.loads(table.to_json())
        assert data["columns"] == list(table.columns)
        assert data["rows"] == [list(row) for row in table.rows]

    def test_to_csv_has_header_and_rows(self):
        table = self._table()
        lines = table.to_csv().strip().splitlines()
        assert lines[0].startswith("device,config,workload")
        assert len(lines) == 1 + len(table.rows)


class TestRunnerCLI:
    def test_sweep_subcommand_writes_json(self, tmp_path, capsys):
        from repro.experiments.runner import main

        output = tmp_path / "sweep.json"
        main([
            "sweep", "-w", "sync-loop", "-c", "BFS-OD", "-d", "ufs",
            "--barrier-mode", "in_order_writeback",  # underscores accepted
            "--param", "calls=5", "--format", "json", "--output", str(output),
        ])
        [table] = json.loads(output.read_text())
        assert table["name"] == "sweep"
        assert len(table["rows"]) == 1
        assert table["rows"][0][:3] == ["ufs", "BFS-OD", "sync-loop"]
        row = dict(zip(table["columns"], table["rows"][0]))
        assert row["barrier_mode"] == "in-order-writeback"

    def test_module_run_prints_no_runpy_warning(self):
        # `python -m repro.experiments.runner` must not find the runner
        # already imported by its package (runpy's RuntimeWarning).
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "sweep", "--list"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert "stack configs:" in completed.stdout
        assert "RuntimeWarning" not in completed.stderr

    def test_sweep_list_prints_registries(self, capsys):
        from repro.experiments.runner import main

        main(["sweep", "--list"])
        printed = capsys.readouterr().out
        assert "stack configs:" in printed and "sync-loop" in printed

    def test_malformed_param_is_a_usage_error(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "-w", "sync-loop", "--param", "bad"])
        assert exit_info.value.code == 2
        assert "key=value" in capsys.readouterr().err

    def test_params_route_to_the_workloads_that_accept_them(self, tmp_path):
        from repro.experiments.runner import main

        output = tmp_path / "routed.json"
        main([
            "sweep", "-w", "sync-loop", "-w", "sqlite",
            "--param", "calls=5", "--param", "inserts=4",
            "--format", "json", "--output", str(output),
        ])
        [table] = json.loads(output.read_text())
        by_workload = {
            row[table["columns"].index("workload")]:
            row[table["columns"].index("operations")]
            for row in table["rows"]
        }
        assert by_workload == {"sync-loop": 5, "sqlite": 4}

    def test_orphan_param_is_a_usage_error(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "-w", "sync-loop", "--param", "inserts=4"])
        assert exit_info.value.code == 2
        assert "inserts" in capsys.readouterr().err

    def test_cli_normalises_stack_axes_off_raw_block_workloads(self, tmp_path):
        from repro.experiments.runner import main

        output = tmp_path / "raw.json"
        main([
            "sweep", "-w", "blocklevel", "-c", "EXT4-DR", "-c", "BFS-DR",
            "--param", "scenario=X", "--param", "num_writes=10",
            "--format", "json", "--output", str(output),
        ])
        [table] = json.loads(output.read_text())
        # Both configs collapse to one honest raw-block row, not two
        # identical rows masquerading as a filesystem comparison.
        assert len(table["rows"]) == 1
        assert table["rows"][0][1] == "raw-block"

    def test_extras_only_workloads_surface_their_metrics(self):
        specs = sweep(
            workloads=["ordered-vs-buffered"], configs=[None], devices=["A"],
            params={"num_writes": 25},
        )
        row = sweep_table(specs).as_dicts()[0]
        assert "ratio_percent=" in row["detail"]
        assert "ordered_iops=" in row["detail"]

    def test_legacy_mode_with_csv_format(self, tmp_path):
        from repro.experiments.runner import main

        output = tmp_path / "tables.csv"
        main(["0.05", "--only", "fig12", "--format", "csv", "--output", str(output)])
        text = output.read_text()
        assert text.startswith("# Fig. 12")
        assert "guarantee,sync_call" in text
