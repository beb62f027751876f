"""The ``runner check --fault`` command line (and ``sweep --fault``)."""

import json

import pytest

from repro.experiments.runner import check_main, sweep_main


def run_cli(tmp_path, *argv):
    output = tmp_path / "report.json"
    check_main([*argv, "--format", "json", "--output", str(output)])
    return json.loads(output.read_text())


class TestFaultcheckCLI:
    def test_barrier_mode_config_alias_expands_to_the_contrast_pair(self, tmp_path):
        # Flush lies are harmless where the barrier stack orders persistence
        # without flushes, and witnessed (but expected) on the nobarrier
        # legacy stack, which every check pairs it with.  That stack needs a
        # run long enough for its unordered writes to be caught reordered.
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "in-order-recovery",
            "--fault", "flush-lie",
            "--strategy", "stratified", "--points", "8",
            "--param", "calls=20",
        )
        assert summary["name"] == "faultcheck"
        assert violations["name"] == "faultcheck-violations"
        rows = [dict(zip(summary["columns"], row)) for row in summary["rows"]]
        assert [(row["config"], row["barrier_mode"]) for row in rows] == [
            ("BFS-DR", "in-order-recovery"),
            ("EXT4-OD", "none"),
        ]
        barrier, legacy = rows
        assert barrier["violations"] == 0
        assert legacy["violations"] >= 1
        assert all(row["unexpected"] == 0 for row in rows)
        assert all(row["faults"] == "flush-lie" for row in rows)
        witness = dict(zip(violations["columns"], violations["rows"][0]))
        assert witness["guaranteed"] is False and witness["witness"] != "-"

    def test_torn_writes_are_masked_only_by_recovering_modes(self, tmp_path):
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--barrier-mode", "plp",
            "--barrier-mode", "in_order_writeback",
            "--barrier-mode", "in_order_recovery",
            "--fault", "torn-write",
            "--strategy", "stratified", "--points", "8",
            "--param", "calls=6",
        )
        by_mode = {
            row["barrier_mode"]: row
            for row in (dict(zip(summary["columns"], r)) for r in summary["rows"])
        }
        assert by_mode["plp"]["violations"] == 0
        assert by_mode["in-order-recovery"]["violations"] == 0
        assert by_mode["in-order-writeback"]["violations"] >= 1
        # Torn media voids the writeback guarantee, so its violations are
        # expected witnesses, not oracle bugs.
        assert all(row["unexpected"] == 0 for row in by_mode.values())

    def test_jobs_sharding_is_bit_identical(self, tmp_path):
        argv = (
            "--workload", "sync-loop",
            "--config", "in-order-recovery",
            "--fault", "flush-lie",
            "--strategy", "stratified", "--points", "8",
            "--param", "calls=6",
        )
        serial = run_cli(tmp_path, *argv, "--jobs", "1")
        sharded = run_cli(tmp_path, *argv, "--jobs", "4")
        assert serial == sharded

    def test_malformed_fault_plan_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(
                ["--workload", "sync-loop", "--fault", "torn-write:p=2"]
            )
        assert "must be in [0, 1]" in capsys.readouterr().err

    def test_unknown_fault_kind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(["--workload", "sync-loop", "--fault", "gamma-ray"])
        assert "unknown fault kind" in capsys.readouterr().err

    def test_mode_alias_conflicts_with_explicit_mode_axis(self, capsys):
        with pytest.raises(SystemExit):
            check_main([
                "--workload", "sync-loop",
                "--config", "in-order-recovery",
                "--barrier-mode", "plp",
                "--fault", "flush-lie",
            ])
        assert "names a barrier mode" in capsys.readouterr().err

    def test_raw_block_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(["--workload", "blocklevel", "--fault", "flush-lie"])
        assert "raw block device" in capsys.readouterr().err

    def test_list_prints_fault_kinds_oracles_and_strategies(self, capsys):
        check_main(["--list"])
        out = capsys.readouterr().out
        assert "strategies:" in out and "exhaustive" in out
        assert "torn-write" in out and "flush-lie" in out
        assert "committed-log-prefix" in out


class TestSweepFaultFlag:
    def test_sweep_runs_with_a_fault_plan_and_labels_the_row(self, tmp_path, capsys):
        output = tmp_path / "sweep.json"
        sweep_main([
            "--workload", "sync-loop",
            "--fault", "torn-write:p=0.25",
            "--param", "calls=6",
            "--format", "json", "--output", str(output),
        ])
        [table] = json.loads(output.read_text())
        row = dict(zip(table["columns"], table["rows"][0]))
        assert row["faults"] == "torn-write:p=0.25"
        assert row["operations"] > 0

    def test_sweep_rejects_faults_on_raw_block_workloads(self, capsys):
        with pytest.raises(SystemExit):
            sweep_main(["--workload", "blocklevel", "--fault", "torn-write"])
        assert "--fault needs a filesystem stack" in capsys.readouterr().err
