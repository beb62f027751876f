"""The ``runner check --continue`` command line."""

import json

import pytest

from repro.experiments.runner import check_main


def run_cli(tmp_path, *argv):
    output = tmp_path / "report.json"
    check_main(["--continue", *argv, "--format", "json", "--output", str(output)])
    return json.loads(output.read_text())


class TestRecoverycheckCLI:
    def test_contrast_pair_in_order_recovery_vs_none(self, tmp_path):
        # The acceptance contrast: the flushing barrier stack recovers and
        # continues with zero violations, while the nobarrier legacy stack
        # (acks at transfer time, never flushes) loses acked pages — the
        # fsyncgate witness, expected (guaranteed=False) rather than a bug.
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "in-order-recovery",
            "--strategy", "stratified", "--points", "6",
            "--param", "calls=6",
        )
        assert summary["name"] == "recoverycheck"
        assert violations["name"] == "recoverycheck-violations"
        rows = [dict(zip(summary["columns"], row)) for row in summary["rows"]]
        assert [(row["config"], row["barrier_mode"]) for row in rows] == [
            ("BFS-DR", "in-order-recovery"),
            ("EXT4-OD", "none"),
        ]
        barrier, legacy = rows
        assert "recovered-acked-prefix" in barrier["oracles"]
        assert "recovered-continuation-durability" in barrier["oracles"]
        assert barrier["violations"] == 0
        assert legacy["violations"] >= 1
        assert all(row["unexpected"] == 0 for row in rows)
        recovery_witnesses = [
            dict(zip(violations["columns"], row))
            for row in violations["rows"]
            if str(row[violations["columns"].index("oracle")]).startswith("recovered-")
        ]
        assert recovery_witnesses
        assert all(w["guaranteed"] is False for w in recovery_witnesses)

    def test_barrier_aliases_and_case_insensitive_configs(self, tmp_path):
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--config", "ext4-dr",
            "--barrier-mode", "in_order_recovery",
            "--strategy", "stratified", "--points", "3",
            "--param", "calls=4",
        )
        rows = [dict(zip(summary["columns"], row)) for row in summary["rows"]]
        assert sorted(row["config"] for row in rows) == ["BFS-DR", "EXT4-DR"]
        assert all(row["barrier_mode"] == "in-order-recovery" for row in rows)

    def test_barrierfs_with_mode_none_is_a_usage_error(self, capsys):
        # BFS × none cannot build (the order-preserving block layer needs a
        # barrier-capable device); the error points at --config none.
        with pytest.raises(SystemExit):
            check_main([
                "--continue",
                "--workload", "sync-loop",
                "--config", "barrier-dr",
                "--barrier-mode", "none",
            ])
        assert "--config none" in capsys.readouterr().err

    def test_jobs_sharding_is_bit_identical(self, tmp_path):
        argv = (
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--barrier-mode", "in_order_recovery", "--barrier-mode", "plp",
            "--strategy", "stratified", "--points", "6",
            "--param", "calls=6",
        )
        serial = run_cli(tmp_path, *argv, "--jobs", "1")
        sharded = run_cli(tmp_path, *argv, "--jobs", "4")
        assert serial == sharded

    def test_fault_plan_composes_with_the_round_trip(self, tmp_path):
        # Injected media faults void the recovery guarantees conservatively:
        # violations on the faulted cell must all be expected witnesses.
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "barrier-dr",
            "--barrier-mode", "in_order_recovery",
            "--fault", "io-error:p=0.5,op=write",
            "--strategy", "stratified", "--points", "4",
            "--param", "calls=4",
        )
        [row] = [dict(zip(summary["columns"], r)) for r in summary["rows"]]
        assert row["faults"] == "io-error:p=0.5,op=write"
        assert row["points_checked"] > 0
        assert row["unexpected"] == 0

    def test_flush_lies_void_the_durability_promise(self, tmp_path):
        # A lying flush loses acknowledged pages even on the barrier stack:
        # its acked-prefix violations are expected witnesses, not bugs.
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--config", "BFS-DR",
            "--barrier-mode", "in-order-recovery",
            "--fault", "flush-lie",
            "--strategy", "exhaustive",
            "--param", "calls=40",
        )
        [row] = [dict(zip(summary["columns"], r)) for r in summary["rows"]]
        assert row["violations"] > 0
        assert row["unexpected"] == 0
        witnesses = [dict(zip(violations["columns"], r)) for r in violations["rows"]]
        assert {w["oracle"] for w in witnesses} == {
            "recovered-acked-prefix", "recovered-continuation-durability",
        }
        assert all(w["guaranteed"] is False for w in witnesses)

    def test_continuation_flags_reach_the_plan_validation(self, capsys):
        with pytest.raises(SystemExit):
            check_main(
                ["--continue", "--workload", "sync-loop", "--continuation-calls", "0"]
            )
        assert "--continuation-calls" in capsys.readouterr().err

    def test_unknown_config_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(["--continue", "--workload", "sync-loop", "--config", "ZFS"])
        assert "unknown config" in capsys.readouterr().err

    def test_mode_alias_conflicts_with_explicit_mode_axis(self, capsys):
        with pytest.raises(SystemExit):
            check_main([
                "--continue",
                "--workload", "sync-loop",
                "--config", "in-order-recovery",
                "--barrier-mode", "plp",
            ])
        assert "names a barrier mode" in capsys.readouterr().err

    def test_raw_block_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(["--continue", "--workload", "blocklevel"])
        assert "raw block device" in capsys.readouterr().err

    def test_list_prints_recovery_oracles(self, capsys):
        check_main(["--continue", "--list"])
        out = capsys.readouterr().out
        assert "recovered-acked-prefix" in out
        assert "recovered-continuation-durability" in out
        assert "strategies:" in out
