"""The ``runner check`` command line."""

import json

import pytest

from repro.experiments.runner import check_main, sweep_main, trace_main


def run_cli(tmp_path, *argv):
    output = tmp_path / "report.json"
    check_main([*argv, "--format", "json", "--output", str(output)])
    return json.loads(output.read_text())


class TestCrashcheckCLI:
    def test_barrier_cell_reports_zero_violations(self, tmp_path):
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--barrier-mode", "in_order_recovery",  # underscores accepted
            "--strategy", "exhaustive",
            "--param", "calls=6",
        )
        assert summary["name"] == "crashcheck"
        assert violations["name"] == "crashcheck-violations"
        row = dict(zip(summary["columns"], summary["rows"][0]))
        assert row["barrier_mode"] == "in-order-recovery"
        assert row["violations"] == 0
        assert row["unexpected"] == 0
        assert row["points_checked"] == row["boundaries"] > 0
        assert violations["rows"] == []

    def test_legacy_cell_reports_witnessed_violations(self, tmp_path):
        summary, violations = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--barrier-mode", "none",
            "--strategy", "exhaustive",
            "--param", "calls=12",
        )
        row = dict(zip(summary["columns"], summary["rows"][0]))
        assert row["violations"] >= 1
        assert row["unexpected"] == 0
        witness = dict(zip(violations["columns"], violations["rows"][0]))
        assert "was lost" in witness["witness"]
        assert witness["guaranteed"] is False

    def test_jobs_sharding_is_bit_identical(self, tmp_path):
        argv = (
            "--workload", "sync-loop",
            "--barrier-mode", "none", "--barrier-mode", "plp",
            "--strategy", "stratified", "--points", "8",
            "--param", "calls=8",
        )
        serial = run_cli(tmp_path, *argv, "--jobs", "1")
        sharded = run_cli(tmp_path, *argv, "--jobs", "4")
        assert serial == sharded

    @pytest.mark.parametrize(
        ("argv", "cell"),
        [
            # fdatabarrier returns before its writes reach the device, and
            # the check stops with the app.
            (
                ("check", "-w", "sync-loop", "-c", "BFS-OD",
                 "--param", "sync_call=fdatabarrier", "--param", "calls=30"),
                "sync-loop × BFS-OD × plain-ssd",
            ),
            # Every write command fails, so no write ever reaches a boundary.
            (
                ("check", "--continue", "-w", "sync-loop", "-c", "barrier-dr",
                 "--barrier-mode", "in_order_recovery",
                 "--fault", "io-error:p=1,op=write",
                 "--strategy", "stratified", "--points", "4", "--param", "calls=4"),
                "sync-loop × BFS-DR × plain-ssd × barrier=in-order-recovery"
                " × faults=io-error:p=1,op=write",
            ),
        ],
        ids=["fdatabarrier", "persistent-write-errors"],
    )
    def test_a_cell_without_boundaries_fails_the_check(self, tmp_path, argv, cell):
        # Nothing to judge must not read as a clean row.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        output = tmp_path / "report.json"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.runner", *argv,
                "--format", "json", "--output", str(output),
            ],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert completed.returncode != 0
        assert f"CellError: {cell}: " in completed.stderr
        assert "no crash boundary" in completed.stderr
        assert not output.exists()

    def test_params_route_to_the_accepting_workload(self, tmp_path):
        # Like `runner sweep`: a key accepted by one selected workload rides
        # along, applied only to the specs of that workload.
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop", "--workload", "sqlite",
            "--barrier-mode", "plp",
            "--strategy", "stratified", "--points", "4",
            "--param", "calls=4", "--param", "inserts=3",
        )
        assert len(summary["rows"]) == 2

    def test_duplicate_axis_values_collapse_to_one_cell(self, tmp_path):
        summary, _ = run_cli(
            tmp_path,
            "--workload", "sync-loop",
            "--barrier-mode", "none", "--barrier-mode", "none",
            "--strategy", "stratified", "--points", "4",
            "--param", "calls=4",
        )
        assert len(summary["rows"]) == 1

    def test_orphan_param_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(
                ["--workload", "sync-loop", "--param", "journal_mode='wal'"]
            )
        assert "accepted by none" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "argv", "message"),
        [
            (check_main, ["--points", "0"], "--points must be at least 1"),
            (sweep_main, ["--jobs", "-2"], "--jobs must be at least 1"),
            (check_main, ["--jobs", "-1"], "--jobs must be at least 1"),
            (sweep_main, ["--scale", "0"], "--scale must be above 0"),
            (check_main, ["--scale", "-1"], "--scale must be above 0"),
            (trace_main, ["--scale", "0"], "--scale must be above 0"),
            (check_main, ["--trace-tail", "-5"], "--trace-tail must be at least 0"),
        ],
        ids=[
            "check-points-0", "sweep-jobs-neg", "check-jobs-neg", "sweep-scale-0",
            "check-scale-neg", "trace-scale-0", "check-trace-tail-neg",
        ],
    )
    def test_out_of_range_number_is_a_usage_error(
        self, capsys, command, argv, message
    ):
        # Out-of-range numbers stop at the parser, before any run starts.
        with pytest.raises(SystemExit) as exit_info:
            command(["--workload", "sync-loop", *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_raw_block_workload_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            check_main(["--workload", "blocklevel"])
        assert "raw block device" in capsys.readouterr().err

    def test_unknown_barrier_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(["--workload", "sync-loop", "--barrier-mode", "magic"])
        assert "unknown barrier mode" in capsys.readouterr().err

    def test_unknown_config_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main(["--workload", "sync-loop", "--config", "ZFS"])
        assert "unknown config 'ZFS'" in capsys.readouterr().err

    def test_barrierfs_with_mode_none_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            check_main([
                "--workload", "sync-loop",
                "--config", "BFS-DR", "--barrier-mode", "none",
            ])
        assert "use --config none" in capsys.readouterr().err

    def test_list_prints_oracles_and_strategies(self, capsys):
        check_main(["--list"])
        out = capsys.readouterr().out
        assert "strategies: exhaustive, stratified\n" in out
        assert "committed-log-prefix" in out
