"""The ``runner check`` command line and its ``crashcheck`` alias."""

import json

import pytest

from repro.experiments.runner import crashcheck_main, main


def run_cli(tmp_path, *argv):
    output = tmp_path / "report.json"
    crashcheck_main([*argv, "--format", "json", "--output", str(output)])
    return json.loads(output.read_text())


@pytest.mark.parametrize(
    ("alias", "argv", "check_only", "table"),
    [
        ("crashcheck", [], [], "crashcheck"),
        ("faultcheck", ["--fault", "flush-lie"], [], "faultcheck"),
        ("recoverycheck", [], ["--continue"], "recoverycheck"),
    ],
)
def test_alias_equals_check(tmp_path, alias, argv, check_only, table):
    common = [
        "--workload", "sync-loop",
        "--config", "in-order-recovery",
        "--strategy", "stratified", "--points", "4",
        "--param", "calls=4",
        *argv,
        "--format", "json",
    ]
    aliased, checked = tmp_path / "alias.json", tmp_path / "check.json"
    main([alias, *common, "--output", str(aliased)])
    main(["check", *check_only, *common, "--output", str(checked)])
    assert aliased.read_text() == checked.read_text()
    summary, violations = json.loads(checked.read_text())
    assert summary["name"] == table
    assert violations["name"] == f"{table}-violations"


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
                ("recoverycheck", "-w", "sync-loop", "-c", "barrier-dr",
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
            crashcheck_main(
                ["--workload", "sync-loop", "--param", "journal_mode='wal'"]
            )
        assert "accepted by none" in capsys.readouterr().err

    def test_non_positive_points_budget_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(["--workload", "sync-loop", "--points", "0"])
        assert "--points must be at least 1" in capsys.readouterr().err

    def test_raw_block_workload_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(["--workload", "blocklevel"])
        assert "raw block device" in capsys.readouterr().err

    def test_unknown_barrier_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(["--workload", "sync-loop", "--barrier-mode", "magic"])
        assert "unknown barrier mode" in capsys.readouterr().err

    def test_unknown_config_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main(["--workload", "sync-loop", "--config", "ZFS"])
        assert "unknown config 'ZFS'" in capsys.readouterr().err

    def test_barrierfs_with_mode_none_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            crashcheck_main([
                "--workload", "sync-loop",
                "--config", "BFS-DR", "--barrier-mode", "none",
            ])
        assert "use --config none" in capsys.readouterr().err

    def test_list_prints_oracles_and_strategies(self, capsys):
        crashcheck_main(["--list"])
        out = capsys.readouterr().out
        assert "strategies: exhaustive, stratified, bisect" in out
        assert "committed-log-prefix" in out
