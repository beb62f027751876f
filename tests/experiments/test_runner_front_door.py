"""The runner's one front door: shared axes, usage errors, pinned flags."""

import json
import re

import pytest

from repro.experiments.runner import check_main, main, sweep_main, trace_main
from repro.scenarios import WORKLOADS

COMMANDS = {"sweep": sweep_main, "trace": trace_main, "check": check_main}

BAD_AXES = [
    (["-w", "nosuch"], "unknown workload 'nosuch'; choose from"),
    (["-c", "nosuch"], "unknown config 'nosuch'; choose from"),
    (["-d", "nosuch"], "unknown device 'nosuch'; choose from"),
    (["--barrier-mode", "nosuch"], "unknown barrier mode 'nosuch'; choose from"),
    (["-c", "BFS-DR", "--barrier-mode", "none"], "use --config none"),
]


@pytest.mark.parametrize(
    ("command", "axis", "message"),
    [(command, axis, message) for command in COMMANDS for axis, message in BAD_AXES],
    ids=[f"{command} {' '.join(axis)}" for command in COMMANDS for axis, _ in BAD_AXES],
)
def test_a_bad_axis_name_is_a_usage_error(capsys, command, axis, message):
    argv = ["-w", "sync-loop", *axis] if axis[0] != "-w" else axis
    with pytest.raises(SystemExit) as exit_info:
        COMMANDS[command](argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_config_names_resolve_alike_in_every_command(capsys):
    # One resolver for every command: names are case-insensitive and the
    # barrier-dr/barrier-od aliases name BFS-DR/BFS-OD.
    sweep_main(["-w", "sync-loop", "-c", "bfs-dr", "-c", "barrier-od",
                "--param", "calls=2"])
    table = capsys.readouterr().out
    assert " BFS-DR " in table and " BFS-OD " in table


def test_trace_needs_exactly_one_scenario(capsys):
    with pytest.raises(SystemExit) as exit_info:
        trace_main(["-w", "sync-loop", "-c", "BFS-DR", "-c", "EXT4-DR"])
    assert exit_info.value.code == 2
    assert "trace runs one scenario, but the axes name 2" in capsys.readouterr().err


#: Every declared (workload, param) whose type rejects the word ``x``.
TYPED_PARAMS = [
    (name, key)
    for name in WORKLOADS.names()
    for key, kind in WORKLOADS.get(name).PARAMS.items()
    if kind is not str
]


@pytest.mark.parametrize(("workload", "key"), TYPED_PARAMS,
                         ids=[f"{name}-{key}" for name, key in TYPED_PARAMS])
def test_a_bad_param_value_is_a_usage_error(capsys, workload, key):
    # Measured-phase params (calls, commits, inserts, ...) are read only in
    # run(): the constructor's conversion still rejects them before any run.
    with pytest.raises(SystemExit) as exit_info:
        sweep_main(["-w", workload, "--param", f"{key}=x"])
    assert exit_info.value.code == 2
    assert f"{workload}: parameter {key!r} expects" in capsys.readouterr().err


#: A str param outside its domain, and the usage error it gets.
SYNC_CALL_ERRORS = [
    (["-c", "BFS-DR", "--param", "sync_call=bogus"],
     "sync-loop: parameter 'sync_call' expects one of"),
    (["-c", "BFS-DR", "--param", "sync_call=open"],
     "sync-loop: parameter 'sync_call' expects one of"),
    (["-c", "EXT4-DR", "--param", "sync_call=fbarrier"],
     "sync-loop: the ext4 filesystem has no fbarrier() call"),
]
OUT_OF_DOMAIN = [
    (command, ["-w", "sync-loop", "--param", "calls=2", *argv], message)
    for command in COMMANDS
    for argv, message in SYNC_CALL_ERRORS
] + [
    # check and trace refuse raw-block workloads before reading params.
    ("sweep", ["-w", "blocklevel", "--param", "scenario=Q"],
     "blocklevel: parameter 'scenario' expects one of ['XnF', 'X', 'B', 'P']"),
]


@pytest.mark.parametrize(
    ("command", "argv", "message"), OUT_OF_DOMAIN,
    ids=[f"{command} {argv[-1]}" for command, argv, _ in OUT_OF_DOMAIN],
)
def test_a_param_outside_its_domain_is_a_usage_error(capsys, command, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        COMMANDS[command](argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


#: A list-valued measured-phase param per workload: argv, key, values.
LIST_SWEEPS = {
    "sync-loop": (["-w", "sync-loop", "--param", "calls=[10,20,40]"], "calls", [10, 20, 40]),
    "postgres-wal": (
        ["-w", "postgres-wal", "--param", "commits=[10,20]", "--param", "warmup_commits=20"],
        "commits",
        [10, 20],
    ),
}


def _sweep_json(tmp_path, name, argv):
    """The JSON bytes ``sweep`` writes for ``argv`` over BFS-DR and EXT4-DR."""
    output = tmp_path / name
    sweep_main([*argv, "-c", "BFS-DR", "-c", "EXT4-DR", "-d", "ufs", "--scale", "0.1",
                "--format", "json", "--output", str(output)])
    return output.read_bytes()


@pytest.mark.parametrize("workload", sorted(LIST_SWEEPS))
def test_a_list_param_expands_into_one_row_per_value(tmp_path, workload):
    argv, key, values = LIST_SWEEPS[workload]
    [table] = json.loads(_sweep_json(tmp_path, "sweep.json", argv))
    rows = [dict(zip(table["columns"], row)) for row in table["rows"]]
    # Configs vary slowest, then the list's values, in the order given.
    assert [row["label"] for row in rows] == [
        f"{config} {key}={value}" for config in ("BFS-DR", "EXT4-DR") for value in values
    ]
    assert [row["operations"] for row in rows] == values * 2
    assert table["description"] == f"ad-hoc scenario sweep ({len(rows)} scenarios)"


@pytest.mark.parametrize("workload", sorted(LIST_SWEEPS))
def test_a_list_param_sweep_is_byte_identical_at_any_jobs(tmp_path, workload):
    argv = LIST_SWEEPS[workload][0]
    serial = _sweep_json(tmp_path, "serial.json", [*argv, "--jobs", "1"])
    pooled = _sweep_json(tmp_path, "pooled.json", [*argv, "--jobs", "2"])
    assert serial == pooled


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_an_empty_list_param_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        COMMANDS[command](["-w", "sync-loop", "-c", "BFS-DR", "--param", "calls=[]"])
    assert exit_info.value.code == 2
    assert "--param calls is an empty list" in capsys.readouterr().err


def test_a_repeated_list_value_runs_once(tmp_path):
    [table] = json.loads(_sweep_json(tmp_path, "sweep.json",
                                     ["-w", "sync-loop", "--param", "calls=[5,5]"]))
    assert [row[3] for row in table["rows"]] == ["BFS-DR calls=5", "EXT4-DR calls=5"]


@pytest.mark.parametrize("removed", ["crashcheck", "faultcheck", "recoverycheck"])
def test_removed_subcommands_are_usage_errors(capsys, removed):
    with pytest.raises(SystemExit) as exit_info:
        main([removed, "--workload", "sync-loop"])
    assert exit_info.value.code == 2
    assert f"{removed!r} is neither a scale nor a subcommand" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--only", "table1", "--jobs", "-3", "--", "0"], "scale must be above 0, got 0.0"),
        (["--only", "table1", "nan"], "scale must be above 0, got nan"),
        (["--only", "table1", "--jobs", "0", "0.05"], "--jobs must be at least 1"),
    ],
    ids=["zero-scale", "nan-scale", "zero-jobs"],
)
def test_experiments_mode_rejects_out_of_range_numbers(capsys, argv, message):
    # The tables are never printed: the numbers are checked before any run.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


#: Every option string of each command's ``--help``.
FLAGS = {
    "sweep": (
        "--barrier-mode --config --device --fault --format --help --jobs --list "
        "--metrics --output --param --scale --seed --workload -c -d -h -j -w"
    ),
    "trace": (
        "--barrier-mode --breakdown --buffer --config --device --format --help "
        "--metrics --output --param --scale --seed --workload -c -d -h -w"
    ),
    "check": (
        "--barrier-mode --config --continuation-calls "
        "--continue --device --fault --format --help --jobs --list "
        "--output --param --points --scale --seed "
        "--strategy --trace-tail --workload -c -d -h -j -w"
    ),
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_the_pinned_option_strings(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set()
    # An option's line starts two spaces in ("  -w NAME, --workload NAME");
    # wrapped help text is indented further.
    for line in capsys.readouterr().out.splitlines():
        match = re.match(r"  (-\S.*?)(?:\s{2,}|$)", line)
        if match:
            flags.update(
                part.split()[0] for part in match.group(1).split(", ")
            )
    assert flags == set(FLAGS[command].split())
