"""Run the paper's experiments — or any ad-hoc scenario matrix.

Four command-line modes (see ``docs/EXPERIMENTS.md``,
``docs/CRASH_CONSISTENCY.md``, ``docs/FAULTS.md``, ``docs/RECOVERY.md`` and
``docs/OBSERVABILITY.md`` for full guides):

* ``python -m repro.experiments.runner [scale] [--only NAME] [--jobs N]``
  regenerates the eleven published tables;
* ``python -m repro.experiments.runner sweep --workload W --config C
  --device D ...`` expands the given axes into a scenario matrix that may
  exist in no experiment module and tabulates it (``--fault PLAN`` injects
  storage faults into every cell);
* ``python -m repro.experiments.runner check --workload W
  --barrier-mode M --strategy exhaustive`` systematically crashes every
  cell of the given matrix at recorded IO boundaries and verifies recovery
  (:mod:`repro.crashlab`); ``--fault PLAN`` composes deterministic fault
  injection (:mod:`repro.faults`) and ``--continue`` remounts and continues
  after every crash (:mod:`repro.recovery`).  ``crashcheck``,
  ``faultcheck`` and ``recoverycheck`` remain as aliases (the last adds
  ``--continue``);
* ``python -m repro.experiments.runner trace --workload W --config C
  --output trace.json --breakdown`` runs one scenario with the
  cross-layer tracer installed (:mod:`repro.trace`) and exports a
  Perfetto-loadable Chrome trace plus the per-stage fsync breakdown.

All accept ``--format table|json|csv`` and ``--output PATH`` so results can
be diffed and archived as CI artifacts.

The experiments are mutually independent — each builds its own simulator and
IO stacks — so :func:`run_all` can fan them out across worker processes with
``jobs=N``, and each experiment additionally shards its *own* spec matrix
with ``run(jobs=N)``.  Experiments must draw all randomness from explicitly
seeded ``random.Random`` instances (they do; the scenario layer threads
``ScenarioSpec.seed`` through stacks and workloads), which is what makes the
tables identical whether a sweep runs serially or in parallel;
``tests/experiments/test_determinism.py`` and ``tests/scenarios`` pin that
property.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.reporting import ExperimentResult
from repro.experiments import (
    ablation_barrier_modes,
    fig1_ordered_vs_buffered,
    fig8_commit_interval,
    fig9_random_write,
    fig10_queue_depth,
    fig11_context_switches,
    fig12_barrierfs_queue_depth,
    fig13_fxmark,
    fig14_sqlite,
    fig15_server_workloads,
    table1_fsync_latency,
)

#: Experiment id -> run() callable.
ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_ordered_vs_buffered.run,
    "fig8": fig8_commit_interval.run,
    "fig9": fig9_random_write.run,
    "fig10": fig10_queue_depth.run,
    "table1": table1_fsync_latency.run,
    "fig11": fig11_context_switches.run,
    "fig12": fig12_barrierfs_queue_depth.run,
    "fig13": fig13_fxmark.run,
    "fig14": fig14_sqlite.run,
    "fig15": fig15_server_workloads.run,
    "ablation-barrier-modes": ablation_barrier_modes.run,
}


def run_experiment(name: str, scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by id (``fig1`` ... ``fig15``, ``table1``)."""
    try:
        experiment = ALL_EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(ALL_EXPERIMENTS)}"
        ) from None
    return experiment(scale)


def run_all(
    scale: float = 1.0,
    *,
    names: list[str] | None = None,
    jobs: int = 1,
) -> list[ExperimentResult]:
    """Run every experiment (or the named subset) and return the tables.

    ``jobs`` > 1 distributes the experiments over that many worker
    processes; results are returned in the requested order either way.
    """
    selected = names if names is not None else list(ALL_EXPERIMENTS)
    unknown = [name for name in selected if name not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown!r}; choose from {sorted(ALL_EXPERIMENTS)}"
        )
    if jobs <= 1 or len(selected) <= 1:
        return [run_experiment(name, scale) for name in selected]

    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(selected))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map() preserves input order, so the tables come back in the same
        # order the serial path produces them.
        return list(pool.map(run_experiment, selected, [scale] * len(selected)))


def _render(results: list[ExperimentResult], fmt: str) -> str:
    """Render result tables in the requested output format."""
    if fmt == "json":
        import json

        return json.dumps([result.to_dict() for result in results], indent=2)
    if fmt == "csv":
        return "\n".join(
            f"# {result.name}\n{result.to_csv()}" for result in results
        )
    return "\n\n".join(str(result) for result in results)


def _emit(results: list[ExperimentResult], fmt: str, output: str | None) -> None:
    rendered = _render(results, fmt)
    if output:
        with open(output, "w") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
    else:
        print(rendered)


def _add_output_arguments(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: aligned plain-text tables)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the rendered results to a file instead of stdout",
    )


def _parse_param(text: str) -> tuple[str, object]:
    """Parse a ``--param key=value`` pair, literal-evaluating the value."""
    import ast

    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ValueError(f"--param expects key=value, got {text!r}")
    try:
        value: object = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _route_params(parser, workloads: list[str], raw_params: list[str]):
    """Parse ``--param`` pairs and work out which workloads accept each key.

    Shared by ``sweep``, ``trace`` and ``check``: each key goes to the selected
    workloads that accept it (so sqlite's ``inserts=`` can ride alongside
    sync-loop's ``calls=`` in one matrix); a key no selected workload
    accepts, or a value a workload rejects, is a usage error.  Returns
    ``(params, accepted_by)``.
    """
    from repro.scenarios import WORKLOADS

    try:
        params = dict(_parse_param(item) for item in raw_params)
    except ValueError as error:
        parser.error(str(error))
    try:
        accepted_by = {
            name: set(WORKLOADS.get(name).PARAMS) for name in set(workloads)
        }
    except KeyError as error:
        parser.error(str(error.args[0]))
    orphans = sorted(
        key for key in params
        if not any(key in accepted for accepted in accepted_by.values())
    )
    if orphans:
        parser.error(
            f"--param keys {orphans} are accepted by none of the selected "
            f"workloads {sorted(accepted_by)}"
        )
    for name in sorted(accepted_by):
        # Constructing a workload reads its params: a bad value fails here.
        try:
            WORKLOADS.get(name)(**{
                key: value for key, value in params.items()
                if key in accepted_by[name]
            })
        except ValueError as error:
            parser.error(str(error))
    return params, accepted_by


def _expand_suffix_axes(specs):
    """Expand list-valued measured-phase params into one spec per value.

    ``--param calls=[100,200,400]`` on a workload that declares ``calls``
    as a suffix param becomes a three-point axis instead of a literal list.
    The points differ only in their measured phase, so the sweep runs
    their shared warmup once and forks each point from it.
    """
    import itertools

    from repro.scenarios import WORKLOADS

    expanded = []
    for spec in specs:
        suffix = WORKLOADS.get(spec.workload).SUFFIX_PARAMS
        axes = [
            (key, spec.params[key])
            for key in suffix
            if isinstance(spec.params.get(key), (list, tuple))
        ]
        if not axes:
            expanded.append(spec)
            continue
        keys = [key for key, _ in axes]
        for values in itertools.product(*(value for _, value in axes)):
            overrides = dict(zip(keys, values))
            label = " ".join(
                [spec.display_label] + [f"{k}={v}" for k, v in overrides.items()]
            )
            expanded.append(
                spec.with_(params={**dict(spec.params), **overrides}, label=label)
            )
    return expanded


def _barrier_mode(text: str) -> str:
    """argparse ``type=`` for barrier-mode names; underscores read as hyphens."""
    import argparse

    from repro.storage.barrier_modes import BarrierMode

    try:
        return BarrierMode(text.replace("_", "-")).value
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown barrier mode {text!r}; choose from "
            f"{[mode.value for mode in BarrierMode]}"
        ) from None


def _parse_faults(parser, raw_faults):
    """Parse repeatable ``--fault`` plan strings into a FaultSpec tuple."""
    from repro.faults import parse_fault

    try:
        return tuple(parse_fault(item) for item in raw_faults)
    except ValueError as error:
        parser.error(str(error))


def _finalize_specs(specs, params, accepted_by):
    """Attach routed params to each spec and collapse duplicate specs.

    Repeated axis values (or stack axes normalised away on raw-block
    workloads) would otherwise run — and report — the same cell twice.
    Dedupe is by repr: param values may be unhashable literals (lists).
    """
    normalized, seen = [], set()
    for spec in specs:
        spec = spec.with_(params={
            key: value for key, value in params.items()
            if key in accepted_by[spec.workload]
        })
        key = repr(spec)
        if key in seen:
            continue
        seen.add(key)
        normalized.append(spec)
    return normalized


def sweep_main(argv: list[str] | None = None) -> None:
    """``runner sweep``: run an arbitrary config × device × workload matrix."""
    import argparse

    from repro.scenarios import DEVICES, STACK_CONFIGS, WORKLOADS, sweep, sweep_table
    from repro.storage.barrier_modes import BarrierMode

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner sweep",
        description=(
            "Expand stack-config/device/workload axis lists into a scenario "
            "matrix and tabulate it — no experiment module required."
        ),
    )
    parser.add_argument(
        "-w", "--workload", action="append", metavar="NAME",
        help=f"workload axis (repeatable); one of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", action="append", metavar="NAME",
        help=f"stack-configuration axis (repeatable); one of {STACK_CONFIGS.names()}",
    )
    parser.add_argument(
        "-d", "--device", action="append", metavar="NAME",
        help="device axis (repeatable); evaluation devices or Fig. 1 labels",
    )
    parser.add_argument(
        "--barrier-mode", action="append", type=_barrier_mode, metavar="MODE",
        help=(
            "storage barrier-mode axis (repeatable); one of "
            f"{[mode.value for mode in BarrierMode]}; default: the device's choice"
        ),
    )
    parser.add_argument(
        "--seed", action="append", type=int, metavar="N",
        help="seed axis (repeatable, default 0)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="PLAN",
        help=(
            "fault plan applied to the storage device, as KIND[:key=value,...] "
            "(repeatable; e.g. torn-write:p=0.5, flush-lie, io-error:nth=3); "
            "see docs/FAULTS.md"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="iteration-count multiplier (default 1.0)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help=(
            "worker processes (default 1); specs sharing a warmup are split "
            "into contiguous chunks until every worker has one"
        ),
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help=(
            "append the device/block counter columns (io_errors, retries, "
            "requeues, power failures, ...) to every row"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the registered configs, devices and workloads, then exit",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        print(f"stack configs: {', '.join(STACK_CONFIGS.names())}")
        print(f"devices:       {', '.join(DEVICES.names())}")
        print(f"workloads:     {', '.join(WORKLOADS.names())}")
        return
    if not args.workload:
        parser.error("at least one --workload is required (or use --list)")

    params, accepted_by = _route_params(parser, args.workload, args.param)
    faults = _parse_faults(parser, args.fault)
    if faults:
        for name in set(args.workload):
            if not WORKLOADS.get(name).needs_stack:
                parser.error(
                    f"workload {name!r} runs against the raw block device; "
                    "--fault needs a filesystem stack to install the injector on"
                )

    specs = sweep(
        workloads=args.workload,
        configs=args.config or ["EXT4-DR"],
        devices=args.device or ["plain-ssd"],
        barrier_modes=args.barrier_mode or [None],
        seeds=args.seed or [0],
        scale=args.scale,
        faults=faults,
    )

    # Stack axes mean nothing to raw-block workloads: normalise them away so
    # the duplicate collapse in _finalize_specs folds the product back down.
    specs = [
        spec.with_(config=None, barrier_mode=None)
        if not WORKLOADS.get(spec.workload).needs_stack
        else spec
        for spec in specs
    ]
    specs = _finalize_specs(specs, params, accepted_by)
    specs = _expand_suffix_axes(specs)
    result = sweep_table(
        specs,
        jobs=args.jobs,
        metrics=args.metrics,
        description=f"ad-hoc scenario sweep ({len(specs)} scenarios)",
    )
    _emit([result], args.format, args.output)


def trace_main(argv: list[str] | None = None) -> None:
    """``runner trace``: run one traced scenario and export its spans."""
    import argparse
    import json

    from repro.scenarios import STACK_CONFIGS, WORKLOADS
    from repro.scenarios.engine import run_spec_traced
    from repro.scenarios.spec import ScenarioSpec
    from repro.storage.barrier_modes import BarrierMode
    from repro.trace import Tracer, breakdown_result, chrome_trace

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner trace",
        description=(
            "Run one scenario with the cross-layer tracer installed and "
            "export the spans as Chrome trace-event JSON (loadable at "
            "https://ui.perfetto.dev), plus the per-stage fsync latency "
            "breakdown and the streaming span metrics.  See "
            "docs/OBSERVABILITY.md."
        ),
    )
    parser.add_argument(
        "-w", "--workload", required=True, metavar="NAME",
        help=f"workload to trace; one of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", default="EXT4-DR", metavar="NAME",
        help=f"stack configuration (default EXT4-DR); one of {STACK_CONFIGS.names()}",
    )
    parser.add_argument(
        "-d", "--device", default="plain-ssd", metavar="NAME",
        help="device (default plain-ssd)",
    )
    parser.add_argument(
        "--barrier-mode", type=_barrier_mode, metavar="MODE",
        help=(
            "storage barrier-mode override; one of "
            f"{[mode.value for mode in BarrierMode]}; default: the device's choice"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="scenario seed (default 0)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="iteration-count multiplier (default 1.0)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "--buffer", type=int, default=65_536, metavar="N",
        help="span ring-buffer capacity (default 65536; oldest dropped first)",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="write the Chrome trace-event JSON to this file",
    )
    parser.add_argument(
        "--breakdown", action="store_true",
        help="print the per-stage syscall latency breakdown table",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the streaming span-metrics table (p50/p99/p999 per span)",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="format of the breakdown/metrics tables (default table)",
    )
    args = parser.parse_args(argv)

    params, accepted_by = _route_params(parser, [args.workload], args.param)
    if not WORKLOADS.get(args.workload).needs_stack:
        parser.error(
            f"workload {args.workload!r} runs against the raw block device; "
            "the tracer installs over a filesystem stack"
        )
    if args.buffer < 1:
        parser.error("--buffer must be at least 1")
    spec = ScenarioSpec(
        workload=args.workload,
        config=args.config,
        device=args.device,
        barrier_mode=args.barrier_mode,
        seed=args.seed,
        scale=args.scale,
        params={
            key: value for key, value in params.items()
            if key in accepted_by[args.workload]
        },
    )
    tracer = Tracer(buffer_size=args.buffer)
    outcome = run_spec_traced(spec, tracer)

    label = spec.describe()
    if args.output:
        document = chrome_trace(
            tracer.spans, label=label, dropped=tracer.spans.dropped
        )
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    tables = []
    if args.breakdown:
        tables.append(breakdown_result(tracer.contexts, label=label))
    if args.metrics and tracer.metrics is not None:
        tables.append(tracer.metrics.result())
    if tables:
        _emit(tables, args.format, None)
    summary = (
        f"traced {outcome.result.operations} operations: {len(tracer.spans)} "
        f"spans, {len(tracer.contexts)} syscall journeys"
    )
    if tracer.spans.dropped:
        summary += f", {tracer.spans.dropped} spans dropped (ring full)"
    if args.output:
        summary += f" -> {args.output}"
    print(summary)


#: Report table name -> description.  The name follows the switches a check
#: uses: ``recoverycheck`` with --continue, else ``faultcheck`` with a fault
#: plan, else ``crashcheck``; the violations table appends ``-violations``.
_CHECK_TABLES = {
    "crashcheck": "systematic crash-point exploration and recovery verification",
    "faultcheck": "crash-point exploration under injected storage faults",
    "recoverycheck": "crash-point exploration with remount-and-continue verification",
}

#: Paper-facing names for the barrier stacks, accepted by ``--config``
#: alongside the registered configuration names.
_CONFIG_ALIASES = {"barrier-dr": "BFS-DR", "barrier-od": "BFS-OD"}


def _resolve_configs(parser, names, modes):
    """Resolve ``--config`` values into ``(config, barrier modes)`` cells.

    A value is a registered name (case-insensitive), a ``barrier-dr`` /
    ``barrier-od`` alias, or a barrier-mode name as sugar for the contrast
    pair: that mode on BFS-DR plus the legacy EXT4-OD × none cell (the
    paper's ``nobarrier`` stack, so the pair isolates what the barrier
    buys).  ``modes`` is the explicit ``--barrier-mode`` axis, or None.
    """
    import argparse

    from repro.scenarios import STACK_CONFIGS
    from repro.scenarios.stacks import stack_config
    from repro.storage.barrier_modes import BarrierMode

    none = BarrierMode.NONE.value
    by_lower = {name.lower(): name for name in STACK_CONFIGS.names()}
    by_lower.update(_CONFIG_ALIASES)
    cells: list[tuple[str, list[str | None]]] = []
    for name in names:
        config = by_lower.get(name.lower())
        if config is None:
            try:
                mode = _barrier_mode(name)
            except argparse.ArgumentTypeError:
                parser.error(
                    f"unknown config {name!r}; choose from {STACK_CONFIGS.names()} "
                    f"(or aliases {sorted(_CONFIG_ALIASES)}, or a barrier-mode "
                    f"name of {[mode.value for mode in BarrierMode]})"
                )
            if modes:
                parser.error(
                    f"--config {name!r} names a barrier mode and already "
                    "implies the barrier-mode axis; drop --barrier-mode"
                )
            if mode != none:
                cells.append(("BFS-DR", [mode]))
            cells.append(("EXT4-OD", [none]))
            continue
        if modes and none in modes and stack_config(config).filesystem == "barrierfs":
            # BlockDevice refuses an order-preserving layer on a device
            # whose barrier mode supports no barrier.
            parser.error(
                f"--config {name!r} cannot run with --barrier-mode none (the "
                "order-preserving block layer needs a barrier-capable device); "
                "use --config none for the legacy EXT4-OD × none cell"
            )
        cells.append((config, modes or [None]))
    return cells


def check_main(argv: list[str] | None = None) -> None:
    """``runner check``: crash every cell of a matrix and verify recovery.

    ``--fault`` composes deterministic fault injection and ``--continue``
    adds the remount-and-continue judge; everything else is one code path.
    """
    import argparse
    from functools import partial

    from repro.apps.syncpolicy import ERROR_POLICIES
    from repro.core.verification import ORACLES
    from repro.crashlab import (
        STRATEGIES,
        explore_cells,
        summary_result,
        violations_result,
    )
    from repro.faults import FAULT_KINDS
    from repro.recovery import (
        ACKED_PREFIX_ORACLE,
        CONTINUATION_ORACLE,
        ContinuationPlan,
        recovery_judge,
    )
    from repro.scenarios import STACK_CONFIGS, WORKLOADS, sweep
    from repro.storage.barrier_modes import BarrierMode

    mode_names = [mode.value for mode in BarrierMode]
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner check",
        description=(
            "Systematically enumerate crash points (the IO boundaries of a "
            "run), and at every chosen point of each scenario cell judge the "
            "state a power cut would leave with the registered oracles, "
            "in-line in one run of the cell.  "
            "--fault injects storage faults into every cell; --continue also "
            "remounts a fresh stack on what journal recovery reconstructs, "
            "runs a deterministic append+sync continuation and judges a "
            "second crash right after its last acknowledgement.  See "
            "docs/CRASH_CONSISTENCY.md."
        ),
    )
    parser.add_argument(
        "-w", "--workload", action="append", metavar="NAME",
        help=f"workload axis (repeatable); filesystem workloads of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", action="append", metavar="NAME",
        help=(
            "stack-configuration axis (repeatable, default EXT4-DR); one of "
            f"{STACK_CONFIGS.names()} (case-insensitive; barrier-dr/barrier-od "
            f"alias BFS-DR/BFS-OD) or a barrier-mode name of {mode_names}, "
            "which expands to that mode on BFS-DR plus the EXT4-OD × none "
            "legacy contrast cell"
        ),
    )
    parser.add_argument(
        "-d", "--device", action="append", metavar="NAME",
        help="device axis (repeatable, default plain-ssd)",
    )
    parser.add_argument(
        "--barrier-mode", action="append", type=_barrier_mode, metavar="MODE",
        help=(
            "storage barrier-mode axis (repeatable; underscores and hyphens "
            f"both accepted); one of {mode_names}; default: the device's choice"
        ),
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="PLAN",
        help=(
            "fault plan applied to the storage device (and reinstalled on the "
            "remounted stack under --continue), as KIND[:key=value,...] "
            "(repeatable; e.g. torn-write:p=0.5, flush-lie, io-error:nth=3); "
            "see docs/FAULTS.md"
        ),
    )
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default="exhaustive",
        help=(
            "crash-point selection: every recorded boundary (exhaustive), a "
            "seeded per-kind sample (stratified), or a binary search to the "
            "earliest failing boundary (bisect); default exhaustive"
        ),
    )
    parser.add_argument(
        "--points", type=int, metavar="N",
        help=(
            "crash-point budget per cell: evenly thins an exhaustive "
            "enumeration, sets the stratified sample size (default 32); for "
            "bisect it caps the probe density of each scout wave, not the "
            "total — re-scouting below each found failure plus the binary "
            "refinement can probe more points than the budget"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help=(
            "seed for the scenario, the fault streams and the stratified "
            "sampler (default 0)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help=(
            "iteration-count multiplier; crash exploration recovers and "
            "verifies the whole history at every point, so the default is a "
            "reduced 0.25"
        ),
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload parameter, literal-evaluated (repeatable)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help=(
            "worker processes, each exploring whole cells of the matrix in "
            "one verifying run per cell (default 1; at most one worker per "
            "cell, so a one-cell check runs in-process)"
        ),
    )
    parser.add_argument(
        "--trace-tail", type=int, default=0, metavar="N",
        help=(
            "trace every verifying run and attach the last N spans before each "
            "crash to its violation witness (default 0: off)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the strategies, fault kinds and oracles, then exit",
    )
    _add_output_arguments(parser)
    continuation = parser.add_argument_group(
        "remount and continue (see docs/RECOVERY.md)"
    )
    continuation.add_argument(
        "--continue", dest="continuation", action="store_true",
        help=(
            "at each crash point, remount, run the continuation, crash again "
            "and judge both crashes with the recovered-acked-prefix and "
            "recovered-continuation-durability oracles too"
        ),
    )
    continuation.add_argument(
        "--continuation-calls", type=int, default=16, metavar="N",
        help="append+sync iterations the continuation runs (default 16)",
    )
    continuation.add_argument(
        "--continuation-pages", type=int, default=1, metavar="N",
        help="pages appended per continuation iteration (default 1)",
    )
    continuation.add_argument(
        "--on-error", choices=ERROR_POLICIES, default="retry",
        help=(
            "continuation SyncPolicy when a sync raises EIOError: abort at "
            "the first, retry up to --max-sync-retries, or reopen-and-retry "
            "(default retry)"
        ),
    )
    continuation.add_argument(
        "--max-sync-retries", type=int, default=3, metavar="N",
        help="continuation sync retries before the error stops it (default 3)",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(f"strategies: {', '.join(STRATEGIES)}")
        print(f"fault kinds: {', '.join(FAULT_KINDS)}")
        print("oracles:")
        for oracle in ORACLES.values():
            print(f"  {oracle.name:36s} {oracle.description}")
        print(
            f"  {ACKED_PREFIX_ORACLE:36s} "
            "(--continue) pages acknowledged before the crash survived it"
        )
        print(
            f"  {CONTINUATION_ORACLE:36s} (--continue) pages the "
            "post-remount continuation acknowledged survived its crash"
        )
        return
    if not args.workload:
        parser.error("at least one --workload is required (or use --list)")
    for flag, value, least in (
        ("--points", args.points, 1),
        ("--continuation-calls", args.continuation_calls, 1),
        ("--continuation-pages", args.continuation_pages, 1),
        ("--max-sync-retries", args.max_sync_retries, 0),
    ):
        if value is not None and value < least:
            parser.error(f"{flag} must be at least {least}")
    faults = _parse_faults(parser, args.fault)
    params, accepted_by = _route_params(parser, args.workload, args.param)
    for name in accepted_by:
        if not WORKLOADS.get(name).needs_stack:
            parser.error(
                f"workload {name!r} runs against the raw block device; "
                "the check needs a filesystem stack to crash and recover"
            )
    cells = _resolve_configs(parser, args.config or ["EXT4-DR"], args.barrier_mode)

    # Devices vary slowest, then configs — the order of one sweep() call.
    specs = _finalize_specs(
        [
            spec
            for device in args.device or ["plain-ssd"]
            for config, modes in cells
            for spec in sweep(
                workloads=args.workload,
                configs=[config],
                devices=[device],
                barrier_modes=modes,
                seeds=[args.seed],
                scale=args.scale,
                faults=faults,
            )
        ],
        params,
        accepted_by,
    )
    judge = None
    if args.continuation:
        judge = partial(recovery_judge, plan=ContinuationPlan(
            calls=args.continuation_calls,
            pages_per_write=args.continuation_pages,
            on_error=args.on_error,
            max_sync_retries=args.max_sync_retries,
        ))
    reports = explore_cells(
        specs,
        strategy=args.strategy,
        points=args.points,
        seed=args.seed,
        jobs=args.jobs,
        trace_tail=max(args.trace_tail, 0),
        judge=judge,
    )
    name = (
        "recoverycheck" if args.continuation
        else "faultcheck" if faults
        else "crashcheck"
    )
    summary = summary_result(reports)
    summary.name, summary.description = name, _CHECK_TABLES[name]
    violations = violations_result(reports)
    violations.name = f"{name}-violations"
    _emit([summary, violations], args.format, args.output)


#: ``runner crashcheck`` / ``runner faultcheck``: the pre-``check`` names.
crashcheck_main = faultcheck_main = check_main


def recoverycheck_main(argv: list[str] | None = None) -> None:
    """``runner recoverycheck``: alias of ``runner check --continue``."""
    import sys

    check_main(["--continue", *(sys.argv[1:] if argv is None else argv)])


def main(argv: list[str] | None = None) -> None:
    """Command-line entry point: ``python -m repro.experiments.runner``."""
    import argparse
    import sys

    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    subcommands = {
        "sweep": sweep_main,
        "trace": trace_main,
        "check": check_main,
        "crashcheck": crashcheck_main,
        "faultcheck": faultcheck_main,
        "recoverycheck": recoverycheck_main,
    }
    if arguments and arguments[0] in subcommands:
        subcommands[arguments[0]](arguments[1:])
        return

    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description=(
            "Regenerate the paper's tables and figures (or run `... runner "
            "sweep --help` for ad-hoc matrices, `... runner check --help` "
            "for crash-recovery checking under optional storage faults and "
            "remount-and-continue, `... runner trace --help` for cross-layer "
            "tracing)."
        ),
    )
    parser.add_argument(
        "scale",
        nargs="?",
        type=float,
        default=1.0,
        help="iteration-count multiplier for every experiment (default 1.0)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="number of worker processes (default 1: run serially)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named experiment (repeatable)",
    )
    _add_output_arguments(parser)
    args = parser.parse_args(arguments)
    results = run_all(args.scale, names=args.only, jobs=args.jobs)
    _emit(results, args.format, args.output)


if __name__ == "__main__":  # pragma: no cover
    main()
