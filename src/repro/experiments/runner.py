"""Run the paper's experiments — or any ad-hoc scenario matrix.

Four command-line modes (guides: ``docs/EXPERIMENTS.md``,
``docs/CRASH_CONSISTENCY.md``, ``docs/FAULTS.md``, ``docs/RECOVERY.md``,
``docs/OBSERVABILITY.md``):

* ``runner [scale] [--only NAME] [--jobs N]`` regenerates the eleven
  published tables;
* ``runner sweep -w W -c C -d D ...`` tabulates the scenario matrix the
  axes name, which may exist in no experiment module (``--fault PLAN``
  injects storage faults, :mod:`repro.faults`);
* ``runner check -w W --barrier-mode M`` crashes every cell of the matrix
  at its IO boundaries and judges recovery (:mod:`repro.crashlab`), under
  ``--fault`` plans too; ``--continue`` remounts and continues after every
  crash (:mod:`repro.recovery`);
* ``runner trace -w W -c C --output trace.json --breakdown`` runs one
  scenario under the cross-layer tracer (:mod:`repro.trace`) and exports a
  Perfetto-loadable Chrome trace plus the per-stage fsync breakdown.

The three subcommands share one front door.  :func:`_command_parser`
declares the spec axes once (``-w/-c/-d/--barrier-mode/--seed/--scale/
--param``, each repeatable, plus ``--fault`` and ``--jobs`` for the two
matrix commands) and :func:`_build_specs` turns them into specs the same
way for all three: an unknown name is a usage error, devices vary slowest
and then configs, and duplicate specs collapse.  ``trace`` takes a product
of exactly one spec.  All accept ``--format table|json|csv`` and
``--output PATH``, so results can be diffed and archived.

The experiments are mutually independent (each builds its own simulator
and stacks), so :func:`run_all` fans them out over ``jobs=N`` worker
processes, and each experiment also shards its own spec matrix with
``run(jobs=N)``.  All randomness comes from seeded ``random.Random``
instances (the scenario layer threads ``ScenarioSpec.seed`` through stacks
and workloads), so the tables are identical serial or parallel
(``tests/experiments/test_determinism.py`` and ``tests/scenarios`` pin it).
"""

from __future__ import annotations

from functools import partial
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
from repro.scenarios.engine import pool_map

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
    return pool_map(partial(run_experiment, scale=scale), selected, jobs=jobs)


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


def _add_output_arguments(
    parser, output_help: str = "write the rendered results to a file instead of stdout"
) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: aligned plain-text tables)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help=output_help,
    )


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


def _command_parser(command: str, description: str, *, matrix: bool, **output):
    """A subcommand's parser, holding the spec axes every subcommand shares.

    ``matrix`` adds ``--fault`` and ``--jobs`` (``sweep`` and ``check``);
    ``output`` is handed to :func:`_add_output_arguments`.  A command
    changes a shared default with ``set_defaults`` (``check`` runs at a
    reduced ``--scale``).
    """
    import argparse

    from repro.scenarios import DEVICES, STACK_CONFIGS, WORKLOADS
    from repro.storage.barrier_modes import BarrierMode

    modes = [mode.value for mode in BarrierMode]
    parser = argparse.ArgumentParser(
        prog=f"repro.experiments.runner {command}", description=description
    )
    parser.add_argument(
        "-w", "--workload", action="append", metavar="NAME",
        help=f"workload axis (repeatable); one of {WORKLOADS.names()}",
    )
    parser.add_argument(
        "-c", "--config", action="append", metavar="NAME",
        help=(
            "stack-configuration axis (repeatable, default EXT4-DR); one of "
            f"{STACK_CONFIGS.names()} (case-insensitive; barrier-dr/barrier-od "
            f"alias BFS-DR/BFS-OD) or a barrier-mode name of {modes}, "
            "which expands to that mode on BFS-DR plus the EXT4-OD × none "
            "legacy contrast cell"
        ),
    )
    parser.add_argument(
        "-d", "--device", action="append", metavar="NAME",
        help=f"device axis (repeatable, default plain-ssd); one of {DEVICES.names()}",
    )
    parser.add_argument(
        "--barrier-mode", action="append", type=_barrier_mode, metavar="MODE",
        help=(
            "storage barrier-mode axis (repeatable; underscores and hyphens "
            f"both accepted); one of {modes}; default: the device's choice"
        ),
    )
    parser.add_argument(
        "--seed", action="append", type=int, metavar="N",
        help=(
            "seed axis (repeatable, default 0); a cell's seed also seeds its "
            "fault streams and the stratified sampler"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="iteration-count multiplier, above 0 (default %(default)s)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help=(
            "workload parameter, literal-evaluated (repeatable); a list value "
            "of a measured-phase parameter becomes an axis"
        ),
    )
    if matrix:
        parser.add_argument(
            "--fault", action="append", default=[], metavar="PLAN",
            help=(
                "fault plan applied to the storage device (and reinstalled on "
                "a stack remounted by check --continue), as "
                "KIND[:key=value,...] (repeatable; e.g. torn-write:p=0.5, "
                "flush-lie, io-error:nth=3); see docs/FAULTS.md"
            ),
        )
        parser.add_argument(
            "-j", "--jobs", type=int, default=1,
            help=(
                "worker processes (default 1); each worker takes whole "
                "scenarios (sweep) or cells (check), so one scenario or cell "
                "runs in-process"
            ),
        )
    _add_output_arguments(parser, **output)
    return parser


#: The least value each integer option accepts, by ``dest``.
_LEAST = {
    "jobs": 1,
    "points": 1,
    "trace_tail": 0,
    "buffer": 1,
    "continuation_calls": 1,
    "continuation_pages": 1,
    "max_sync_retries": 0,
}


def _parse(parser, argv, scale_name="--scale"):
    """Parse ``argv``; an out-of-range number is a usage error."""
    args = parser.parse_args(argv)
    if not args.scale > 0:
        parser.error(f"{scale_name} must be above 0, got {args.scale}")
    for dest, least in _LEAST.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            parser.error(f"--{dest.replace('_', '-')} must be at least {least}")
    return args


def _route_params(parser, workloads: list[str], raw_params: list[str]):
    """Parse ``--param key=value`` pairs and route each key to its workloads.

    Values are literal-evaluated (text that is no literal stays a string).
    A key goes to the selected workloads that accept it, so sqlite's
    ``inserts=`` can ride alongside sync-loop's ``calls=`` in one matrix.
    A malformed pair or a key no selected workload accepts is a usage
    error.  Returns ``{workload: params}``.
    """
    import ast

    from repro.scenarios import WORKLOADS

    params: dict[str, object] = {}
    for item in raw_params:
        key, separator, raw = item.partition("=")
        if not separator or not key:
            parser.error(f"--param expects key=value, got {item!r}")
        try:
            params[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            params[key] = raw
    try:
        accepts = {name: WORKLOADS.get(name).PARAMS for name in set(workloads)}
    except KeyError as error:
        parser.error(str(error.args[0]))
    routed = {
        name: {key: value for key, value in params.items() if key in accepted}
        for name, accepted in accepts.items()
    }
    orphans = sorted(set(params).difference(*routed.values()))
    if orphans:
        parser.error(
            f"--param keys {orphans} are accepted by none of the selected "
            f"workloads {sorted(routed)}"
        )
    return routed


def _expand_suffix_axes(parser, specs):
    """Expand list-valued measured-phase params into one spec per value.

    ``--param calls=[100,200,400]`` on a workload that declares ``calls``
    as a suffix param becomes a three-point axis instead of a literal list.
    An empty list would expand to no spec at all: it is a usage error.
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
        for key, values in axes:
            if not values:
                parser.error(f"--param {key} is an empty list; an axis needs a value")
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


def _build_specs(parser, args, *, stack_use: str | None = None):
    """The specs ``args``' axes name; every name problem is a usage error.

    Params go to the workloads that accept them (:func:`_route_params`),
    configs resolve through :func:`_resolve_configs`, devices must be
    registered.  Devices vary slowest, then configs, as in one
    :func:`repro.scenarios.sweep` call.  Stack axes are normalised off
    raw-block workloads, unless ``stack_use`` says why the command needs a
    stack (``--fault`` always does), which rejects them.  List-valued
    measured-phase params expand (:func:`_expand_suffix_axes`), then
    duplicate specs collapse (by repr: param values may be unhashable lists).
    A param value its workload rejects is a usage error.
    """
    from repro.faults import parse_fault
    from repro.scenarios import DEVICES, WORKLOADS, sweep

    if not args.workload:
        parser.error(
            "at least one --workload is required"
            + (" (or use --list)" if "list" in args else "")
        )
    routed = _route_params(parser, args.workload, args.param)
    try:
        faults = tuple(parse_fault(item) for item in getattr(args, "fault", ()))
    except ValueError as error:
        parser.error(str(error))
    if faults and stack_use is None:
        stack_use = "--fault needs a filesystem stack to install the injector on"
    for name in sorted(routed):
        if stack_use and not WORKLOADS.get(name).needs_stack:
            parser.error(
                f"workload {name!r} runs against the raw block device; {stack_use}"
            )
    devices = args.device or ["plain-ssd"]
    for device in devices:
        if device not in DEVICES:
            parser.error(f"unknown device {device!r}; choose from {DEVICES.names()}")
    cells = _resolve_configs(parser, args.config or ["EXT4-DR"], args.barrier_mode)

    specs = []
    for device in devices:
        for config, modes in cells:
            for spec in sweep(
                workloads=args.workload, configs=[config], devices=[device],
                barrier_modes=modes, seeds=args.seed or [0], scale=args.scale,
                faults=faults,
            ):
                spec = spec.with_(params=routed[spec.workload])
                if not WORKLOADS.get(spec.workload).needs_stack:
                    spec = spec.with_(config=None, barrier_mode=None)
                specs.append(spec)
    specs = list({repr(spec): spec for spec in _expand_suffix_axes(parser, specs)}.values())
    for spec in specs:
        # The constructor converts every declared param: a bad value fails here.
        try:
            WORKLOADS.get(spec.workload)(**spec.params)
        except ValueError as error:
            parser.error(str(error))
    return specs


def sweep_main(argv: list[str] | None = None) -> None:
    """``runner sweep``: run an arbitrary config × device × workload matrix."""
    from repro.scenarios import DEVICES, STACK_CONFIGS, WORKLOADS, sweep_table

    parser = _command_parser(
        "sweep",
        "Expand stack-config/device/workload axis lists into a scenario "
        "matrix and tabulate it — no experiment module required.",
        matrix=True,
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
    args = _parse(parser, argv)

    if args.list:
        print(f"stack configs: {', '.join(STACK_CONFIGS.names())}")
        print(f"devices:       {', '.join(DEVICES.names())}")
        print(f"workloads:     {', '.join(WORKLOADS.names())}")
        return
    specs = _build_specs(parser, args)
    result = sweep_table(
        specs,
        jobs=args.jobs,
        metrics=args.metrics,
        description=f"ad-hoc scenario sweep ({len(specs)} scenarios)",
    )
    _emit([result], args.format, args.output)


def trace_main(argv: list[str] | None = None) -> None:
    """``runner trace``: run one traced scenario and export its spans."""
    import json

    from repro.scenarios.engine import run_spec_traced
    from repro.trace import Tracer, breakdown_result, chrome_trace

    parser = _command_parser(
        "trace",
        "Run one scenario with the cross-layer tracer installed and export "
        "the spans as Chrome trace-event JSON (loadable at "
        "https://ui.perfetto.dev), plus the per-stage fsync latency "
        "breakdown and the streaming span metrics.  The axes must name "
        "exactly one scenario.  See docs/OBSERVABILITY.md.",
        matrix=False,
        output_help="write the Chrome trace-event JSON to this file",
    )
    parser.add_argument(
        "--buffer", type=int, default=65_536, metavar="N",
        help="span ring-buffer capacity (default 65536; oldest dropped first)",
    )
    parser.add_argument(
        "--breakdown", action="store_true",
        help="print the per-stage syscall latency breakdown table",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the streaming span-metrics table (p50/p99/p999 per span)",
    )
    args = _parse(parser, argv)

    specs = _build_specs(
        parser, args, stack_use="the tracer installs over a filesystem stack"
    )
    if len(specs) != 1:
        parser.error(
            f"trace runs one scenario, but the axes name {len(specs)}: "
            f"{[spec.describe() for spec in specs]}"
        )
    [spec] = specs
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


def check_main(argv: list[str] | None = None) -> None:
    """``runner check``: crash every cell of a matrix and verify recovery.

    ``--fault`` composes deterministic fault injection and ``--continue``
    adds the remount-and-continue judge; everything else is one code path.
    """
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

    parser = _command_parser(
        "check",
        "Systematically enumerate crash points (the IO boundaries of a "
        "run), and at every chosen point of each scenario cell judge the "
        "state a power cut would leave with the registered oracles, "
        "in-line in one run of the cell.  --fault injects storage faults "
        "into every cell; --continue also remounts a fresh stack on what "
        "journal recovery reconstructs, runs a deterministic append+sync "
        "continuation and judges a second crash right after its last "
        "acknowledgement.  Filesystem workloads only.  See "
        "docs/CRASH_CONSISTENCY.md.",
        matrix=True,
    )
    # Crash exploration judges the whole history at every point.
    parser.set_defaults(scale=0.25)
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default="exhaustive",
        help=(
            "crash-point selection: every recorded boundary (exhaustive) or "
            "a seeded per-kind sample (stratified); default exhaustive"
        ),
    )
    parser.add_argument(
        "--points", type=int, metavar="N",
        help=(
            "crash-point budget per cell: evenly thins an exhaustive "
            "enumeration, sets the stratified sample size (default 32)"
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
    args = _parse(parser, argv)

    if args.list:
        print(f"strategies: {', '.join(STRATEGIES)}")
        print(f"fault kinds: {', '.join(FAULT_KINDS)}")
        print("oracles:")
        for name, description in [
            *((oracle.name, oracle.description) for oracle in ORACLES.values()),
            (ACKED_PREFIX_ORACLE,
             "(--continue) pages acknowledged before the crash survived it"),
            (CONTINUATION_ORACLE, "(--continue) pages the post-remount "
             "continuation acknowledged survived its crash"),
        ]:
            print(f"  {name:36s} {description}")
        return
    specs = _build_specs(
        parser, args, stack_use="the check needs a filesystem stack to crash and recover"
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
        jobs=args.jobs,
        trace_tail=args.trace_tail,
        judge=judge,
    )
    name = (
        "recoverycheck" if args.continuation
        else "faultcheck" if args.fault
        else "crashcheck"
    )
    summary = summary_result(reports)
    summary.name, summary.description = name, _CHECK_TABLES[name]
    violations = violations_result(reports)
    violations.name = f"{name}-violations"
    _emit([summary, violations], args.format, args.output)


def main(argv: list[str] | None = None) -> None:
    """Command-line entry point: ``python -m repro.experiments.runner``."""
    import argparse
    import sys

    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    subcommands = {"sweep": sweep_main, "trace": trace_main, "check": check_main}
    if arguments and arguments[0] in subcommands:
        subcommands[arguments[0]](arguments[1:])
        return

    def scale(text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is neither a scale nor a subcommand {sorted(subcommands)}"
            ) from None

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
        type=scale,
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
    args = _parse(parser, arguments, scale_name="scale")
    results = run_all(args.scale, names=args.only, jobs=args.jobs)
    _emit(results, args.format, args.output)


if __name__ == "__main__":  # pragma: no cover
    main()
