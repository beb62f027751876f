"""The matrix sweep engine: build, run and tabulate scenario specs.

:func:`run_spec` turns one :class:`ScenarioSpec` into a built stack, a
prepared workload and a :class:`ScenarioOutcome`.  :func:`run_specs` runs a
list of specs, one :func:`run_spec` each, optionally fanned out over worker
processes by :func:`pool_map`, so even a single experiment's matrix
parallelises.  Because every spec builds its own simulator and draws all
randomness from its own seeds, the outcome tables are bit-identical whether
a sweep runs serially or across workers (pinned by ``tests/scenarios``).

:func:`run_matrix` is what the experiment modules are written in: a list of
specs plus a row formatter, assembled into an
:class:`repro.analysis.reporting.ExperimentResult`.  :func:`sweep_table`
renders any ad-hoc sweep with generic throughput/latency columns — the
``runner sweep`` command-line entry point.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields, replace
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.reporting import ExperimentResult
from repro.core.stack import IOStack, build_stack
from repro.hooks import install
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.stacks import DEVICES, stack_config
from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult
from repro.simulation.engine import MSEC
from repro.storage.barrier_modes import BarrierMode


class ScenarioOutcome:
    """A spec together with the workload result it produced."""

    __slots__ = ("spec", "result")

    def __init__(self, spec: ScenarioSpec, result: WorkloadResult):
        self.spec = spec
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScenarioOutcome({self.spec.describe()!r}, ops={self.result.operations})"


def build_spec_stack(spec: ScenarioSpec) -> IOStack:
    """Build the IO stack a spec describes."""
    if spec.config is None:
        raise ValueError(f"spec {spec.describe()!r} has no stack configuration")
    base = stack_config(spec.config, spec.device)
    overrides: dict[str, object] = {"seed": spec.seed}
    if spec.barrier_mode is not None:
        overrides["barrier_mode"] = BarrierMode(spec.barrier_mode)
    overrides.update(spec.stack_overrides)
    if isinstance(overrides.get("barrier_mode"), str):
        # stack_overrides may carry the mode as its value string, like the
        # barrier_mode axis does; coerce it the same way.
        overrides["barrier_mode"] = BarrierMode(overrides["barrier_mode"])
    return build_stack(replace(base, **overrides))


def prepare_spec(spec: ScenarioSpec, *, tracer=None) -> Workload:
    """Instantiate and bind the workload a spec describes (without running).

    Returns the prepared workload; its ``stack`` attribute holds the built
    stack (``None`` for block-level workloads), which crash-recovery tests
    use to inspect the device after the run.  Passing a
    :class:`repro.trace.Tracer` installs it over the freshly built stack —
    before any simulation activity, like the fault injector — so every
    span from the first warmup request onward is captured.

    Hooks go in through :func:`repro.hooks.install`, which owns their
    order (fault injector, tracer; a caller's crash tap last).
    """
    workload_class = WORKLOADS.get(spec.workload)
    workload = workload_class(**dict(spec.params))
    if workload_class.needs_stack:
        stack = build_spec_stack(spec)
        # The injector is rebuilt per run from (plan, seed), so every replay
        # injects bit-identical fault sites.
        install(stack, faults=spec.faults, seed=spec.seed, tracer=tracer)
    elif tracer is not None:
        raise ValueError(
            f"workload {spec.workload!r} builds no filesystem stack; "
            "there is nothing to install a tracer on"
        )
    else:
        _reject_stack_axes(spec)
        DEVICES.get(spec.device)  # validate the device axis up front
        stack = None
    return workload.prepare(stack, scale=spec.scale, seed=spec.seed, device=spec.device)


def _reject_stack_axes(spec: ScenarioSpec) -> None:
    """Refuse stack axes on a stack-less workload instead of ignoring them.

    A blocklevel sweep over EXT4-DR vs BFS-DR would otherwise produce rows
    labelled as different filesystems that are all the same raw-block run.
    """
    ignored = [
        axis
        for axis, value in (
            ("config", spec.config),
            ("barrier_mode", spec.barrier_mode),
        )
        if value is not None
    ]
    if spec.stack_overrides:
        ignored.append("stack_overrides")
    if spec.faults:
        # Raw-block workloads build their own devices internally; there is
        # no stack device to install an injector on.
        ignored.append("faults")
    if ignored:
        raise ValueError(
            f"workload {spec.workload!r} runs against the raw block device and "
            f"builds no filesystem stack; the {ignored} axes would be ignored — "
            f"set config=None and drop the stack axes"
        )


def collect_device_stats(stack) -> Optional[dict[str, dict[str, object]]]:
    """Snapshot the counter fields of a stack's device and block layer.

    Plain-data (picklable, JSON-ready) so it travels from worker processes
    into sweep JSON/CSV rows.  ``None`` when the workload built no stack
    (raw block-level runs own their devices internally).
    """
    if stack is None:
        return None
    device = stack.device.stats
    block = stack.block.stats
    snapshot: dict[str, dict[str, object]] = {
        "device": {
            stat.name: getattr(device, stat.name)
            for stat in dataclass_fields(device)
            if stat.name != "queue_depth"
        },
        "block": {
            stat.name: getattr(block, stat.name) for stat in dataclass_fields(block)
        },
    }
    snapshot["device"]["queue_depth_mean"] = device.queue_depth.mean()
    snapshot["device"]["queue_depth_peak"] = device.queue_depth.peak
    fs_stats = stack.fs.stats
    snapshot["fs"] = {
        "eio_errors": fs_stats.eio_errors,
        "remount_ro_events": fs_stats.remount_ro_events,
        "sync_retries": fs_stats.sync_retries,
    }
    return snapshot


def run_spec(spec: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario (warmup prefix, then measured phase)."""
    workload = prepare_spec(spec)
    workload.warm()
    result = workload.run()
    result.device_stats = collect_device_stats(workload.stack)
    return ScenarioOutcome(spec=spec, result=result)


def run_spec_traced(spec: ScenarioSpec, tracer) -> ScenarioOutcome:
    """Execute one scenario with a tracer installed over its stack.

    The tracer observes the whole run (warmup included); open request
    bookkeeping is finalized afterwards so the span buffer holds no
    half-closed entries.  The workload result is bit-identical to an
    untraced :func:`run_spec` of the same spec — the hooks only observe.
    """
    workload = prepare_spec(spec, tracer=tracer)
    workload.warm()
    result = workload.run()
    tracer.finalize()
    result.device_stats = collect_device_stats(workload.stack)
    return ScenarioOutcome(spec=spec, result=result)


def pool_map(function: Callable, items: Sequence, *, jobs: int = 1) -> list:
    """``function`` over ``items``, in order, on ``min(jobs, len(items))`` workers.

    With one worker (``jobs=1``, or at most one item) the calls run in the
    calling process and no pool starts; otherwise a process pool maps the
    items.  Results come back in item order either way.  The first
    exception reaches the caller; ``pool.map`` cancels the items no worker
    has taken yet and joins the running ones.  Every ``--jobs`` fan-out
    (experiments, sweeps, crash-check cells) goes through here.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [function(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(function, items))


def run_specs(specs: Iterable[ScenarioSpec], *, jobs: int = 1) -> list[ScenarioOutcome]:
    """Execute specs with :func:`run_spec`, over ``jobs`` worker processes.

    Outcomes come back in spec order, and — every spec being an
    independent, seeded simulation — with identical contents for any
    ``jobs``: it only changes the wall-clock.
    """
    spec_list = list(specs)
    for spec in spec_list:
        # Reject unknown names before spawning any workers.
        workload_class = WORKLOADS.get(spec.workload)
        DEVICES.get(spec.device)
        if workload_class.needs_stack and spec.config is not None:
            stack_config(spec.config, spec.device)
    return pool_map(run_spec, spec_list, jobs=jobs)


def run_matrix(
    *,
    name: str,
    description: str,
    columns: Sequence[str],
    specs: Sequence[ScenarioSpec],
    row: Optional[Callable[[ScenarioOutcome], Sequence[object]]] = None,
    rows: Optional[Callable[[Sequence[ScenarioOutcome]], Iterable[Sequence[object]]]] = None,
    notes: str = "",
    jobs: int = 1,
) -> ExperimentResult:
    """Run a spec matrix and assemble the table the experiment reports.

    Exactly one of ``row`` (per-outcome extractor) or ``rows`` (whole-sweep
    extractor, for tables that combine several outcomes per row) must be
    given.
    """
    if (row is None) == (rows is None):
        raise ValueError("run_matrix needs exactly one of row= or rows=")
    outcomes = run_specs(specs, jobs=jobs)
    result = ExperimentResult(
        name=name, description=description, columns=tuple(columns), notes=notes
    )
    extracted = rows(outcomes) if rows is not None else [row(o) for o in outcomes]
    for values in extracted:
        result.add_row(*values)
    return result


#: Columns of the generic ad-hoc sweep table.  Every spec axis appears, so
#: any two rows of any sweep can be told apart.
SWEEP_COLUMNS = (
    "device",
    "config",
    "workload",
    "label",
    "barrier_mode",
    "seed",
    "faults",
    "operations",
    "ops_per_sec",
    "mean_ms",
    "p99_ms",
    "detail",
)


#: Counter columns appended by ``sweep_table(metrics=True)`` — the
#: machine-readable fault/IO counters of satellite sweeps.  Each entry maps
#: a column name to (section, field) of the ``device_stats`` snapshot.
SWEEP_METRIC_COLUMNS = (
    ("io_errors", "block", "io_errors"),
    ("io_retries", "block", "io_retries"),
    ("io_failures", "block", "io_failures"),
    ("busy_requeues", "block", "busy_requeues"),
    ("power_failures", "block", "power_failures"),
    ("busy_rejections", "device", "busy_rejections"),
    ("commands", "device", "commands_submitted"),
    ("flushes", "device", "flushes_serviced"),
    ("eio_errors", "fs", "eio_errors"),
    ("remount_ro_events", "fs", "remount_ro_events"),
    ("sync_retries", "fs", "sync_retries"),
)


def _format_detail(extra: dict) -> str:
    """Workload-specific extras as a compact key=value string.

    This is what makes extras-only workloads (ordered-vs-buffered reports
    ratios, blocklevel reports KIOPS and queue depths) legible in the
    generic sweep table.
    """
    parts = []
    for key, value in extra.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts) or "-"


def _sweep_row(outcome: ScenarioOutcome) -> tuple:
    spec, result = outcome.spec, outcome.result
    summary = result.latency_summary()
    return (
        spec.device,
        spec.config or "raw-block",
        spec.workload,
        spec.display_label,
        spec.barrier_mode or "-",
        spec.seed,
        spec.fault_label,
        result.operations,
        result.ops_per_second,
        summary.mean / MSEC if summary else "-",
        summary.p99 / MSEC if summary else "-",
        _format_detail(result.extra),
    )


def _sweep_row_with_metrics(outcome: ScenarioOutcome) -> tuple:
    """The generic sweep row plus the device/block counter columns.

    Counters are spliced in before the trailing ``detail`` column; rows of
    stack-less workloads (no counters to read) show ``-``.
    """
    base = _sweep_row(outcome)
    stats = outcome.result.device_stats
    counters = tuple(
        stats[section][field] if stats is not None else "-"
        for _, section, field in SWEEP_METRIC_COLUMNS
    )
    return base[:-1] + counters + base[-1:]


def sweep_table(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: int = 1,
    name: str = "sweep",
    description: str = "ad-hoc scenario sweep",
    notes: str = "",
    metrics: bool = False,
) -> ExperimentResult:
    """Run any spec list and tabulate it with the generic sweep columns.

    ``metrics=True`` appends the :data:`SWEEP_METRIC_COLUMNS` counters
    (io_errors, retries, requeues, power failures, ...) to every row; the
    default table is unchanged, byte for byte.
    """
    columns = SWEEP_COLUMNS
    row = _sweep_row
    if metrics:
        columns = (
            SWEEP_COLUMNS[:-1]
            + tuple(name_ for name_, _, _ in SWEEP_METRIC_COLUMNS)
            + SWEEP_COLUMNS[-1:]
        )
        row = _sweep_row_with_metrics
    return run_matrix(
        name=name,
        description=description,
        columns=columns,
        specs=specs,
        row=row,
        notes=notes,
        jobs=jobs,
    )
