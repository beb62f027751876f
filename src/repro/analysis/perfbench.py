"""Engine performance tracking (``BENCH_engine.json``).

The discrete-event loop in :mod:`repro.simulation.engine` multiplies into
every figure and table of the reproduction, so its throughput is tracked as
a first-class artifact.  This module measures four rates:

* ``events_per_sec`` — bare timer events through the heap (little process
  involvement): the cost of schedule + pop + trigger.
* ``wakeups_per_sec`` — a process blocking on a pending timeout per
  iteration: the cost of the block/wakeup/resume cycle.
* ``fsync_ops_per_sec`` — ``fsync()`` calls per second on the full
  ``standard_config("BFS-DR")`` stack: the end-to-end figure-regeneration
  rate.
* ``table1_wallclock_sec`` — wall-clock seconds to regenerate Table 1.
* ``retained_bytes_per_call`` — heap bytes a plain BFS-OD ``fdatabarrier``
  loop keeps per call on one growing file (:mod:`tracemalloc`): a
  deterministic count of per-IO state and history that a run without
  ``record_history()`` should not keep.
* ``crashcheck_per_point_wall_sec`` / ``crashcheck_inline_wall_sec`` /
  ``crash_replay_speedup`` — wall-clock of one exhaustive crashcheck cell
  with one run per point vs every point judged in-line in one run, and
  their ratio: the O(points × run) → O(run + points × (delta + lost
  set)) lever of :mod:`repro.crashlab` (in-line, incremental judging).

``python -m repro.analysis.perfbench`` appends one record to
``BENCH_engine.json`` so the perf trajectory is recorded PR over PR; see
docs/PERFORMANCE.md for how to read it.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Callable

from repro.analysis.measure import measure_sync_latency
from repro.core.stack import build_stack, standard_config
from repro.simulation.engine import Simulator

#: Default location of the perf-trajectory record, at the repository root.
DEFAULT_OUTPUT = "BENCH_engine.json"


def engine_events_rate(num_events: int = 200_000) -> float:
    """Timer events per second through the event loop."""
    sim = Simulator()

    def clock():
        timeout = sim.timeout
        for _ in range(num_events):
            yield timeout(1)

    sim.process(clock())
    start = time.perf_counter()
    sim.run()
    return num_events / (time.perf_counter() - start)


def process_wakeup_rate(num_wakeups: int = 100_000) -> float:
    """Block/wakeup/resume cycles per second (two processes ping-ponging)."""
    sim = Simulator()
    half = num_wakeups // 2
    mailbox = {"ping": sim.event(), "pong": sim.event()}

    def pinger():
        for _ in range(half):
            mailbox["ping"].succeed()
            pong = mailbox["pong"] = sim.event()
            yield pong

    def ponger():
        for _ in range(half):
            ping = mailbox["ping"]
            if not ping.triggered:
                yield ping
            mailbox["ping"] = sim.event()
            mailbox["pong"].succeed()
            yield sim.timeout(0)

    sim.process(pinger())
    sim.process(ponger())
    start = time.perf_counter()
    sim.run()
    return num_wakeups / (time.perf_counter() - start)


def fsync_rate(calls: int = 400, config: str = "BFS-DR") -> float:
    """``fsync()`` operations per second on the full simulated stack."""
    stack = build_stack(standard_config(config))
    start = time.perf_counter()
    measure_sync_latency(stack, calls=calls, sync_call="fsync", allocating=True)
    return calls / (time.perf_counter() - start)


def crash_replay_metrics(*, repeats: int = 3, quick: bool = False) -> dict[str, float]:
    """Wall-clock of an exhaustive crashcheck cell, per point vs in-line.

    The cell is sync-loop on EXT4-DR × in-order-recovery, every recorded
    boundary explored.  Judged with one :func:`repro.crashlab.check_point`
    run per point, every verdict re-runs its whole prefix — O(points ×
    run), so the wall-clock grows quadratically with run length; the
    in-line :func:`repro.crashlab.explore` pass judges every point inside
    one run, each from the previous point's crash state plus what changed
    — O(run + points × delta), linear in the run.
    ``crash_replay_speedup`` is the per-point wall (one pass) over the
    in-line wall (best of ``repeats`` passes: it is short enough for one
    slow pass to move the ratio threefold); the two reports must be
    identical, or this raises.
    """
    from repro.crashlab import check_point, explore
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec(
        workload="sync-loop",
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode="in-order-recovery",
        params={"calls": 60 if quick else 160},
    )
    inline = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        report = explore(spec, strategy="exhaustive")
        inline = min(inline, time.perf_counter() - start)
    start = time.perf_counter()
    points = [check_point(spec, index) for index in range(report.boundaries_total)]
    per_point = time.perf_counter() - start
    if points != list(report.points):
        raise RuntimeError("per-point and in-line crashcheck verdicts differ")
    return {
        "crashcheck_per_point_wall_sec": round(per_point, 4),
        "crashcheck_inline_wall_sec": round(inline, 4),
        "crash_replay_speedup": round(per_point / inline, 2) if inline > 0 else 0.0,
    }


def retained_bytes_per_call(
    config: str = "BFS-OD", sync_call: str = "fdatabarrier", calls: int = 400
) -> float:
    """Heap bytes a plain run keeps per sync call on one growing file.

    Runs ``calls`` and then ``calls`` more allocating one-page write+sync
    calls on one file of a plain-ssd stack without ``record_history()``,
    each half drained (requests, then the flusher's timers), and returns
    the growth of the traced heap (:mod:`tracemalloc`, after a collection)
    over the second half, per call.  What is left is what the run keeps
    per call: file state (one page version per written page) and any
    history a plain run should not keep.  A count, not a timing: the same
    interpreter build gives the same value.
    """
    import gc
    import tracemalloc

    from repro.simulation import MSEC

    stack = build_stack(standard_config(config, "plain-ssd"))
    fs = stack.fs
    sync = getattr(fs, sync_call)
    handle = fs.create("retained.dat")

    def loop():
        for _ in range(calls):
            fs.write(handle, 1)
            yield from sync(handle, issuer="bench")

    def traced_after_half() -> int:
        stack.run_process(loop())
        stack.run_process(stack.block.drain())
        stack.sim.run(until=stack.sim.now + 100 * MSEC)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first = traced_after_half()
        second = traced_after_half()
    finally:
        tracemalloc.stop()
    return round((second - first) / calls, 1)


def table1_wallclock(scale: float = 1.0) -> float:
    """Wall-clock seconds to regenerate Table 1 at ``scale``."""
    from repro.experiments import table1_fsync_latency

    start = time.perf_counter()
    table1_fsync_latency.run(scale)
    return time.perf_counter() - start


def _best(fn: Callable[[], float], repeats: int, *, minimize: bool = False) -> float:
    samples = [fn() for _ in range(repeats)]
    return min(samples) if minimize else max(samples)


def collect_metrics(*, repeats: int = 3, quick: bool = False) -> dict[str, float]:
    """Run every microbenchmark and return best-of-``repeats`` rates."""
    events = 50_000 if quick else 200_000
    wakeups = 25_000 if quick else 100_000
    calls = 100 if quick else 400
    scale = 0.25 if quick else 1.0
    metrics = {
        "events_per_sec": round(_best(lambda: engine_events_rate(events), repeats), 1),
        "wakeups_per_sec": round(
            _best(lambda: process_wakeup_rate(wakeups), repeats), 1
        ),
        "fsync_ops_per_sec": round(_best(lambda: fsync_rate(calls), repeats), 1),
        "table1_wallclock_sec": round(
            _best(lambda: table1_wallclock(scale), repeats, minimize=True), 4
        ),
        "table1_scale": scale,
        "retained_bytes_per_call": retained_bytes_per_call(calls=calls),
    }
    # The per-point side gets one timed pass: it dwarfs every other
    # benchmark here.  The short in-line side takes the best of repeats.
    metrics.update(crash_replay_metrics(repeats=repeats, quick=quick))
    return metrics


def _git_revision() -> str:
    """Short revision, with a ``-dirty`` suffix for uncommitted trees.

    The suffix matters: a record benchmarked from an uncommitted tree must
    not be attributed to its (unmodified) parent commit.
    """
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        if not revision:
            return "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain", "-uno"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        return f"{revision}-dirty" if status else revision
    except Exception:
        return "unknown"


class TrajectoryError(ValueError):
    """The trajectory file exists but is not a ``{"history": [...]}`` record."""


def _load_trajectory(path: Path) -> dict[str, Any]:
    """The trajectory document at ``path``; an empty history if there is none.

    A file that is not a JSON ``{"history": [...]}`` document raises
    :class:`TrajectoryError` naming it, so a damaged trajectory is never
    overwritten with a one-entry history.
    """
    if not path.exists():
        return {"history": []}
    try:
        document = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TrajectoryError(f"{path}: not a JSON perf trajectory ({error})") from error
    if not (isinstance(document, dict) and isinstance(document.get("history"), list)):
        raise TrajectoryError(f'{path}: not a {{"history": [...]}} perf trajectory')
    return document


def record(
    path: str | Path = DEFAULT_OUTPUT,
    *,
    label: str = "",
    repeats: int = 3,
    quick: bool = False,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Benchmark and append one record to the trajectory file at ``path``.

    The file holds ``{"history": [record, ...]}``; each record carries the
    metrics plus enough provenance (git revision, python, timestamp) to read
    the trajectory later.  The file is checked before anything is measured:
    a damaged one raises :class:`TrajectoryError` and is left as it was.
    Returns the appended record.
    """
    path = Path(path)
    document = _load_trajectory(path)
    entry: dict[str, Any] = {
        "label": label or _git_revision(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git": _git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metrics": collect_metrics(repeats=repeats, quick=quick),
    }
    if extra:
        entry.update(extra)
    document["history"].append(entry)
    path.write_text(json.dumps(document, indent=1) + "\n")
    return entry


def main(argv: list[str] | None = None) -> None:
    """CLI: ``python -m repro.analysis.perfbench [--output FILE]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.analysis.perfbench",
        description="Benchmark the simulation engine and record the result.",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT, help="trajectory file")
    parser.add_argument("--label", default="", help="record label (default: git rev)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N repeats")
    parser.add_argument(
        "--quick", action="store_true", help="smaller iteration counts (for CI)"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print metrics without recording"
    )
    parser.add_argument(
        "--assert-floor", action="append", default=[], metavar="METRIC=VALUE",
        help=(
            "fail (exit 1) if the named metric comes out below VALUE "
            "(repeatable; e.g. --assert-floor events_per_sec=300000) — the "
            "CI perf-smoke regression gate"
        ),
    )
    args = parser.parse_args(argv)

    floors = []
    for item in args.assert_floor:
        name, separator, raw = item.partition("=")
        if not separator or not name:
            parser.error(f"--assert-floor expects METRIC=VALUE, got {item!r}")
        try:
            floors.append((name, float(raw)))
        except ValueError:
            parser.error(f"--assert-floor value must be a number, got {item!r}")
    if args.no_write:
        metrics = collect_metrics(repeats=args.repeats, quick=args.quick)
        print(json.dumps(metrics, indent=1))
    else:
        try:
            entry = record(
                args.output, label=args.label, repeats=args.repeats, quick=args.quick
            )
        except TrajectoryError as error:
            raise SystemExit(f"perfbench: {error}") from None
        print(json.dumps(entry, indent=1))
        metrics = entry["metrics"]
    failures = []
    for name, floor in floors:
        value = metrics.get(name)
        if value is None:
            failures.append(f"{name}: no such metric")
        elif value < floor:
            failures.append(f"{name}: {value} < floor {floor}")
    if failures:
        raise SystemExit("perfbench bound check FAILED: " + "; ".join(failures))


if __name__ == "__main__":  # pragma: no cover
    main()
