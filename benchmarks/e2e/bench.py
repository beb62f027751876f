#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: host time and memory per workload.

Run from the repository root::

    python3 benchmarks/e2e/bench.py --seed 0 [--workload NAME]... [--seconds S]
        [--trace [0|1]] [--json PATH] [--trace-out PATH]

Every workload runs ``REPEATS`` times, each time in a fresh child process,
one child after another; ``--trace`` adds one more child that repeats the
workload under cProfile.  A fresh process per repeat matters: heap growth
left by one run slows the next run in the same process by about 9%.  The
children import the simulator from ``src/`` and call only its public entry
points; after a run they read only the stats objects of the stack and, on
``stack.sim``, the event sequence counter and each process's wakeups.

Output: one ``workload metric value unit`` line per metric, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Untraced, ``metrics`` holds the end-to-end
metrics; traced, the per-layer ones.  With several workloads each metric
name is prefixed with ``<workload>/``.  The exit code is 0 when every
workload's outputs were correct, 1 when one was not, and 2 when the
simulator is missing from the checkout.

All times are host (wall-clock) time of this simulator, not simulated
device latency.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DIGESTS_FILE = HERE / "digests.json"

#: Fresh child processes per workload in one run; their medians are reported.
#: One child's rate varies by up to +-20% on a shared 2-vCPU x86-64 VM (hash
#: seed, memory layout, neighbours); in calm hours there the median of seven
#: kept the spread of ten runs between 2% and 12%.
REPEATS = 7
#: Allowance for interpreter start, imports, stack build and warmup of one
#: child, on top of its share of ``--seconds``.
EXPECTED_SETUP_S = 2.0
#: How much slower a child runs under cProfile (measured +70-240%).
TRACE_SLOWDOWN = 4.0
#: A child that runs longer than this many times its expected time is killed.
DEADLINE_FACTOR = 5.0

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in layers.LAYERS),
    *((f"{layer}.calls_per_op", "calls/op") for layer in layers.LAYERS),
    ("simulation.events_per_op", "events/op"),
    ("fs.journal.commits_per_op", "commits/op"),
    ("fs.journal.resumes_per_op", "resumes/op"),
    ("block.requests_per_op", "requests/op"),
    ("block.barrier_requests_per_op", "requests/op"),
    ("block.resumes_per_op", "resumes/op"),
    ("block.accept_ratio", "fraction"),
    ("storage.commands_per_op", "commands/op"),
    ("storage.flushes_per_op", "flushes/op"),
    ("storage.pages_per_op", "pages/op"),
    ("storage.queue_depth_mean", "commands"),
    ("storage.resumes_per_op", "resumes/op"),
    ("python.gc_s", "s"),
    ("python.gc_full_collections", "count"),
    *((f"{layer}.live_objects_per_op", "objects/op") for layer in layers.OBJECT_LAYERS),
    ("harness.stack_builds", "count"),
    ("crashlab.points", "count"),
    ("crashlab.boundaries", "count"),
    ("crashlab.checkpoints", "count"),
    ("crashlab.fork_s", "s"),
    ("crashlab.wait_s", "s"),
    ("crashlab.scratch_fallbacks", "count"),
    ("crashlab.replay_s_per_point", "s"),
    ("crashlab.verify_s_per_point", "s"),
    ("trace_overhead_pct", "%"),
)

#: Per-layer times that are zero by construction on some workloads: the
#: journal does no work on ordered-bfs, and crash exploration runs only in
#: crashcheck-bfs.  They are printed and written to the JSON and trace
#: files, but left out of the summary line (and BENCHMARK.json), where a
#: time must differ from run to run.
SPARSE_TIMES = frozenset({
    "fs.journal.self_s",
    "crashlab.self_s",
    "crashlab.fork_s",
    "crashlab.wait_s",
    "crashlab.replay_s_per_point",
    "crashlab.verify_s_per_point",
})


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------- child side


class Probe:
    """Phase clock of one child; when traced, also profiles the child.

    Traced, one profile covers set-up (it counts stack builds) and a
    second covers the timed phase alone, with GC callbacks installed.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.marks: dict[str, float] = {}
        self.trace: dict = {}
        self._profiles = []
        if traced:
            import cProfile

            self._profiles.append(cProfile.Profile())
            self._profiles[0].enable()

    def mark(self, phase: str) -> None:
        self.marks[phase] = time.monotonic()

    @contextmanager
    def timed(self):
        """Time (and, traced, profile) the body: the workload's timed phase."""
        if not self.traced:
            self.mark("timed")
            try:
                yield
            finally:
                self.mark("verify")
            return
        import cProfile

        self._profiles[0].disable()
        gc_time = {"s": 0.0, "full": 0, "start": 0.0}

        def on_gc(phase, info):
            if phase == "start":
                gc_time["start"] = time.perf_counter()
                gc_time["full"] += info["generation"] == 2
            else:
                gc_time["s"] += time.perf_counter() - gc_time["start"]

        profile = cProfile.Profile()
        self._profiles.append(profile)
        gc.callbacks.append(on_gc)
        self.mark("timed")
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            self.mark("verify")
            gc.callbacks.remove(on_gc)
        self.trace.update(layers.attribute(profile, str(SRC)))
        self.trace["gc_s"] = gc_time["s"]
        self.trace["gc_full_collections"] = gc_time["full"]
        self.trace["stack_builds"] = sum(
            _calls_of(profile, "repro.core.stack", "build_stack")
            for profile in self._profiles
        )

    def count_live_objects(self, ops: int) -> None:
        """Objects of the stack's layers alive now, per op (traced only)."""
        if not self.traced:
            return
        gc.collect()
        counts = dict.fromkeys(layers.OBJECT_LAYERS, 0)
        for obj in gc.get_objects():
            layer = layers.layer_of_module(type(obj).__module__ or "")
            if layer in counts:
                counts[layer] += 1
        self.trace["live_objects_per_op"] = {
            layer: count / ops for layer, count in counts.items()
        }


def _calls_of(profile, module: str, function: str) -> int:
    import pstats

    return sum(
        entry[1]
        for key, entry in pstats.Stats(profile).stats.items()
        if key[2] == function and layers.module_of_file(key[0], str(SRC)) == module
    )


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for, in MB."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


class SyncLoop:
    """A closed loop of one-page allocating writes, each followed by a sync."""

    seeded = True

    def __init__(self, config: str, sync_call: str, barrier_mode, calls_per_s: int):
        self.config = config
        self.sync_call = sync_call
        self.barrier_mode = barrier_mode
        self.calls_per_s = calls_per_s

    def size(self, seconds: float) -> int:
        return max(50, round(self.calls_per_s * seconds / REPEATS))

    def parameters(self, size, seed: int) -> dict:
        # The simulated loop draws no randomness on these stacks, so the
        # seed varies the input through the warmup length: the timed calls
        # start from a different journal, epoch and queue state.
        return {
            "workload": "sync-loop",
            "config": self.config,
            "device": "plain-ssd",
            "barrier_mode": self.barrier_mode,
            "sync_call": self.sync_call,
            "warmup_calls": min(1000, int(size)) + seed % 100,
            "calls": int(size),
        }

    def child(self, seed: int, size, probe: Probe) -> dict:
        from repro.scenarios.engine import prepare_spec

        params = self.parameters(size, seed)
        workload = prepare_spec(_sync_loop_spec(params, seed))
        probe.mark("warm")
        workload.warm()
        stack = workload.stack
        before = _stack_counters(stack)
        with probe.timed():
            result = workload.run()
        after = _stack_counters(stack)
        calls = params["calls"]
        counters = _per_op_counters(before, after, calls)
        probe.count_live_objects(calls)
        summary = result.latency_summary()
        digest = _digest({
            "operations": result.operations,
            "elapsed_usec": result.elapsed_usec,
            "latency": summary.as_dict() if summary else None,
            "stats": after["totals"],
        })
        return {
            "ops": calls,
            "failed": calls - len(result.latencies),
            "digest": digest,
            "counters": counters,
        }


def _sync_loop_spec(parameters: dict, seed: int):
    """The ``sync-loop`` scenario that ``parameters`` describe."""
    from repro.scenarios.spec import ScenarioSpec

    return ScenarioSpec(
        workload="sync-loop",
        config=parameters["config"],
        device=parameters["device"],
        barrier_mode=parameters["barrier_mode"],
        seed=seed,
        params={
            key: parameters[key]
            for key in ("calls", "sync_call", "warmup_calls")
            if key in parameters
        },
    )


def _stack_counters(stack) -> dict:
    """Counters of the stack's public stats objects and engine, right now."""
    sim, device, block = stack.sim, stack.device.stats, stack.block.stats
    resumes = {"journal": 0, "block": 0, "storage": 0}
    # Daemon threads stay registered while they wait for work; each one's
    # wakeup count is the work its layer was scheduled for.
    for process in sim._live_processes:
        name = process.name
        if name in ("jbd2", "bfs.commit-thread", "bfs.flush-thread"):
            resumes["journal"] += process.context_switches
        elif name == "blkdev.dispatcher":
            resumes["block"] += process.context_switches
        elif name.endswith((".controller", ".flusher")):
            resumes["storage"] += process.context_switches
    totals = {
        "device": {
            key: value
            for key, value in vars(device).items()
            if isinstance(value, int)
        },
        "block": dict(vars(block)),
        "fs": stack.fs.stats.snapshot(),
    }
    return {
        "now": sim.now,
        # itertools.count's repr is its next value: reading it this way
        # leaves the engine's sequence untouched.
        "events": int(repr(sim._sequence)[len("count("):-1]),
        "resumes": resumes,
        "queue_area": device.queue_depth.mean(now=sim.now) * sim.now,
        "totals": totals,
    }


def _per_op_counters(before: dict, after: dict, ops: int) -> dict:
    def delta(section: str, key: str) -> int:
        return after["totals"][section][key] - before["totals"][section][key]

    dispatched = delta("block", "requests_dispatched")
    requeues = delta("block", "busy_requeues")
    elapsed = after["now"] - before["now"]
    return {
        "simulation.events_per_op": (after["events"] - before["events"]) / ops,
        "fs.journal.commits_per_op": delta("fs", "journal_commits") / ops,
        "fs.journal.resumes_per_op": (
            after["resumes"]["journal"] - before["resumes"]["journal"]
        ) / ops,
        "block.requests_per_op": delta("block", "requests_submitted") / ops,
        "block.barrier_requests_per_op": delta("block", "barrier_requests") / ops,
        "block.resumes_per_op": (
            after["resumes"]["block"] - before["resumes"]["block"]
        ) / ops,
        "block.accept_ratio": (
            dispatched / (dispatched + requeues) if dispatched + requeues else 1.0
        ),
        "storage.commands_per_op": delta("device", "commands_submitted") / ops,
        "storage.flushes_per_op": (
            delta("device", "flushes_serviced") + delta("device", "fua_writes")
        ) / ops,
        "storage.pages_per_op": delta("device", "pages_transferred") / ops,
        # The device's time-weighted depth starts at t=0, so mean x now is
        # its area; the difference of two areas is the timed phase's.
        "storage.queue_depth_mean": (
            (after["queue_area"] - before["queue_area"]) / elapsed if elapsed else 0.0
        ),
        "storage.resumes_per_op": (
            after["resumes"]["storage"] - before["resumes"]["storage"]
        ) / ops,
    }


class PaperSuite:
    """Every experiment of the paper, one after another, at one scale."""

    seeded = False

    def __init__(self, scale_per_s: float):
        self.scale_per_s = scale_per_s

    def size(self, seconds: float) -> float:
        return max(0.02, round(self.scale_per_s * seconds / REPEATS, 3))

    def parameters(self, size, seed: int) -> dict:
        return {"experiments": "ALL_EXPERIMENTS", "scale": float(size), "jobs": 1}

    def child(self, seed: int, size, probe: Probe) -> dict:
        import traceback

        from repro.experiments.runner import ALL_EXPERIMENTS

        tables, failed = [], 0
        probe.mark("warm")
        with probe.timed():
            for name, run in ALL_EXPERIMENTS.items():
                try:
                    tables.append(run(float(size)).to_dict())
                except Exception as error:  # an experiment that raised is a failed op
                    traceback.print_exc()
                    tables.append({"name": name, "error": repr(error)})
                    failed += 1
        probe.count_live_objects(len(tables))
        return {
            "ops": len(tables),
            "failed": failed,
            "digest": _digest(tables),
            "counters": {"experiments": len(tables)},
        }


class CrashCheck:
    """Exhaustive crash-point exploration of one BFS-DR sync-loop cell."""

    seeded = True

    def __init__(self, calls_per_s: int):
        self.calls_per_s = calls_per_s

    def size(self, seconds: float) -> int:
        return max(8, round(self.calls_per_s * seconds / REPEATS))

    def parameters(self, size, seed: int) -> dict:
        # Exhaustive exploration draws no randomness: the seed varies the
        # run length, and with it every recorded boundary.
        return {
            "workload": "sync-loop",
            "config": "BFS-DR",
            "device": "plain-ssd",
            "barrier_mode": "in-order-recovery",
            "calls": int(size) + seed % 16,
            "strategy": "exhaustive",
            "jobs": 2,
            "checkpoints": "default",
        }

    def child(self, seed: int, size, probe: Probe) -> dict:
        import warnings

        from repro.crashlab import explore

        spec = _sync_loop_spec(self.parameters(size, seed), seed)
        probe.mark("warm")
        forks = {"count": 0, "s": 0.0}
        real_fork = os.fork

        def counting_fork():
            start = time.perf_counter()
            pid = real_fork()
            if pid:
                forks["count"] += 1
                forks["s"] += time.perf_counter() - start
            return pid

        with warnings.catch_warnings(record=True) as caught:
            # A checkpoint that died replaying a point falls back to a
            # from-scratch replay and says so with a RuntimeWarning.
            warnings.simplefilter("always", RuntimeWarning)
            if probe.traced:
                os.fork = counting_fork
            try:
                cpu = time.process_time()
                with probe.timed():
                    report = explore(spec, strategy="exhaustive", seed=seed, jobs=2)
                cpu = time.process_time() - cpu
            finally:
                os.fork = real_fork
        points = report.points_checked
        grid = [
            (point.index, point.kind, point.time,
             [(v.oracle, v.passed, v.guaranteed, v.witness) for v in point.verdicts])
            for point in report.points
        ]
        failed = len({point.index for point, _ in report.unexpected_violations})
        if probe.traced:
            probe.trace.update({
                "checkpoints": forks["count"],
                "fork_s": forks["s"],
                "wait_s": probe.marks["verify"] - probe.marks["timed"] - cpu,
                **_sample_points(spec, seed),
            })
            _count_recording_heap(spec, probe, points)
        return {
            "ops": points,
            "failed": failed,
            "digest": _digest({"boundaries": report.boundaries_total, "grid": grid}),
            "scratch_fallbacks": sum(issubclass(w.category, RuntimeWarning) for w in caught),
            "counters": {
                "crashlab.points": points,
                "crashlab.boundaries": report.boundaries_total,
                "violations": len(report.violations),
            },
        }


#: Points of the in-process sample that splits a point's cost.
SAMPLE_POINTS = 16


def _sample_points(spec, seed: int) -> dict:
    """Replay and verify cost per point, from a profiled in-process sample.

    A forked replay's profile dies with the child, so a stratified sample
    of points is replayed here with ``check_point``.  Time in the crashlab
    layer (recovery and oracles) is verification; the rest is replay.
    """
    import cProfile

    from repro.crashlab import check_point, record_boundaries, select_points

    indices = select_points(
        "stratified", record_boundaries(spec), points=SAMPLE_POINTS, seed=seed
    )
    profile = cProfile.Profile()
    profile.enable()
    for index in indices:
        check_point(spec, index)
    profile.disable()
    cost = layers.attribute(profile, str(SRC))
    verify = cost["layers"]["crashlab"]["self_s"]
    count = max(1, len(indices))
    return {
        "replay_s_per_point": (cost["profiled_s"] - verify) / count,
        "verify_s_per_point": verify / count,
    }


def _count_recording_heap(spec, probe: Probe, points: int) -> None:
    """Live objects of a finished recording run: what each checkpoint copies."""
    from repro.scenarios.engine import prepare_spec

    workload = prepare_spec(spec)
    workload.run()
    probe.count_live_objects(max(1, points))
    del workload


#: The workloads.  Sizes are set per second of ``--seconds`` from rates
#: measured on a shared 2-vCPU x86-64 VM, so one repeat's timed phase takes
#: about ``--seconds / REPEATS`` there.
WORKLOADS = {
    "fsync-bfs": SyncLoop("BFS-DR", "fsync", "in-order-recovery", calls_per_s=3200),
    "fsync-ext4": SyncLoop("EXT4-DR", "fsync", None, calls_per_s=4000),
    "ordered-bfs": SyncLoop(
        "BFS-OD", "fdatabarrier", "in-order-recovery", calls_per_s=13000
    ),
    "paper-suite": PaperSuite(scale_per_s=0.3),
    "crashcheck-bfs": CrashCheck(calls_per_s=70),
}


def child_main(name: str, seed: int, size: float, traced: bool) -> None:
    """Run one repeat of one workload and print its record as JSON."""
    probe = Probe(traced)
    workload = WORKLOADS[name]
    record = workload.child(seed, size, probe)
    probe.mark("end")
    record.update(marks=probe.marks, trace=probe.trace, peak_rss_mb=_peak_rss_mb())
    print(json.dumps(record))


# -------------------------------------------------------------- parent side


def _kill_group(pid: int) -> None:
    """Kill whatever is left of a child's process group (forked helpers)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(name: str, seed: int, size, traced: bool, deadline_s: float) -> dict:
    """Run one child to completion or to its deadline; never retry it."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(seed), "--size", repr(size),
    ] + (["--traced"] if traced else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.monotonic()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True, start_new_session=True,
    )
    status = "ok"
    try:
        try:
            out, err = proc.communicate(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            out, err = proc.communicate()
            status = "timeout"
    finally:
        # Also on KeyboardInterrupt; after a normal exit this reaps
        # checkpoint helpers a crashed child may have left behind.
        _kill_group(proc.pid)
        proc.wait()
    record = {
        "traced": traced,
        "pid": proc.pid,
        "start": start,
        "wall_s": time.monotonic() - start,
        "deadline_s": deadline_s,
        "returncode": proc.returncode,
    }
    if status == "ok":
        lines = out.strip().splitlines()
        try:
            record.update(json.loads(lines[-1]))
        except (IndexError, json.JSONDecodeError):
            status = "failed"
        if proc.returncode != 0:
            status = "failed"
    record["status"] = status
    if status != "ok":
        record["stderr_tail"] = err[-2000:]
    return record


def _median(values):
    return statistics.median(values) if values else 0.0


def _pinned(name: str, seed: int, seconds: float):
    """The digest pinned for this workload at this seed and size, if any."""
    pins = json.loads(DIGESTS_FILE.read_text())
    if seconds != pins["seconds"]:
        return None
    if WORKLOADS[name].seeded and seed != pins["seed"]:
        return None
    return pins["digests"].get(name)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """All repeats of one workload, checked and summarised."""
    workload = WORKLOADS[name]
    size = workload.size(seconds)
    expected = EXPECTED_SETUP_S + seconds / REPEATS
    children: list[dict] = []
    for traced_child in [False] * REPEATS + [True] * traced:
        if children and children[-1]["status"] != "ok":
            # The workload has failed already; more children would only
            # add their deadlines to the run's wall time.
            children.append({"traced": traced_child, "status": "skipped"})
            continue
        slowdown = TRACE_SLOWDOWN if traced_child else 1.0
        children.append(run_child(
            name, seed, size, traced_child, DEADLINE_FACTOR * slowdown * expected
        ))
    ok = [child for child in children if child["status"] == "ok"]
    plain = [child for child in ok if not child["traced"]]
    for child in ok:
        child["setup_s"] = child["marks"]["timed"] - child["start"]
        child["timed_s"] = child["marks"]["verify"] - child["marks"]["timed"]
    digests = sorted({child["digest"] for child in ok})
    counters = [child["counters"] for child in ok]
    pinned = _pinned(name, seed, seconds)
    problems = [
        f"child {index} {child['status']}"
        for index, child in enumerate(children)
        if child["status"] != "ok"
    ]
    if len(digests) > 1:
        problems.append("digest differs between repeats")
    if pinned is not None and digests and digests != [pinned]:
        problems.append("digest does not match the pinned digest")
    if any(c != counters[0] for c in counters):
        problems.append("counters differ between repeats")
    # A child that did not finish counts as many ops as a sibling that did,
    # or as one.
    ran = [child for child in children if child["status"] != "skipped"]
    per_child = max([child["ops"] for child in ok] + [1])
    attempted = sum(child["ops"] for child in ok) + per_child * (len(ran) - len(ok))
    failed = attempted if problems else sum(child["failed"] for child in ok)
    metrics = {
        "ops_per_s": _median([c["ops"] / c["timed_s"] for c in plain if c["timed_s"] > 0]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
        "setup_s": _median([c["setup_s"] for c in plain]),
    }
    if traced:
        traced_children = [child for child in ok if child["traced"]]
        metrics.update(
            _layer_metrics(traced_children[0], plain) if traced_children
            else dict.fromkeys((metric for metric, _ in PER_LAYER), 0.0)
        )
    return {
        "parameters": {
            **workload.parameters(size, seed),
            "seed": seed if workload.seeded else None,
            "repeats": REPEATS,
            "expected_child_s": expected,
        },
        "children": children,
        "digest": digests[0] if len(digests) == 1 else digests,
        "pinned_digest": pinned,
        "counters": counters[0] if counters else {},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "correct": not problems and failed == 0,
        "metrics": metrics,
    }


def _layer_metrics(traced: dict, plain: list) -> dict:
    """The per-layer metrics of one traced child."""
    trace, ops = traced["trace"], traced["ops"] or 1
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for layer, cost in trace["layers"].items():
        metrics[f"{layer}.self_s"] = cost["self_s"]
        metrics[f"{layer}.calls_per_op"] = cost["calls"] / ops
    for layer, count in trace.get("live_objects_per_op", {}).items():
        metrics[f"{layer}.live_objects_per_op"] = count
    metrics.update({k: v for k, v in traced["counters"].items() if k in metrics})
    metrics["python.gc_s"] = trace["gc_s"]
    metrics["python.gc_full_collections"] = trace["gc_full_collections"]
    metrics["harness.stack_builds"] = trace["stack_builds"]
    for key in ("checkpoints", "fork_s", "wait_s", "replay_s_per_point", "verify_s_per_point"):
        if key in trace:
            metrics[f"crashlab.{key}"] = trace[key]
    metrics["crashlab.scratch_fallbacks"] = traced.get("scratch_fallbacks", 0)
    untraced = _median([child["timed_s"] for child in plain])
    metrics["trace_overhead_pct"] = 100.0 * (traced["timed_s"] / untraced - 1.0)
    return metrics


def _spans(results: dict, origin: float) -> list:
    """One span per workload, per child and per phase of each child."""
    spans = []

    def add(name, start, end, parent):
        spans.append({
            "id": len(spans), "name": name, "parent": parent,
            "start": start - origin, "end": end - origin,
        })
        return len(spans) - 1

    for name, result in results.items():
        children = [child for child in result["children"] if "start" in child]
        root = add(name, children[0]["start"],
                   max(c["start"] + c["wall_s"] for c in children), None)
        for index, child in enumerate(children):
            label = f"{name} child {index}" + (" (traced)" if child["traced"] else "")
            parent = add(label, child["start"], child["start"] + child["wall_s"], root)
            marks = child.get("marks")
            if not marks:
                continue
            bounds = [child["start"], marks["warm"], marks["timed"], marks["verify"], marks["end"]]
            for phase, start, end in zip(("setup", "warm", "timed", "verify"), bounds, bounds[1:]):
                add(phase, start, end, parent)
    return spans


def _git_revision() -> str:
    """Short revision with ``-dirty`` for a modified tree, or ``unknown``."""
    try:
        def git(*args):
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()

        revision = git("rev-parse", "--short", "HEAD")
        return revision + ("-dirty" if git("status", "--porcelain", "-uno") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _provenance(args, argv) -> dict:
    return {
        "git": _git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "argv": argv,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def summary_units(traced: bool) -> dict:
    """Name -> unit of the metrics on the summary line (BENCHMARK.json's)."""
    if not traced:
        return dict(END_TO_END)
    return {name: unit for name, unit in PER_LAYER if name not in SPARSE_TIMES}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the barrier-enabled IO stack simulator."
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed seconds per workload, split over the repeats")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a profiled child per workload")
    parser.add_argument("--json", metavar="PATH", help="write the full result here")
    parser.add_argument("--trace-out", metavar="PATH", default=".bench_out/trace.json",
                        help="where a traced run writes its spans and layer costs")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--size", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args.child, args.seed, args.size, args.traced)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"bench: the simulator is missing: no package at {SRC / 'repro'}",
              file=sys.stderr)
        return 2

    names = args.workload or list(WORKLOADS)
    traced = bool(args.trace)
    origin = time.monotonic()
    results = {name: run_workload(name, args.seed, args.seconds, traced) for name in names}

    units = summary_units(traced)
    summary_metrics = {}
    for name, result in results.items():
        lines = [(metric, result["metrics"][metric], unit) for metric, unit in END_TO_END]
        lines.append(("error_rate", result["error_rate"], "fraction"))
        if traced:
            lines += [(metric, result["metrics"][metric], unit) for metric, unit in PER_LAYER]
        for metric, value, unit in lines:
            print(f"{name} {metric} {value!r} {unit}")
        for problem in result["problems"]:
            print(f"{name} problem: {problem}", file=sys.stderr)
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, unit in units.items():
            summary_metrics[prefix + metric] = {"value": result["metrics"][metric], "unit": unit}

    document = {
        "provenance": _provenance(args, argv),
        "workloads": results,
    }
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    if traced:
        trace = {
            "spans": _spans(results, origin),
            "layers": {
                name: {
                    "layers": child["trace"]["layers"],
                    "edges": child["trace"]["edges"],
                    "profiled_s": child["trace"]["profiled_s"],
                }
                for name, result in results.items()
                for child in result["children"]
                if child["traced"] and child["status"] == "ok"
            },
        }
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace_out).write_text(json.dumps(trace, indent=1) + "\n")

    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": summary_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
