"""The crash-exploration engine: record, checkpoint, replay, verify, merge.

One *cell* is a :class:`~repro.scenarios.ScenarioSpec`; exploring it means:

1. **Record** — run the spec once with an observing tap and collect every
   IO boundary (:func:`repro.crashlab.points.record_boundaries`).  On
   fork-capable platforms the same run doubles as a **checkpoint factory**
   (:func:`record_checkpointed`): at boundaries scheduled by a
   :class:`~repro.snapshot.CheckpointPolicy` the whole process is frozen
   as a live copy-on-write child, keyed by boundary index.
2. **Select** — turn the boundary list into crash points (exhaustive /
   stratified budgets, or adaptive bisection).
3. **Replay & verify** — for each point, resume the simulation from the
   nearest preceding checkpoint (or rebuild from scratch when none
   exists), run until the device hits that boundary, cut power,
   reconstruct the durable state with
   :func:`repro.storage.crash.recover_durable_blocks` and run every
   applicable oracle from the registry
   (:data:`repro.core.verification.ORACLES`).

Checkpoints turn exhaustive exploration from O(points × run_length) into
O(run + points × delta): each verdict costs only the stretch from its
checkpoint to its cut, plus recovery and verification.  Because a
checkpoint child *is* the recording run paused at boundary *k* — same
heap, same generator frames, same RNG streams — a resumed replay is
bit-identical to a from-scratch replay crashing at the same boundary;
``tests/crashlab/test_checkpoints.py`` pins verdicts, witnesses and trace
tails across both paths, serial and sharded, with and without fault plans.

Sharding: every replay is an independent, seeded unit of work.  Without a
checkpoint store, points fan out over worker processes with
``ProcessPoolExecutor.map`` (order-preserving) exactly like
``repro.scenarios.run_specs(jobs=N)``.  With a store, the forked delta
replays already run as their own processes, so ``jobs=N`` becomes a thread
pool in the exploring process that keeps up to N grandchildren in flight —
the merged report is bit-identical for any ``jobs`` value either way.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Optional, Sequence

from repro.core.verification import CrashProbe, VerificationError, applicable_oracles
from repro.crashlab import oracles as _workload_oracles  # noqa: F401 - registers oracles
from repro.crashlab.points import (
    CheckpointingRecorder,
    CrashPointReached,
    CrashTrigger,
    evenly_spaced,
    record_boundaries,
    require_stack_workload,
    select_points,
)
from repro.crashlab.report import CellReport, OracleVerdict, PointVerdict
from repro.snapshot import (
    CheckpointPolicy,
    CheckpointStore,
    SnapshotForkError,
    checkpoint_supported,
)
from repro.storage.crash import CrashBoundary, recover_durable_blocks

#: Default boundary spacing between checkpoints (``--checkpoint-every``).
DEFAULT_CHECKPOINT_EVERY = 32
#: Default cap on live checkpoint children (LRU-evicted beyond this).
DEFAULT_CHECKPOINT_BUDGET = 64


def _make_tracer(trace_tail: int):
    """The tracer a ``trace_tail=N`` exploration installs, or ``None``.

    One construction site for both the scratch and the checkpointed path:
    trace-tail bit-identity between them needs the identical buffer size.
    """
    if trace_tail <= 0:
        return None
    from repro.trace import Tracer

    return Tracer(buffer_size=max(trace_tail, 16), metrics=False)


def _point_verdict(
    probe: CrashProbe,
    boundary: Optional[CrashBoundary],
    index: int,
    tracer,
    trace_tail: int,
) -> PointVerdict:
    """Run every applicable oracle against a recovered probe.

    Shared by the from-scratch path and the checkpoint grandchildren, so a
    verdict's content depends only on the recovered state — never on which
    replay mechanism produced it.
    """
    verdicts = []
    for oracle in applicable_oracles(probe):
        passed, witness = True, None
        try:
            oracle.check(probe)
        except VerificationError as error:
            passed, witness = False, str(error)
        verdicts.append(
            OracleVerdict(
                oracle=oracle.name,
                passed=passed,
                guaranteed=bool(oracle.guaranteed(probe)),
                witness=witness,
            )
        )
    return PointVerdict(
        index=index,
        kind=boundary.kind if boundary is not None else "end-of-run",
        time=boundary.time if boundary is not None else probe.state.crash_time,
        verdicts=tuple(verdicts),
        trace_tail=tuple(tracer.trace_tail(trace_tail)) if tracer is not None else (),
    )


def replay_to_point(
    spec, index: int, *, tracer=None
) -> tuple[CrashProbe, Optional[CrashBoundary]]:
    """Re-run ``spec`` from scratch until boundary ``index``, crash, recover.

    Returns the probe (crash state + crashed stack) and the boundary the
    crash landed on — ``None`` when the run finished before reaching
    ``index`` (the probe then describes the end-of-run state).  A
    :class:`repro.trace.Tracer` passed in observes the replay up to the
    crash (its span buffer then holds the timeline leading to the failing
    boundary); tracing never changes which state the crash captures.
    """
    from repro.scenarios import prepare_spec

    workload = prepare_spec(spec, tracer=tracer)
    stack = workload.stack
    stack.record_history()
    trigger = CrashTrigger(stack.device, index)
    stack.device.crash_tap = trigger
    boundary: Optional[CrashBoundary] = None
    try:
        workload.run()
    except CrashPointReached as crash:
        boundary = crash.boundary
    finally:
        stack.device.crash_tap = None
    if tracer is not None:
        tracer.finalize()  # flush requests left in flight by the crash
    stack.device.power_off()
    state = recover_durable_blocks(stack.device)
    probe = CrashProbe.from_stack(state, stack, spec=spec, workload=workload)
    return probe, boundary


def check_point(spec, index: int, *, trace_tail: int = 0, judge=None) -> PointVerdict:
    """Replay one crash point from scratch and run every applicable oracle.

    Module-level and picklable-by-reference: this is the unit of work the
    process pool distributes, and the fallback when no checkpoint precedes
    a point.  ``trace_tail=N`` replays the point with the cross-layer
    tracer installed and attaches the last ``N`` spans before the crash to
    the verdict — the timeline a violation report shows.

    ``judge`` replaces the default verdict builder (:func:`_point_verdict`)
    with a callable of the same signature — ``runner check --continue``
    passes :func:`repro.recovery.recovery_judge` here.  A judge must be
    module-level (or a ``functools.partial`` over picklable values) so the
    process pool can ship it.
    """
    tracer = _make_tracer(trace_tail)
    probe, boundary = replay_to_point(spec, index, tracer=tracer)
    verdict = judge if judge is not None else _point_verdict
    return verdict(probe, boundary, index, tracer, trace_tail)


def _deliver_replay(spec, workload, tap, boundary, tracer, judge=None):
    """Finish a checkpoint grandchild's replay: recover, verify, report.

    Runs only in a replay grandchild (``tap.grant`` set).  Never returns:
    the verdict — or the failure — travels up the result pipe and the
    process exits, so a grandchild can never fall back into the recording
    control flow it inherited.
    """
    request, result_fd = tap.grant
    status = 1
    try:
        stack = workload.stack
        stack.device.crash_tap = None
        if tracer is not None:
            tracer.finalize()
        stack.device.power_off()
        state = recover_durable_blocks(stack.device)
        probe = CrashProbe.from_stack(state, stack, spec=spec, workload=workload)
        build_verdict = judge if judge is not None else _point_verdict
        verdict = build_verdict(
            probe, boundary, request["target"], tracer, request["trace_tail"]
        )
        payload = pickle.dumps(("ok", verdict), protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException as exc:  # noqa: BLE001 - relayed to the explorer
        payload = pickle.dumps(("err", f"{type(exc).__name__}: {exc}"))
    try:
        with os.fdopen(result_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)


def record_checkpointed(
    spec, policy: CheckpointPolicy, *, trace_tail: int = 0, judge=None
) -> tuple[list[CrashBoundary], CheckpointStore]:
    """Record ``spec``'s boundaries while freezing periodic checkpoints.

    The single recording run plays the role ``record_boundaries`` plays on
    the scratch path *and* leaves behind a :class:`CheckpointStore` of live
    children to resume replays from.  With ``trace_tail=N`` the tracer is
    installed over the recording run itself — every checkpoint child then
    carries the tracer state a from-scratch traced replay would have at
    that boundary, which is what makes resumed trace tails bit-identical.

    Every replay grandchild re-enters this function's frames: it unwinds
    out of ``workload.run()`` via :class:`CrashPointReached` (or falls
    through, for a target beyond the end of the run) and exits through
    :func:`_deliver_replay`.
    """
    from repro.scenarios import prepare_spec

    require_stack_workload(spec)
    tracer = _make_tracer(trace_tail)
    workload = prepare_spec(spec, tracer=tracer)
    # Checkpoint children are frozen copies of this run: each replay
    # recovers from the history recorded here.
    workload.stack.record_history()
    store = CheckpointStore(policy)
    tap = CheckpointingRecorder(workload.stack.device, store)
    workload.stack.device.crash_tap = tap
    try:
        workload.run()
    except CrashPointReached as crash:
        # Only replay grandchildren get here: the tap raises solely in
        # trigger mode.  Exits the process.  The judge travels into the
        # grandchild by fork inheritance of this frame — no pickling.
        _deliver_replay(spec, workload, tap, crash.boundary, tracer, judge)
    except BaseException as exc:
        if tap.grant is not None:
            # A grandchild's delta replay failed: report the failure up the
            # result pipe instead of escaping into the recording flow.
            _, result_fd = tap.grant
            try:
                with os.fdopen(result_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(("err", f"{type(exc).__name__}: {exc}")))
            finally:
                os._exit(1)
        store.close()
        raise
    if tap.grant is not None:
        # Grandchild whose target lies beyond the last boundary: the run
        # completed without crashing — the scratch path's end-of-run case.
        _deliver_replay(spec, workload, tap, None, tracer, judge)
    workload.stack.device.crash_tap = None
    return tap.boundaries, store


def _check_point_from_store(
    store: CheckpointStore, spec, index: int, *, trace_tail: int = 0, judge=None
) -> PointVerdict:
    """Evaluate one crash point, resuming from the nearest checkpoint.

    Falls back to :func:`check_point` when no checkpoint precedes the
    point (possible after LRU eviction) or when a checkpoint child died —
    the scratch replay is always available and bit-identical.  The judge
    is not shipped through the request pipe: the grandchildren inherited
    it when the recording run forked them, so only the fallback paths
    need it passed explicitly.
    """
    checkpoint = store.nearest(index)
    if checkpoint is None:
        return check_point(spec, index, trace_tail=trace_tail, judge=judge)
    request = pickle.dumps(
        {"target": index, "trace_tail": trace_tail},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    read_fd = checkpoint.request(request)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    if not payload:
        warnings.warn(
            f"checkpoint at boundary {checkpoint.index} died replaying point "
            f"{index} of spec {spec.display_label!r}; falling back to a "
            "from-scratch replay",
            RuntimeWarning,
        )
        return check_point(spec, index, trace_tail=trace_tail, judge=judge)
    kind, value = pickle.loads(payload)
    if kind != "ok":
        raise SnapshotForkError(
            f"checkpointed replay of point {index} of spec "
            f"{spec.display_label!r} (resumed from checkpoint "
            f"{checkpoint.index}) failed: {value}"
        )
    return value


def _check_points(
    spec,
    indices: Sequence[int],
    *,
    jobs: int,
    trace_tail: int = 0,
    store: Optional[CheckpointStore] = None,
    judge=None,
) -> list[PointVerdict]:
    """Evaluate crash points, fanning out if asked.

    The fan-out preserves input order and each replay is self-contained,
    so the verdict list is identical for any job count, with or without a
    checkpoint store.
    """
    indices = list(indices)
    if store is not None:
        if jobs <= 1 or len(indices) <= 1:
            return [
                _check_point_from_store(
                    store, spec, index, trace_tail=trace_tail, judge=judge
                )
                for index in indices
            ]
        # The delta replays are processes already (checkpoint
        # grandchildren); threads here only shuttle requests and results,
        # keeping up to `jobs` grandchildren in flight.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
            return list(
                pool.map(
                    lambda index: _check_point_from_store(
                        store, spec, index, trace_tail=trace_tail, judge=judge
                    ),
                    indices,
                )
            )
    if jobs <= 1 or len(indices) <= 1:
        return [
            check_point(spec, index, trace_tail=trace_tail, judge=judge)
            for index in indices
        ]

    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    worker = partial(check_point, trace_tail=trace_tail, judge=judge)
    workers = min(jobs, len(indices))
    chunksize = max(1, len(indices) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(worker, [spec] * len(indices), indices, chunksize=chunksize)
        )


def _bisect(
    spec,
    total: int,
    *,
    points: Optional[int] = None,
    trace_tail: int = 0,
    store: Optional[CheckpointStore] = None,
    judge=None,
) -> list[PointVerdict]:
    """Narrow to the earliest failing boundary: scout, then binary-refine.

    Crash violations are not monotone over the boundary index — a run
    typically ends clean once the final drain completes — so a plain binary
    search has nothing to anchor on.  Instead the engine *scouts* with
    evenly spaced probes at doubling density (up to the ``points`` budget,
    default 32) until some probe fails, then binary-searches the gap between
    that failure and the nearest passing probe below it.  The result is a
    failing boundary whose immediate predecessor passes — the earliest
    failure up to local monotonicity.  Probes run serially because each one
    decides the next; with a checkpoint store every probe — scout wave and
    refinement alike — resumes from the scout run's checkpoints, so the
    whole search costs O(probes × delta).
    """
    evaluated: dict[int, PointVerdict] = {}

    def fails(index: int) -> bool:
        if index not in evaluated:
            if store is not None:
                evaluated[index] = _check_point_from_store(
                    store, spec, index, trace_tail=trace_tail, judge=judge
                )
            else:
                evaluated[index] = check_point(
                    spec, index, trace_tail=trace_tail, judge=judge
                )
        return bool(evaluated[index].violations)

    if total == 0:
        return []
    budget = min(points if points is not None else 32, total)

    earliest_failure: Optional[int] = None
    density = min(8, budget)
    while True:
        # Scout below the earliest failure known so far (the whole range at
        # first); every new failure strictly shrinks the scouted range, every
        # clean pass doubles the density, and probes are cached.
        limit = earliest_failure if earliest_failure is not None else total
        found = None
        if limit > 0:
            for index in evenly_spaced(limit, min(density, limit)):
                if fails(index):
                    found = index
                    break
        if found is not None:
            earliest_failure = found
            continue
        if density >= budget:
            break
        density = min(density * 2, budget)
    if earliest_failure is None:
        return [evaluated[index] for index in sorted(evaluated)]

    low = max(
        (index for index in evaluated if index < earliest_failure and not fails(index)),
        default=-1,
    )
    high = earliest_failure
    while high - low > 1:
        mid = (low + high) // 2
        if fails(mid):
            high = mid
        else:
            low = mid
    return [evaluated[index] for index in sorted(evaluated)]


def explore(
    spec,
    *,
    strategy: str = "exhaustive",
    points: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    trace_tail: int = 0,
    checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
    checkpoint_budget: int = DEFAULT_CHECKPOINT_BUDGET,
    checkpoint_interval: float = 0.0,
    judge=None,
) -> CellReport:
    """Explore one scenario cell and return its :class:`CellReport`.

    ``trace_tail=N`` traces every replay and attaches the last ``N`` spans
    before each crash to its verdict (rendered by the violation report).

    ``checkpoint_every=K`` freezes a fork checkpoint every K recorded
    boundaries during the recording run (``checkpoint_interval`` adds a
    sim-time trigger, ``checkpoint_budget`` caps the live pool) and resumes
    every replay from the nearest preceding checkpoint; ``None`` — or any
    platform without fork/fd-passing — replays every point from scratch.
    The report is bit-identical either way; only the wall-clock changes.

    ``judge`` replaces the per-point verdict builder (see
    :func:`check_point`); ``None`` keeps the registered-oracle default, so
    existing ``crashcheck``/``faultcheck`` tables are untouched.
    """
    if points is not None and points < 1:
        raise ValueError(f"the crash-point budget must be at least 1, got {points}")
    store: Optional[CheckpointStore] = None
    if checkpoint_every is not None and checkpoint_supported():
        policy = CheckpointPolicy(
            every=checkpoint_every,
            interval=checkpoint_interval,
            budget=checkpoint_budget,
        )
        boundaries, store = record_checkpointed(
            spec, policy, trace_tail=trace_tail, judge=judge
        )
    else:
        boundaries = record_boundaries(spec)
    try:
        if strategy == "bisect":
            verdicts = _bisect(
                spec,
                len(boundaries),
                points=points,
                trace_tail=trace_tail,
                store=store,
                judge=judge,
            )
        else:
            indices = select_points(strategy, boundaries, points=points, seed=seed)
            verdicts = _check_points(
                spec,
                indices,
                jobs=jobs,
                trace_tail=trace_tail,
                store=store,
                judge=judge,
            )
    finally:
        if store is not None:
            store.close()
    return CellReport(
        spec=spec,
        strategy=strategy,
        seed=seed,
        boundaries_total=len(boundaries),
        points=verdicts,
    )


def explore_cells(
    specs: Sequence,
    *,
    strategy: str = "exhaustive",
    points: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    trace_tail: int = 0,
    checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
    checkpoint_budget: int = DEFAULT_CHECKPOINT_BUDGET,
    judge=None,
) -> list[CellReport]:
    """Explore several cells (the ``runner check`` matrix), in order.

    Points shard (and checkpoint children pool) within each cell; cells run
    in sequence so the machine is never oversubscribed.
    """
    return [
        explore(
            spec,
            strategy=strategy,
            points=points,
            seed=seed,
            jobs=jobs,
            trace_tail=trace_tail,
            checkpoint_every=checkpoint_every,
            checkpoint_budget=checkpoint_budget,
            judge=judge,
        )
        for spec in specs
    ]
