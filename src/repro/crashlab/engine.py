"""The crash-exploration engine: select, verify in-line, merge.

One *cell* is a :class:`~repro.scenarios.ScenarioSpec`; exploring it means:

1. **Select** — choose the crash points: every IO boundary of the run
   (exhaustive), or — after a recording pre-run
   (:func:`repro.crashlab.points.record_boundaries`) — an evenly thinned
   or stratified subset, or adaptive bisection probes.
2. **Verify in-line** — run the spec once with history recorded and an
   :class:`~repro.crashlab.points.InlineVerifier` tap on the device
   (:func:`verify_points`).  When the device reaches a chosen boundary the
   tap reconstructs the durable state a power cut there would leave
   (:func:`repro.storage.crash.recover_durable_blocks` only reads it), runs
   every applicable oracle from the registry
   (:data:`repro.core.verification.ORACLES`) — or the ``--continue`` judge —
   and lets the run go on; after the last chosen point it stops the run.

A check therefore costs O(run + points × verify), forks nothing and
behaves the same on every platform.  Judging boundary *k* inside the one
run sees exactly the state a from-scratch replay that cuts power at *k*
(:func:`replay_to_point`) sees; ``tests/crashlab/test_inline_equivalence.py``
pins verdicts, witnesses and trace tails of the two against each other
across barrier modes, job counts, fault plans and judges.

Sharding: ``jobs=N`` splits the chosen points into N interleaved shards,
one verifying pass each, over ``ProcessPoolExecutor.map`` (like
``repro.scenarios.run_specs(jobs=N)``); verdicts are merged by index, so
the report is bit-identical for any ``jobs`` value.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.verification import CrashProbe, VerificationError, applicable_oracles
from repro.crashlab import oracles as _workload_oracles  # noqa: F401 - registers oracles
from repro.crashlab.points import (
    CrashPointReached,
    CrashTrigger,
    InlineVerifier,
    evenly_spaced,
    record_boundaries,
    require_stack_workload,
    select_points,
)
from repro.crashlab.report import CellReport, OracleVerdict, PointVerdict
from repro.storage.crash import CrashBoundary, recover_durable_blocks


def _make_tracer(trace_tail: int):
    """The tracer a ``trace_tail=N`` exploration installs, or ``None``.

    One construction site for the verifying pass and the reference replay:
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

    Shared by the in-line pass and the reference replay, so a verdict's
    content depends only on the recovered state — never on which mechanism
    reached it.  The trace tail is the one the tracer would leave after
    closing the requests the crash caught in flight.
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
        trace_tail=(
            tuple(tracer.finalized_tail(trace_tail)) if tracer is not None else ()
        ),
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

    The exploration engine never replays; this is the independent
    reference its in-line verdicts are checked against: power is cut by
    unwinding the run with :class:`CrashPointReached`, one point per run.
    """
    from repro.scenarios import prepare_spec

    workload = prepare_spec(spec, tracer=tracer)
    stack = workload.stack
    stack.record_history()
    stack.device.crash_tap = CrashTrigger(stack.device, index)
    boundary: Optional[CrashBoundary] = None
    try:
        workload.run()
    except CrashPointReached as crash:
        boundary = crash.boundary
    stack.device.crash_tap = None
    if tracer is not None:
        tracer.finalize()  # flush requests left in flight by the crash
    stack.device.power_off()
    state = recover_durable_blocks(stack.device)
    return CrashProbe.from_stack(state, stack, spec=spec, workload=workload), boundary


def verify_points(
    spec,
    indices: Optional[Sequence[int]],
    *,
    trace_tail: int = 0,
    judge=None,
) -> list[PointVerdict]:
    """Judge crash points of ``spec`` inside one run, ascending by index.

    ``indices=None`` judges every boundary the run exposes; otherwise the
    run stops right after the last chosen index, and an index the run
    never reaches gets the ``end-of-run`` verdict (the state the finished
    run leaves).  ``trace_tail=N`` installs the cross-layer tracer over
    the run and attaches the last ``N`` spans before each crash to its
    verdict — the timeline a violation report shows.

    ``judge`` replaces the default verdict builder (:func:`_point_verdict`)
    with a callable of the same signature — ``runner check --continue``
    passes :func:`repro.recovery.recovery_judge` here.  A judge must only
    read the probe's stack (the run continues after it returns), and must
    be module-level (or a ``functools.partial`` over picklable values) so
    the process pool can ship it.
    """
    from repro.scenarios import prepare_spec

    require_stack_workload(spec)
    targets = None if indices is None else sorted(set(indices))
    if targets == []:
        return []
    build = judge if judge is not None else _point_verdict
    tracer = _make_tracer(trace_tail)
    workload = prepare_spec(spec, tracer=tracer)
    stack = workload.stack
    stack.record_history()

    def probe() -> CrashProbe:
        state = recover_durable_blocks(stack.device)
        return CrashProbe.from_stack(state, stack, spec=spec, workload=workload)

    tap = InlineVerifier(
        stack.device,
        targets,
        lambda boundary: build(probe(), boundary, boundary.index, tracer, trace_tail),
    )
    stack.device.crash_tap = tap
    try:
        workload.run()
    except CrashPointReached:
        return tap.results
    stack.device.crash_tap = None
    verdicts = tap.results
    unreached = targets[len(verdicts):] if targets is not None else []
    if unreached:
        stack.device.power_off()
        end = probe()
        verdicts += [build(end, None, index, tracer, trace_tail) for index in unreached]
    return verdicts


def check_point(spec, index: int, *, trace_tail: int = 0, judge=None) -> PointVerdict:
    """Run ``spec`` up to one crash point and judge it (see :func:`verify_points`).

    A target past the last boundary gets the ``end-of-run`` verdict.
    """
    [verdict] = verify_points(spec, [index], trace_tail=trace_tail, judge=judge)
    return verdict


def _verify_sharded(
    spec, indices: Sequence[int], *, jobs: int, trace_tail: int = 0, judge=None
) -> list[PointVerdict]:
    """Judge ``indices`` in up to ``jobs`` interleaved shards, one pass each.

    Verdicts are merged back by index, so the list is identical for any job
    count.
    """
    indices = list(indices)
    workers = min(jobs, len(indices))
    if workers <= 1:
        return verify_points(spec, indices, trace_tail=trace_tail, judge=judge)

    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    verify = partial(verify_points, spec, trace_tail=trace_tail, judge=judge)
    shards = [indices[worker::workers] for worker in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        by_index = {
            verdict.index: verdict
            for shard in pool.map(verify, shards)
            for verdict in shard
        }
    return [by_index[index] for index in indices]


def _bisect(
    spec,
    total: int,
    *,
    points: Optional[int] = None,
    trace_tail: int = 0,
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
    decides the next; each is one :func:`check_point` run that stops at its
    point.
    """
    evaluated: dict[int, PointVerdict] = {}

    def fails(index: int) -> bool:
        if index not in evaluated:
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
    judge=None,
) -> CellReport:
    """Explore one scenario cell and return its :class:`CellReport`.

    A serial exhaustive check is a single verifying pass over every
    boundary; every other strategy (and ``jobs > 1``) first records the
    boundaries, then judges the chosen ones in-line.  ``trace_tail=N``
    attaches the last ``N`` spans before each crash to its verdict
    (rendered by the violation report).

    ``judge`` replaces the per-point verdict builder (see
    :func:`verify_points`); ``None`` keeps the registered-oracle default,
    so existing ``crashcheck``/``faultcheck`` tables are untouched.
    """
    if points is not None and points < 1:
        raise ValueError(f"the crash-point budget must be at least 1, got {points}")
    if strategy == "exhaustive" and points is None and jobs <= 1:
        verdicts = verify_points(spec, None, trace_tail=trace_tail, judge=judge)
        total = len(verdicts)
    else:
        boundaries = record_boundaries(spec)
        total = len(boundaries)
        if strategy == "bisect":
            verdicts = _bisect(
                spec, total, points=points, trace_tail=trace_tail, judge=judge
            )
        else:
            indices = select_points(strategy, boundaries, points=points, seed=seed)
            verdicts = _verify_sharded(
                spec, indices, jobs=jobs, trace_tail=trace_tail, judge=judge
            )
    return CellReport(
        spec=spec,
        strategy=strategy,
        seed=seed,
        boundaries_total=total,
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
    judge=None,
) -> list[CellReport]:
    """Explore several cells (the ``runner check`` matrix), in order.

    Points shard within each cell; cells run in sequence so the machine is
    never oversubscribed.
    """
    return [
        explore(
            spec,
            strategy=strategy,
            points=points,
            seed=seed,
            jobs=jobs,
            trace_tail=trace_tail,
            judge=judge,
        )
        for spec in specs
    ]
