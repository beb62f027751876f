"""The crash-exploration engine: select, then verify in-line.

One *cell* is a :class:`~repro.scenarios.ScenarioSpec`; exploring it means:

1. **Select** — choose the crash points: every IO boundary of the run
   (exhaustive), or — after a recording pre-run
   (:func:`repro.crashlab.points.record_boundaries`) — an evenly thinned
   or stratified subset.
2. **Verify in-line** — run the spec once with history recorded and an
   :class:`~repro.crashlab.points.InlineVerifier` tap on the device
   (:func:`verify_points`).  When the device reaches a chosen boundary the
   tap judges the durable state a power cut there would leave with every
   applicable oracle from the registry
   (:data:`repro.core.verification.ORACLES`) — or the ``--continue``
   judge — and lets the run go on; after the last chosen point it stops
   the run.

Judging is incremental (:mod:`repro.crashlab.incremental`): one crash
state (:class:`~repro.storage.crash.CrashState`) per run is advanced at
each judged point by what changed since the previous one — pages newly
transferred, pages newly durable (or the FTL log's newly programmed
prefix), dispatch-log entries and journal transactions appended — and
every oracle keeps its scan positions and partial results; a check runs
again only when an input it reads changed.  A passing point costs
O(delta); a failing check also scans the lost set (transferred, not
durable), which the device's dirty and in-flight window plus damaged
pages bound.  A check costs O(run + points × delta) when it passes,
linear in the run, forks nothing and behaves the same on every platform.  An FTL garbage-collection run or a misdirected write since the
previous point (both can take durable pages away) rebuilds the state from
the whole history at the next point, counted in
:attr:`~repro.crashlab.report.CellReport.rebuilds`.

Judging boundary *k* inside the one run sees exactly the state a replay
that cuts power at *k* and folds a fresh crash state once
(:func:`replay_to_point`) sees; ``tests/crashlab/test_inline_equivalence.py``
pins verdicts, witnesses and trace tails of the two against each other
across barrier modes, job counts, fault plans, rebuilds and judges.

Cells, not points, spread over processes: each cell is judged in exactly
one verifying run in one process, because the run is most of a cell's
cost — splitting its points over N passes would simulate and fold the
run N times.
:func:`explore_cells` with ``jobs=N`` hands whole cells to
:func:`repro.scenarios.engine.pool_map`, ``min(N, cells)`` workers that
keep their order, so the report is bit-identical for any ``jobs`` value;
one cell, or ``jobs=1``, runs in the calling process and forks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.core.verification import CrashProbe
from repro.crashlab import oracles as _workload_oracles  # noqa: F401 - registers oracles
from repro.crashlab.incremental import IncrementalJudge
from repro.crashlab.points import (
    CrashPointReached,
    CrashTrigger,
    InlineVerifier,
    record_boundaries,
    require_stack_workload,
    select_points,
)
from repro.crashlab.report import CellReport, OracleVerdict, PointVerdict
from repro.scenarios.engine import pool_map
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


def _assemble(
    boundary: Optional[CrashBoundary],
    index: int,
    crash_time: float,
    verdicts: tuple[OracleVerdict, ...],
    tracer,
    trace_tail: int,
) -> PointVerdict:
    """One point's verdict; the trace tail is the one the tracer would leave
    after closing the requests the crash caught in flight."""
    return PointVerdict(
        index=index,
        kind=boundary.kind if boundary is not None else "end-of-run",
        time=boundary.time if boundary is not None else crash_time,
        verdicts=verdicts,
        trace_tail=(
            tuple(tracer.finalized_tail(trace_tail)) if tracer is not None else ()
        ),
    )


def _point_verdict(
    probe: CrashProbe,
    boundary: Optional[CrashBoundary],
    index: int,
    tracer,
    trace_tail: int,
) -> PointVerdict:
    """Every applicable oracle's verdict on ``probe``'s already-folded state.

    The same judge as the in-line pass
    (:class:`repro.crashlab.incremental.IncrementalJudge`), built for this
    probe alone: the per-point replay reference uses it.
    """
    verdicts = IncrementalJudge(probe).verdicts()
    return _assemble(
        boundary, index, probe.state.crash_time, verdicts, tracer, trace_tail
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

    The exploration engine never replays; this is the reference its
    in-line verdicts are checked against: power is cut by unwinding the run
    with :class:`CrashPointReached`, one point per run, and a fresh crash
    state is folded once.
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


@dataclass
class _Pass:
    """What one verifying run produced."""

    points: list[PointVerdict]
    #: Boundaries the run exposed before it ended or was stopped.
    boundaries: int = 0
    #: Restarts of the incremental crash state (see :class:`CellReport`).
    rebuilds: int = 0
    #: Entries the incremental crash state and its checks folded.
    folds: int = 0


def _verify(
    spec,
    indices,
    *,
    trace_tail: int = 0,
    judge=None,
) -> _Pass:
    """One verifying run of ``spec`` (see :func:`verify_points`)."""
    from repro.scenarios import prepare_spec

    require_stack_workload(spec)
    targets = None if indices is None else sorted(set(indices))
    if targets == []:
        return _Pass([])
    tracer = _make_tracer(trace_tail)
    workload = prepare_spec(spec, tracer=tracer)
    stack = workload.stack
    stack.record_history()
    incremental = IncrementalJudge.on_stack(stack, spec=spec, workload=workload)
    state = incremental.state
    sim = stack.sim

    if judge is None:
        def verdict(boundary: Optional[CrashBoundary], index: int) -> PointVerdict:
            state.advance()
            return _assemble(
                boundary, index, sim.now, incremental.verdicts(), tracer, trace_tail
            )

        def point(boundary: CrashBoundary) -> PointVerdict:
            # _assemble inlined: this runs at every boundary of the run.
            state.advance()
            return PointVerdict(
                boundary.index,
                boundary.kind,
                boundary.time,
                incremental.verdicts(),
                tuple(tracer.finalized_tail(trace_tail)) if tracer is not None else (),
            )
    else:
        # The judge extends the cell's one in-line verdict of each point and
        # reads the live probe: a fresh probe and judge per point would copy
        # the dispatch log and refold every check, work that grows with the run.
        probe = incremental.probe

        def verdict(boundary: Optional[CrashBoundary], index: int) -> PointVerdict:
            state.advance()
            return judge(probe, _assemble(
                boundary, index, sim.now, incremental.verdicts(), tracer, trace_tail
            ))

        def point(boundary: CrashBoundary) -> PointVerdict:
            return verdict(boundary, boundary.index)

    tap = InlineVerifier(stack.device, targets, point)
    stack.device.crash_tap = tap
    try:
        workload.run()
    except CrashPointReached:
        pass
    else:
        stack.device.crash_tap = None
        if targets is not None:
            unreached = targets[len(tap.results):]
            if unreached:
                stack.device.power_off()
                tap.results += [verdict(None, index) for index in unreached]
    return _Pass(tap.results, tap.count, rebuilds=state.rebuilds, folds=state.folds)


def verify_points(
    spec,
    indices,
    *,
    trace_tail: int = 0,
    judge=None,
) -> list[PointVerdict]:
    """Judge crash points of ``spec`` inside one run, ascending by index.

    ``indices`` is a collection of boundary indices: the run stops right
    after the last one, and an index the run never reaches gets the
    ``end-of-run`` verdict (the state the finished run leaves).  ``None``
    judges every boundary the run exposes and lets it finish.
    ``trace_tail=N`` installs the cross-layer tracer over the run and
    attaches the last ``N`` spans before each crash to its verdict — the
    timeline a violation report shows.

    The default verdicts come from the registered oracles' checks over one
    crash state advanced point to point (:mod:`repro.crashlab.incremental`).
    ``judge`` extends them: ``judge(probe, verdict)`` is handed the live
    probe of that state and the point's verdict, and returns the verdict
    to report — ``runner check --continue`` passes
    :func:`repro.recovery.recovery_judge` here.  A judge must only read the
    probe and its stack while it runs (the run and the state go on after it
    returns), and must be module-level (or a ``functools.partial`` over
    picklable values) so :func:`explore_cells` can ship it to its process
    pool.
    """
    return _verify(spec, indices, trace_tail=trace_tail, judge=judge).points


def check_point(spec, index: int, *, trace_tail: int = 0, judge=None) -> PointVerdict:
    """Run ``spec`` up to one crash point and judge it (see :func:`verify_points`).

    A target past the last boundary gets the ``end-of-run`` verdict.
    """
    [verdict] = verify_points(spec, [index], trace_tail=trace_tail, judge=judge)
    return verdict


class CellError(RuntimeError):
    """Exploring one cell failed; the message starts with the cell's ``describe()``."""


def explore(
    spec,
    *,
    strategy: str = "exhaustive",
    points: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    trace_tail: int = 0,
    judge=None,
) -> CellReport:
    """Explore one scenario cell and return its :class:`CellReport`.

    The cell is judged in one verifying run: an exhaustive check without a
    budget judges every boundary as the run exposes it, with no recording
    pre-run, and the boundary count is where the run ends.  Every other
    strategy first records the boundaries, then judges the chosen ones
    in-line in one run.  ``seed`` seeds the stratified sampler; ``None``
    uses the cell's own seed.
    ``trace_tail=N`` attaches the last ``N`` spans before each crash to its
    verdict (rendered by the violation report).  ``judge`` replaces the
    per-point verdict builder (see :func:`verify_points`); ``None`` keeps
    the registered-oracle default.  ``jobs`` means what it means for
    :func:`explore_cells`, at most one worker per cell, so one cell runs
    in the calling process whatever its value.

    A failing cell, or one whose run exposes no crash boundary (a clean row
    would claim a check that never happened), raises :class:`CellError`.
    """
    if points is not None and points < 1:
        raise ValueError(f"the crash-point budget must be at least 1, got {points}")
    if seed is None:
        seed = spec.seed
    try:
        if strategy == "exhaustive" and points is None:
            result = _verify(spec, None, trace_tail=trace_tail, judge=judge)
            total = result.boundaries
        else:
            boundaries = record_boundaries(spec)
            total = len(boundaries)
            indices = select_points(strategy, boundaries, points=points, seed=seed)
            result = _verify(spec, indices, trace_tail=trace_tail, judge=judge)
        if total == 0:
            raise ValueError("its run exposes no crash boundary, so nothing was judged")
    except Exception as error:
        raise CellError(f"{spec.describe()}: {error}") from error
    return CellReport(
        spec=spec,
        strategy=strategy,
        seed=seed,
        boundaries_total=total,
        points=result.points,
        rebuilds=result.rebuilds,
        folds=result.folds,
    )


def explore_cells(specs: Sequence, *, jobs: int = 1, **options) -> list[CellReport]:
    """:func:`explore` every cell (the ``runner check`` matrix), in order.

    ``jobs=N`` spreads whole cells over ``min(N, len(specs))`` worker
    processes, one verifying run per cell; with one worker the cells run in
    the calling process.  Reports come back in ``specs`` order either way.
    A :class:`CellError` from a worker cancels the cells no worker has
    taken yet (``pool.map`` does so as it raises) and reaches the caller
    once the running ones are joined.
    """
    return pool_map(partial(explore, **options), specs, jobs=jobs)
