"""In-line crash verification vs. the per-point replay reference.

The engine judges every crash point inside one run of a cell; nothing is
replayed.  That is only sound if judging boundary *k* mid-run sees exactly
what a from-scratch replay that cuts power at *k* sees.  These tests pin
the two against each other — verdict grids, violation witnesses, trace
tails and boundary counts — across barrier modes, workloads, strategies,
job counts, fault plans, the ``--continue`` judge and end-of-run targets.
"""

from functools import partial

import pytest

from replay_reference import main as reference_main
from replay_reference import reference_pass, reference_verdicts

from repro.crashlab import (
    CrashPointReached,
    InlineVerifier,
    check_point,
    engine,
    explore_cells,
    record_boundaries,
    verify_points,
)
from repro.experiments.runner import check_main
from repro.recovery import ContinuationPlan, recovery_judge
from repro.scenarios import ScenarioSpec, prepare_spec
from repro.trace import Tracer

MODES = ["none", "plp", "in-order-writeback", "transactional", "in-order-recovery"]


def spec_for(mode: str, *, workload: str = "sync-loop", faults=(), **params):
    params = params or (
        {"calls": 8} if workload == "sync-loop" else {"commits": 6}
    )
    return ScenarioSpec(
        workload=workload,
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode=mode,
        params=params,
        faults=faults,
    )


def reference(monkeypatch, specs, **kwargs):
    """``explore_cells`` with every verdict built by a per-point replay."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_verify", reference_pass)
        return explore_cells(specs, **{**kwargs, "jobs": 1})


def assert_equivalent(monkeypatch, *specs, **kwargs):
    """Every cell's in-line report equals the reference's; returns the first."""
    inline = explore_cells(specs, **kwargs)
    replayed = reference(monkeypatch, specs, **kwargs)
    assert len(inline) == len(replayed) == len(specs)
    for report, expected in zip(inline, replayed):
        assert report.boundaries_total == expected.boundaries_total
        assert report.points == expected.points
    return inline[0]


class TestEquivalence:
    # The long cell (300 points) carries the crash state and every oracle's
    # check across hundreds of points before the last one is judged.
    @pytest.mark.parametrize(
        "mode, calls",
        [(mode, 8) for mode in MODES] + [("in-order-recovery", 60)],
        ids=[*MODES, "in-order-recovery-calls60"],
    )
    def test_sync_loop_every_barrier_mode(self, monkeypatch, mode, calls):
        report = assert_equivalent(
            monkeypatch, spec_for(mode, calls=calls), strategy="exhaustive"
        )
        assert report.points_checked == report.boundaries_total > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_postgres_wal_every_barrier_mode(self, monkeypatch, mode):
        spec = spec_for(mode, workload="postgres-wal")
        assert_equivalent(monkeypatch, spec, strategy="exhaustive")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("strategy", ["exhaustive", "stratified"])
    def test_strategies_and_job_counts(self, monkeypatch, strategy, jobs):
        specs = [spec_for(mode, calls=10) for mode in ("none", "in-order-writeback")]
        assert_equivalent(monkeypatch, *specs, strategy=strategy, points=12, jobs=jobs)

    def test_sharded_exhaustive_without_budget(self, monkeypatch):
        specs = [
            spec_for(mode, calls=10) for mode in ("in-order-recovery", "transactional")
        ]
        assert_equivalent(monkeypatch, *specs, strategy="exhaustive", jobs=2)

    def test_violation_witnesses(self, monkeypatch):
        report = assert_equivalent(
            monkeypatch, spec_for("none", calls=12), strategy="exhaustive"
        )
        assert report.violations, "the legacy cell must produce witnesses"

    @pytest.mark.parametrize("mode", ["none", "in-order-recovery"])
    def test_fault_plan(self, monkeypatch, mode):
        # The injector's fault sites derive from (plan, seed): judging
        # in-line must neither consume nor skip any of its draws.
        specs = [
            spec_for(other, faults=("torn-write:p=0.3",), calls=10)
            for other in (mode, "transactional")
        ]
        assert_equivalent(monkeypatch, *specs, strategy="exhaustive", jobs=2)

    @pytest.mark.parametrize("faults", [(), ("io-error:p=0.5,op=write",)])
    def test_continue_judge(self, monkeypatch, faults):
        # The judge remounts and runs a whole continuation in the middle of
        # the explored run; the run must carry on as if it never had.
        specs = [
            spec_for(mode, faults=faults, calls=6)
            for mode in ("in-order-recovery", "plp")
        ]
        judge = partial(recovery_judge, plan=ContinuationPlan(calls=4))
        report = assert_equivalent(
            monkeypatch, *specs, strategy="stratified", points=8, judge=judge, jobs=2
        )
        assert report.points
        assert all(len(point.verdicts) > 2 for point in report.points)

    @pytest.mark.parametrize(
        "mode, fault, seed",
        [
            # Seed 19 lets the first five boundaries pass before a write fails.
            ("in-order-writeback", "io-error:p=0.5,op=write", 19),
            ("none", "flush-lie", 0),
        ],
    )
    def test_guarantee_flips_when_a_fault_fires(self, monkeypatch, mode, fault, seed):
        # A fired io-error (retries may reorder appends) or flush lie (the
        # FLUSH|FUA rescue is void) takes journal-recovery's guarantee away
        # mid-run: the judge must re-evaluate it, not keep the first value.
        spec = spec_for(mode, faults=(fault,), calls=10).with_(seed=seed)
        report = assert_equivalent(monkeypatch, spec, strategy="exhaustive")
        promised = [
            verdict.guaranteed
            for point in report.points
            for verdict in point.verdicts
            if verdict.oracle == "journal-recovery"
        ]
        assert promised[0] and not promised[-1]

    def test_applicability_flips_when_transactions_appear(self, monkeypatch):
        # With only committing transactions reported, the journal has none
        # at the first boundary (a data transfer) and some once the first
        # commit starts: journal-recovery starts applying mid-run.
        from repro.fs.journal.jbd2 import JBD2Journal

        monkeypatch.setattr(
            JBD2Journal, "in_flight",
            lambda self: [] if self.committing is None else [self.committing],
        )
        report = assert_equivalent(monkeypatch, spec_for("none"), strategy="exhaustive")
        applies = [
            any(verdict.oracle == "journal-recovery" for verdict in point.verdicts)
            for point in report.points
        ]
        assert not applies[0] and applies[-1]

    def test_trace_tails(self, monkeypatch):
        report = assert_equivalent(
            monkeypatch, spec_for("none", calls=10), strategy="exhaustive",
            trace_tail=6,
        )
        assert all(point.trace_tail for point in report.points)
        assert any("unfinished" in line for point in report.points
                   for line in point.trace_tail)

    def test_end_of_run_targets(self):
        spec = spec_for("in-order-recovery")
        total = len(record_boundaries(spec))
        indices = [0, total - 1, total, total + 5]
        inline = verify_points(spec, indices, trace_tail=4)
        assert inline == reference_verdicts(spec, indices, trace_tail=4)
        assert [point.kind for point in inline[2:]] == ["end-of-run"] * 2
        assert check_point(spec, total + 5, trace_tail=4) == inline[-1]

    def test_cli_report_is_byte_identical(self, tmp_path):
        argv = [
            "--workload", "sync-loop",
            "--barrier-mode", "none",
            "--strategy", "exhaustive",
            "--param", "calls=8",
            "--trace-tail", "4",
            "--format", "json",
        ]
        inline, replayed = tmp_path / "inline.json", tmp_path / "reference.json"
        check_main([*argv, "--output", str(inline)])
        reference_main([*argv, "--output", str(replayed)])
        assert inline.read_text() == replayed.read_text()


class TestInlineMechanics:
    def test_run_stops_after_the_last_target(self):
        workload = prepare_spec(spec_for("in-order-recovery"))
        device = workload.stack.device
        tap = InlineVerifier(device, [2, 5], lambda boundary: boundary.index)
        device.crash_tap = tap
        with pytest.raises(CrashPointReached):
            workload.run()
        assert tap.results == [2, 5]
        assert tap.count == 6

    def test_every_boundary_when_no_targets_are_given(self):
        spec = spec_for("in-order-recovery")
        workload = prepare_spec(spec)
        tap = InlineVerifier(workload.stack.device, None, lambda boundary: boundary)
        workload.stack.device.crash_tap = tap
        workload.run()
        assert tap.results == record_boundaries(spec)

    def test_finalized_tail_leaves_the_tracer_untouched(self):
        def traced_run(peek: bool):
            tracer = Tracer(buffer_size=16, metrics=False)
            workload = prepare_spec(spec_for("none", calls=6), tracer=tracer)
            tails = []
            if peek:
                workload.stack.device.crash_tap = (
                    lambda kind, pages: tails.append(tracer.finalized_tail(8))
                )
            workload.run()
            final_tail = tracer.finalized_tail(8)
            tracer.finalize()
            assert tracer.trace_tail(8) == final_tail
            spans = [span.describe() for span in tracer.spans]
            return (spans, tracer.spans.dropped), tails

        peeked, tails = traced_run(peek=True)
        untouched, _ = traced_run(peek=False)
        assert peeked == untouched
        assert any("unfinished" in line for tail in tails for line in tail)
