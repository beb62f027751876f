"""Exploration engine: determinism, verdicts, and the ability to fail.

The acceptance contract of the subsystem: a barrier-honouring cell passes
every applicable oracle at *every* crash point, the legacy ``NONE`` cell
produces concrete violation witnesses (a checker that cannot fail checks
nothing), and the report is bit-identical however many worker processes the
cells were spread over.
"""

import multiprocessing
import os
import time

import pytest

from repro.crashlab import (
    CellError,
    check_point,
    engine,
    explore,
    explore_cells,
    record_boundaries,
)
from repro.scenarios import ScenarioSpec


def spec_for(mode: str, *, calls: int = 8) -> ScenarioSpec:
    return ScenarioSpec(
        workload="sync-loop",
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode=mode,
        params={"calls": calls},
    )


class TestVerdicts:
    def test_barrier_mode_passes_every_exhaustive_point(self):
        report = explore(spec_for("in-order-recovery"), strategy="exhaustive")
        assert report.points_checked == report.boundaries_total > 0
        assert report.violations == []
        # Every core oracle family actually ran.
        assert {"epoch-prefix", "storage-order-prefix", "journal-recovery"} <= set(
            report.oracle_names
        )

    def test_legacy_none_mode_produces_a_violation_witness(self):
        """The checker must be able to fail: legacy drain order is visible.

        Under ``NONE`` the controller persists in arbitrary order, so the
        ordering-prefix family (the transfer-granularity form of the
        epoch-prefix guarantee — EXT4 issues no barrier writes, so every
        page shares epoch 0 and only the transfer order can witness the
        misbehaviour) must report at least one violation, with a concrete
        lost-page witness.
        """
        report = explore(spec_for("none", calls=12), strategy="exhaustive")
        assert report.violations, "legacy NONE must violate the ordering prefix"
        point, verdict = report.violations[0]
        assert verdict.oracle == "storage-order-prefix"
        assert "was lost while a later transfer" in verdict.witness
        # The violation is an expected legacy witness, not a checker bug.
        assert not verdict.guaranteed
        assert report.unexpected_violations == []

    def test_end_of_run_point_beyond_last_boundary(self):
        spec = spec_for("in-order-recovery")
        total = len(record_boundaries(spec))
        verdict = check_point(spec, total + 5)
        assert verdict.kind == "end-of-run"
        assert verdict.verdicts, "oracles still run against the final state"


class TestDeterminism:
    def test_report_is_bit_identical_across_jobs(self):
        specs = [spec_for("in-order-recovery"), spec_for("in-order-writeback")]
        results = {}
        for jobs in (1, 4):
            reports = explore_cells(specs, strategy="exhaustive", jobs=jobs)
            results[jobs] = [report.points for report in reports]
        assert results[1] == results[4]

    def test_legacy_violations_identical_across_jobs_and_runs(self):
        specs = [spec_for("none"), spec_for("plp")]
        runs = [
            explore_cells(specs, strategy="stratified", points=10, seed=7, jobs=jobs)
            for jobs in (1, 4, 1)
        ]
        for first, second, third in zip(*runs):
            assert first.points == second.points == third.points

    def test_a_failing_worker_cell_is_named_and_the_pool_reaped(self, monkeypatch):
        verify = engine._verify

        def failing(spec, indices, **kwargs):
            if spec.barrier_mode == "plp":
                raise RuntimeError(f"injected failure in pid {os.getpid()}")
            return verify(spec, indices, **kwargs)

        monkeypatch.setattr(engine, "_verify", failing)
        specs = [spec_for("in-order-recovery"), spec_for("plp")]
        with pytest.raises(CellError) as caught:
            explore_cells(specs, strategy="exhaustive", jobs=2)
        message = str(caught.value)
        assert message.startswith(f"{specs[1].describe()}: injected failure in pid ")
        assert not message.endswith(f" pid {os.getpid()}"), "it must fail in a worker"
        assert multiprocessing.active_children() == []

    def test_a_failing_cell_cancels_the_cells_no_worker_took(self, monkeypatch, tmp_path):
        verify = engine._verify
        log = tmp_path / "started"

        def logged(spec, indices, **kwargs):
            if spec.barrier_mode == "plp":
                raise RuntimeError("injected failure")
            with log.open("a") as started:
                started.write(f"{spec.params['calls']}\n")
            time.sleep(0.2)
            return verify(spec, indices, **kwargs)

        monkeypatch.setattr(engine, "_verify", logged)
        slow = [spec_for("in-order-recovery", calls=calls) for calls in range(2, 14)]
        with pytest.raises(CellError, match="injected failure"):
            explore_cells([spec_for("plp"), *slow], strategy="exhaustive", jobs=2)
        # Only cells already handed to the pool's call queue still run.
        assert len(log.read_text().split()) < len(slow)
        assert multiprocessing.active_children() == []

    def test_seed_changes_the_stratified_sample(self):
        spec = spec_for("in-order-recovery")
        first = explore(spec, strategy="stratified", points=6, seed=0)
        second = explore(spec, strategy="stratified", points=6, seed=1)
        assert [p.index for p in first.points] != [p.index for p in second.points]
