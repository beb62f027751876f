"""Crash-boundary recording and the point-selection strategies."""

import pytest

from repro.crashlab import record_boundaries, select_points
from repro.crashlab.points import evenly_spaced
from repro.scenarios import ScenarioSpec


def small_spec(**changes):
    base = ScenarioSpec(
        workload="sync-loop",
        config="EXT4-DR",
        device="plain-ssd",
        barrier_mode="in-order-recovery",
        params={"calls": 6},
    )
    return base.with_(**changes) if changes else base


class TestRecording:
    def test_boundaries_are_dense_ordered_and_typed(self):
        boundaries = record_boundaries(small_spec())
        assert boundaries, "a sync loop must expose crash boundaries"
        assert [b.index for b in boundaries] == list(range(len(boundaries)))
        times = [b.time for b in boundaries]
        assert times == sorted(times)
        assert {b.kind for b in boundaries} <= {"transfer", "program", "flush"}
        # A write+sync loop both transfers and programs.
        kinds = {b.kind for b in boundaries}
        assert "transfer" in kinds and "program" in kinds

    def test_recording_is_deterministic(self):
        first = record_boundaries(small_spec())
        second = record_boundaries(small_spec())
        assert first == second

    def test_recording_does_not_perturb_the_run(self):
        # The same spec run without a tap must produce the identical result
        # stream (the tap only observes).
        from repro.scenarios import run_spec

        untapped = run_spec(small_spec()).result
        record_boundaries(small_spec())
        tapped = run_spec(small_spec()).result
        assert untapped.operations == tapped.operations
        assert untapped.elapsed_usec == tapped.elapsed_usec

    def test_raw_block_workloads_are_rejected(self):
        spec = ScenarioSpec(workload="blocklevel", config=None)
        with pytest.raises(ValueError, match="raw block device"):
            record_boundaries(spec)


class TestSelection:
    def test_exhaustive_takes_everything(self):
        boundaries = record_boundaries(small_spec())
        indices = select_points("exhaustive", boundaries)
        assert indices == list(range(len(boundaries)))

    def test_exhaustive_budget_thins_evenly(self):
        boundaries = record_boundaries(small_spec())
        indices = select_points("exhaustive", boundaries, points=5)
        assert len(indices) == 5
        assert indices[0] == 0 and indices[-1] == len(boundaries) - 1
        assert indices == sorted(indices)

    def test_stratified_is_seed_deterministic_and_budgeted(self):
        boundaries = record_boundaries(small_spec())
        first = select_points("stratified", boundaries, points=8, seed=3)
        second = select_points("stratified", boundaries, points=8, seed=3)
        other = select_points("stratified", boundaries, points=8, seed=4)
        assert first == second
        assert len(first) == 8
        assert first == sorted(first)
        assert first != other, "different seeds should (here) sample differently"

    def test_stratified_covers_every_boundary_kind(self):
        boundaries = record_boundaries(small_spec())
        kinds = {b.kind for b in boundaries}
        chosen = select_points("stratified", boundaries, points=len(kinds), seed=0)
        assert {boundaries[i].kind for i in chosen} == kinds

    def test_unknown_strategy_rejected(self):
        boundaries = record_boundaries(small_spec())
        with pytest.raises(ValueError, match="unknown strategy"):
            select_points("thorough", boundaries)

    def test_non_positive_budget_rejected(self):
        boundaries = record_boundaries(small_spec())
        with pytest.raises(ValueError, match="at least 1"):
            select_points("exhaustive", boundaries, points=0)
        with pytest.raises(ValueError, match="at least 1"):
            select_points("stratified", boundaries, points=-3)

    def test_evenly_spaced_includes_both_ends(self):
        assert evenly_spaced(100, 2) == [0, 99]
        assert evenly_spaced(10, 100) == list(range(10))
        assert evenly_spaced(7, 1) == [6]
