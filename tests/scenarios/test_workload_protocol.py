"""The unified Workload protocol: uniform results, seeds and parameter values."""

import pytest

from repro.scenarios import (
    WORKLOADS,
    ScenarioSpec,
    WorkloadResult,
    prepare_spec,
    run_spec,
    sweep_table,
)

#: One cheap spec per registered workload, exercising the whole registry.
SMALL_SPECS = {
    "sync-loop": ScenarioSpec(
        workload="sync-loop", config="BFS-DR", params={"calls": 5}
    ),
    "fxmark": ScenarioSpec(
        workload="fxmark", config="BFS-DR",
        params={"num_threads": 2, "ops_per_thread": 3},
    ),
    "mysql": ScenarioSpec(workload="mysql", params={"transactions": 4}),
    "sqlite": ScenarioSpec(workload="sqlite", params={"inserts": 4}),
    "varmail": ScenarioSpec(
        workload="varmail", params={"iterations": 3, "num_threads": 1}
    ),
    "postgres-wal": ScenarioSpec(
        workload="postgres-wal", params={"commits": 6, "checkpoint_every": 3}
    ),
    "rocksdb-compaction": ScenarioSpec(
        workload="rocksdb-compaction",
        params={"flushes": 4, "compaction_every": 2},
    ),
    "blocklevel": ScenarioSpec(
        workload="blocklevel", config=None,
        params={"scenario": "X", "num_writes": 10},
    ),
    "ordered-vs-buffered": ScenarioSpec(
        workload="ordered-vs-buffered", config=None, device="A",
        params={"num_writes": 25},
    ),
}


class TestProtocolUniformity:
    def test_every_registered_workload_has_a_small_spec(self):
        assert set(SMALL_SPECS) == set(WORKLOADS.names())

    @pytest.mark.parametrize("name", sorted(SMALL_SPECS))
    def test_uniform_workload_result(self, name):
        outcome = run_spec(SMALL_SPECS[name])
        result = outcome.result
        assert isinstance(result, WorkloadResult)
        assert result.workload == name
        assert result.operations > 0
        assert result.elapsed_usec >= 0.0
        assert result.ops_per_second >= 0.0
        if result.latencies is not None:
            assert result.latency_summary().count == len(result.latencies)

    def test_name_matches_registry_key(self):
        for name, workload_class in WORKLOADS.items():
            assert workload_class.name == name

    def test_unknown_parameters_rejected_with_accepted_list(self):
        sqlite_class = WORKLOADS.get("sqlite")
        with pytest.raises(ValueError, match=r"unknown parameters \['insrts'\]"):
            sqlite_class(insrts=5)

    def test_a_sync_call_the_filesystem_lacks_is_refused_before_running(self):
        spec = ScenarioSpec(
            workload="sync-loop", config="OptFS", params={"sync_call": "fdatabarrier"}
        )
        with pytest.raises(ValueError, match=r"the optfs filesystem has no fdatabarrier\(\)"):
            prepare_spec(spec)

    def test_stackless_workloads_get_device_not_stack(self):
        workload = prepare_spec(SMALL_SPECS["blocklevel"])
        assert workload.stack is None
        assert workload.device == "plain-ssd"

    def test_stack_workloads_get_a_built_stack(self):
        workload = prepare_spec(SMALL_SPECS["sync-loop"])
        assert workload.stack is not None
        assert workload.stack.fs.name == "barrierfs"


class TestSeedThreading:
    def test_spec_seed_reaches_stack_config_and_workload(self):
        spec = SMALL_SPECS["varmail"].with_(seed=123)
        workload = prepare_spec(spec)
        assert workload.seed == 123
        assert workload.stack.config.seed == 123

    @pytest.mark.parametrize("name", sorted(SMALL_SPECS))
    def test_same_seed_same_table_rows(self, name):
        spec = SMALL_SPECS[name].with_(seed=9)
        first = sweep_table([spec])
        second = sweep_table([spec])
        assert first.rows == second.rows

    def test_explicit_zero_params_are_honored_not_defaulted(self, monkeypatch):
        # `calls=0` must run zero calls, not fall back to the scaled default.
        outcome = run_spec(SMALL_SPECS["sync-loop"].with_(params={"calls": 0}))
        assert outcome.result.operations == 0

        # `seed=0` must reach the varmail model, not be swallowed by the
        # +7 offset.  Every varmail thread seeds its RNG from that seed.
        from repro.apps.varmail import VarmailWorkload

        captured = {}
        original = VarmailWorkload._worker

        def spy(self, thread_id, iterations, policy, seed, latencies):
            captured["seed"] = seed
            return original(self, thread_id, iterations, policy, seed, latencies)

        monkeypatch.setattr(VarmailWorkload, "_worker", spy)
        run_spec(SMALL_SPECS["varmail"].with_(
            params={"iterations": 2, "num_threads": 1, "seed": 0}
        ))
        assert captured["seed"] == 0
        run_spec(SMALL_SPECS["varmail"].with_(
            params={"iterations": 2, "num_threads": 1}
        ))
        assert captured["seed"] == 7  # default: spec seed 0 + offset

    def test_default_seed_preserves_historical_varmail_stream(self):
        # varmail's model seeds its RNG with spec seed + 7 (blocklevel: + 1),
        # so the published Fig. 15 numbers come from the default seed of 0.
        varmail_class = WORKLOADS.get("varmail")
        assert varmail_class.SEED_OFFSET == 7
        blocklevel_class = WORKLOADS.get("blocklevel")
        assert blocklevel_class.SEED_OFFSET == 1


class TestParamValues:
    """Boolean parameters read the same whether typed as bools or words."""

    @pytest.mark.parametrize("name,key,word", [
        ("sqlite", "relax_durability", "false"),
        ("sqlite", "relax_durability", "FALSE"),
        ("sync-loop", "allocating", "False"),
    ])
    def test_false_word_runs_the_false_row(self, name, key, word):
        spec = SMALL_SPECS[name].with_(config="BFS-DR")

        def elapsed(value):
            params = {**spec.params, key: value}
            return run_spec(spec.with_(params=params)).result.elapsed_usec

        assert elapsed(word) == elapsed(False) != elapsed(True)

    @pytest.mark.parametrize("workload,key", [
        ("sync-loop", "allocating"),
        ("fxmark", "use_fbarrier"),
        ("mysql", "relax_durability"),
        ("postgres-wal", "relax_durability"),
    ])
    def test_flags_accept_bools_and_words(self, workload, key):
        workload_class = WORKLOADS.get(workload)
        for value, expected in [(True, True), ("true", True), ("TRUE", True),
                                (False, False), ("false", False), ("False", False)]:
            assert getattr(workload_class(**{key: value}), key) is expected

    @pytest.mark.parametrize("value", ["maybe", "0", "yes", 1, [True]])
    def test_other_values_rejected_naming_workload_and_key(self, value):
        with pytest.raises(ValueError, match=r"sqlite: parameter 'relax_durability'"):
            WORKLOADS.get("sqlite")(relax_durability=value)

    def test_cli_reports_a_bad_flag_as_a_usage_error(self, capsys):
        from repro.experiments.runner import sweep_main

        with pytest.raises(SystemExit) as exit_info:
            sweep_main(["-w", "sqlite", "--param", "relax_durability=maybe"])
        assert exit_info.value.code == 2
        assert "sqlite: parameter 'relax_durability'" in capsys.readouterr().err
