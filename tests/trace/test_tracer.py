"""The cross-layer tracer: observation-only hooks over a scenario stack.

The properties pinned here are the tentpole guarantees of ``repro.trace``:

* a traced run's workload result is **bit-identical** to an untraced run —
  the hooks observe, they never perturb;
* every syscall journey closes, every span is well-formed, and the stage
  decomposition telescopes exactly to the end-to-end latency — across both
  legacy and barrier-enabled stacks in all five barrier modes;
* the exported trace depends only on per-tracer counters, so it is
  independent of whatever other simulations the process ran before
  (the property that makes ``--jobs`` sharding bit-identical);
* uninstall restores the unwrapped stack exactly, hooks install in one
  order (injector, tracer), and never after the simulation
  has run.
"""

import pytest

from repro.scenarios.engine import run_spec, run_spec_traced
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.stats import percentile
from repro.trace import LAYERS, Tracer, chrome_trace

#: Every valid (config, barrier-mode) pairing: EXT4-DR runs on orderless
#: devices, the BFS configs need a barrier-capable mode.
CELLS = (
    ("EXT4-DR", "none"),
    ("EXT4-DR", "plp"),
    ("BFS-DR", "in-order-writeback"),
    ("BFS-DR", "transactional"),
    ("BFS-DR", "in-order-recovery"),
)


def make_spec(workload="sync-loop", config="BFS-DR", mode="in-order-writeback",
              scale=0.1, **params):
    return ScenarioSpec(
        workload=workload,
        config=config,
        device="plain-ssd",
        barrier_mode=mode,
        scale=scale,
        params=params,
    )


def fingerprint(result):
    """Everything a WorkloadResult reports, as comparable plain data."""
    summary = result.latency_summary()
    return (
        result.workload,
        result.operations,
        result.elapsed_usec,
        summary.as_dict() if summary is not None else None,
        result.extra,
        result.device_stats,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["sync-loop", "postgres-wal"])
    @pytest.mark.parametrize("config,mode", [CELLS[0], CELLS[2]])
    def test_traced_run_equals_untraced_run(self, workload, config, mode):
        spec = make_spec(workload, config, mode)
        untraced = run_spec(spec)
        tracer = Tracer()
        traced = run_spec_traced(spec, tracer)
        assert fingerprint(traced.result) == fingerprint(untraced.result)
        assert len(tracer.spans) > 0
        assert len(tracer.contexts) > 0


class TestWellFormedness:
    @pytest.mark.parametrize("workload", ["sync-loop", "postgres-wal"])
    @pytest.mark.parametrize("config,mode", CELLS)
    def test_span_tree_is_well_formed(self, workload, config, mode):
        tracer = Tracer()
        run_spec_traced(make_spec(workload, config, mode), tracer)

        # Every syscall journey closed, with a telescoping decomposition.
        assert tracer.contexts, "workload issued no traced syscalls"
        ctx_ids = set()
        for ctx in tracer.contexts:
            assert ctx.closed, f"journey {ctx.ctx_id} ({ctx.op}) never closed"
            assert ctx.end >= ctx.start
            ctx_ids.add(ctx.ctx_id)
            deltas = ctx.stage_deltas()
            stages = (deltas["submit"], deltas["dispatch"],
                      deltas["transfer"], deltas["persist"])
            assert all(stage >= 0.0 for stage in stages)
            assert sum(stages) == pytest.approx(deltas["end_to_end"], abs=1e-6)

        # Every span closed, time-ordered, in the layer vocabulary, and
        # attributed (if at all) to a journey that exists — no orphans.
        assert len(tracer.spans) > 0
        assert tracer.spans.dropped == 0
        for span in tracer.spans:
            assert span.layer in LAYERS
            assert span.end >= span.start
            if span.ctx is not None:
                assert span.ctx in ctx_ids
        # Nothing was left half-open in the request bookkeeping.
        assert tracer._open_requests == {}

    def test_fs_spans_cover_every_journey(self):
        tracer = Tracer()
        run_spec_traced(make_spec(), tracer)
        fs_ctx = {span.ctx for span in tracer.spans
                  if span.layer == "fs" and not span.detail.get("nested")}
        assert fs_ctx == {ctx.ctx_id for ctx in tracer.contexts}

    def test_bounded_buffer_drops_oldest_but_keeps_counting(self):
        tracer = Tracer(buffer_size=16)
        run_spec_traced(make_spec(), tracer)
        assert len(tracer.spans) == 16
        assert tracer.spans.dropped > 0
        tail = tracer.trace_tail(4)
        assert len(tail) == 4
        assert all("us)" in line for line in tail)


class TestDeterminism:
    def test_exported_trace_is_independent_of_prior_simulations(self):
        # Span ids, context ids and request aliases come from per-tracer
        # counters, never the process-global request/command ids — so the
        # same spec exports the same document no matter what ran before in
        # this process (the --jobs 1 vs --jobs 4 property).
        spec = make_spec()
        first = Tracer()
        run_spec_traced(spec, first)
        doc_first = chrome_trace(first.spans, dropped=first.spans.dropped)

        # Shift every process-global id counter with unrelated runs.
        run_spec(make_spec("postgres-wal", "EXT4-DR", "plp"))
        run_spec(make_spec("sync-loop", "BFS-DR", "transactional"))

        second = Tracer()
        run_spec_traced(spec, second)
        doc_second = chrome_trace(second.spans, dropped=second.spans.dropped)
        assert doc_first == doc_second


class TestInstallation:
    def test_install_is_exclusive(self):
        from repro.scenarios.engine import prepare_spec

        tracer = Tracer()
        workload = prepare_spec(make_spec(), tracer=tracer)
        with pytest.raises(RuntimeError):
            tracer.install(workload.stack)
        tracer.uninstall()

    @pytest.mark.parametrize("hook", ["tracer", "installer"])
    def test_uninstall_restores_the_unwrapped_stack(self, hook):
        # "tracer": Tracer.install/uninstall alone.  "installer": faults
        # and a tracer through repro.hooks.install, then one restore().  Either way every layer's instance dict is exactly as
        # built, and the stack then runs like one that was never hooked.
        from repro.scenarios.engine import collect_device_stats, prepare_spec

        spec = make_spec()
        workload = prepare_spec(spec)
        stack = workload.stack
        layers = {
            "fs": stack.fs,
            "journal": stack.fs.journal,
            "block": stack.block,
            "device": stack.device,
            "flash": stack.device.flash,
        }
        built = {layer: dict(vars(obj)) for layer, obj in layers.items()}
        tracer = Tracer()
        if hook == "tracer":
            undo = tracer.install(stack).uninstall
        else:
            from repro.hooks import install

            undo = install(stack, faults=("io-error:p=0.05",), tracer=tracer).restore
            assert stack.device.fault_injector is not None
            assert "_service_write" in vars(stack.device)
        assert "fsync" in vars(stack.fs)  # instance-attribute wrappers
        assert "submit" in vars(stack.block)
        assert "try_submit" in vars(stack.device)
        assert tracer.installed
        undo()
        assert not tracer.installed
        for layer, obj in layers.items():
            now = vars(obj)
            assert now.keys() == built[layer].keys(), (
                f"{layer}: {sorted(now.keys() ^ built[layer].keys())} left behind"
            )
            for name, value in built[layer].items():
                assert now[name] is value, f"{layer}.{name} not restored"
        workload.warm()
        rerun = workload.run()
        rerun.device_stats = collect_device_stats(stack)
        assert fingerprint(rerun) == fingerprint(run_spec(spec).result)

    def test_installer_puts_the_tracer_over_the_injected_device(self, monkeypatch):
        from repro.scenarios.engine import prepare_spec

        seen = {}
        real_install = Tracer.install

        def spying_install(tracer, stack):
            seen["injector"] = stack.device.fault_injector
            seen["service_write"] = vars(stack.device).get("_service_write")
            return real_install(tracer, stack)

        monkeypatch.setattr(Tracer, "install", spying_install)
        spec = make_spec().with_(faults=("io-error:p=0.05",))
        device = prepare_spec(spec, tracer=Tracer()).stack.device
        # The injector was in place before the tracer wrapped the device.
        assert seen["injector"] is device.fault_injector is not None
        assert seen["service_write"] == device._service_write_checked
        assert device.try_submit.__name__ == "traced_try_submit"

    @pytest.mark.parametrize("installer", ["tracer", "fault-injector", "hooks"])
    def test_install_after_the_simulation_ran_raises(self, installer):
        # The block dispatcher caches device.try_submit on its first
        # resume, so a tracer installed after warm() would silently record
        # no device spans.  Every installer refuses instead.
        from repro.faults import FaultInjector
        from repro.scenarios.engine import prepare_spec
        from repro.simulation.engine import SimulationError

        workload = prepare_spec(make_spec(warmup_calls=4))
        workload.warm()
        stack = workload.stack
        with pytest.raises(SimulationError, match="after the simulation started"):
            if installer == "tracer":
                Tracer().install(stack)
            elif installer == "fault-injector":
                FaultInjector(["io-error:p=0.05"]).install(stack.device)
            else:
                from repro.hooks import install

                install(stack, tracer=Tracer())
        assert "try_submit" not in vars(stack.device)
        assert stack.device.fault_injector is None

    def test_tracer_on_stackless_workload_is_rejected(self):
        from repro.scenarios.engine import prepare_spec

        spec = ScenarioSpec(workload="blocklevel", config=None, device="plain-ssd")
        with pytest.raises(ValueError, match="tracer"):
            prepare_spec(spec, tracer=Tracer())


class TestMetrics:
    def test_streaming_metrics_match_the_span_stream(self):
        tracer = Tracer()
        run_spec_traced(make_spec(), tracer)
        metrics = tracer.metrics
        per_layer = {}
        for span in tracer.spans:
            per_layer[span.layer] = per_layer.get(span.layer, 0) + 1
        # No spans were dropped (default buffer), so counters match exactly.
        for layer, count in per_layer.items():
            assert metrics.counters[f"spans.{layer}"] == count
        assert metrics.counters["syscalls.fsync"] == len(tracer.contexts)
        assert "queue.device" in metrics.gauges
        # Every duration summary is exact over that name's spans.
        durations = {}
        for span in tracer.spans:
            durations.setdefault(f"{span.layer}.{span.op}", []).append(span.duration)
        assert set(metrics.durations) == set(durations)
        for name, recorder in metrics.durations.items():
            stats = recorder.summary()
            spans = durations[name]
            assert stats.count == len(spans), name
            assert (stats.minimum, stats.maximum) == (min(spans), max(spans)), name
            for key, fraction in (("median", 0.5), ("p99", 0.99), ("p999", 0.999)):
                assert getattr(stats, key) == percentile(spans, fraction), (name, key)

    def test_metrics_result_table_shape(self):
        tracer = Tracer()
        run_spec_traced(make_spec(), tracer)
        result = tracer.metrics.result()
        assert result.name == "trace-metrics"
        assert result.columns[:2] == ("span", "count")
        assert {"p50_us", "p99_us", "p999_us"} <= set(result.columns)
        rows = result.as_dicts()
        assert rows
        for row in rows:
            # Percentiles lie within the observed range.
            assert row["min_us"] <= row["p50_us"] <= row["max_us"]
            assert row["min_us"] <= row["p99_us"] <= row["max_us"]
