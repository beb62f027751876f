"""Property-based tests (hypothesis) for the core ordering invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.builders import write_request
from repro.block.request import RequestFlag
from repro.block.scheduler import EpochIOScheduler
from repro.core import build_stack, standard_config
from repro.core.verification import ORACLES, CrashProbe
from repro.simulation.stats import percentile
from repro.storage.command import WrittenBlock
from repro.storage.crash import recover_durable_blocks

# A "plan" is a list of operations driving the barrier stack:
#   ("write", page_count)  or  ("barrier",)
operation = st.one_of(
    st.tuples(st.just("write"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("barrier")),
)
plans = st.lists(operation, min_size=1, max_size=40)

relaxed = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEpochSchedulerProperties:
    @given(plan=plans, seed=st.integers(min_value=0, max_value=2**16))
    @relaxed
    def test_scheduler_never_loses_or_duplicates_requests(self, plan, seed):
        scheduler = EpochIOScheduler()
        submitted = []
        lba = 0
        for op in plan:
            if op[0] == "write":
                request = write_request(lba * 100, op[1], flags=RequestFlag.ORDERED)
            else:
                request = write_request(lba * 100, 1,
                                        flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
            lba += 1
            submitted.append(request)
            scheduler.add_request(request)
        dispatched = []
        while True:
            request = scheduler.next_request()
            if request is None:
                break
            dispatched.append(request)
            dispatched.extend(request.merged_requests)
        assert sorted(r.request_id for r in dispatched) == sorted(
            r.request_id for r in submitted
        )

    @given(plan=plans)
    @relaxed
    def test_barrier_count_preserved(self, plan):
        scheduler = EpochIOScheduler()
        barriers_in = 0
        for index, op in enumerate(plan):
            if op[0] == "barrier":
                barriers_in += 1
                scheduler.add_request(
                    write_request(index, 1, flags=RequestFlag.ORDERED | RequestFlag.BARRIER)
                )
            else:
                scheduler.add_request(write_request(index * 10, op[1], flags=RequestFlag.ORDERED))
        barriers_out = 0
        while True:
            request = scheduler.next_request()
            if request is None:
                break
            if request.is_barrier:
                barriers_out += 1
        # Every submitted barrier delimits exactly one dispatched epoch.
        assert barriers_out == barriers_in


class TestEndToEndOrderingProperties:
    @given(
        plan=plans,
        crash_fraction=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**10),
    )
    @relaxed
    def test_epoch_prefix_durability_after_crash(self, plan, crash_fraction, seed):
        """Whatever the write/barrier interleaving and crash point, a
        barrier-honouring device never persists epoch k+1 without epoch k."""
        stack = build_stack(standard_config("BFS-OD", "plain-ssd", seed=seed))
        stack.record_history()
        block = stack.block
        sim = stack.sim

        def writer():
            page = 0
            for op in plan:
                if op[0] == "write":
                    block.write(
                        page, op[1],
                        payload=[WrittenBlock(("rec", page, i), 1) for i in range(op[1])],
                        flags=RequestFlag.ORDERED,
                        issuer="app",
                    )
                    page += op[1]
                else:
                    block.write(
                        page, 1,
                        payload=[WrittenBlock(("bar", page), 1)],
                        flags=RequestFlag.ORDERED | RequestFlag.BARRIER,
                        issuer="app",
                    )
                    page += 1
                yield sim.timeout(30)
            return None

        sim.process(writer())
        horizon = max(200.0, 30.0 * len(plan) * 3) * crash_fraction
        sim.run(until=horizon)
        stack.device.power_off()

        probe = CrashProbe.from_stack(recover_durable_blocks(stack.device), stack)
        ORACLES["dispatch-epoch-order"].verify(probe)
        ORACLES["epoch-prefix"].verify(probe)

    @given(seed=st.integers(min_value=0, max_value=2**10),
           syncs=st.integers(min_value=1, max_value=6))
    @relaxed
    def test_fsync_data_always_durable(self, seed, syncs):
        """After fsync() returns, the synced data must be durable — on every
        filesystem and regardless of the interleaving seed."""
        for config_name in ("EXT4-DR", "BFS-DR"):
            stack = build_stack(standard_config(config_name, "plain-ssd", seed=seed))
            stack.record_history()
            fs = stack.fs

            def proc():
                handle = fs.create("prop.db")
                for _ in range(syncs):
                    fs.write(handle, 1)
                    yield from fs.fsync(handle)
                return handle

            handle = stack.run_process(proc())
            durable = {
                entry.block for entry in stack.device.cache.history if entry.is_durable
            }
            for page in range(syncs):
                assert ("data", handle.inode_no, page) in durable, (
                    f"{config_name}: page {page} not durable after fsync"
                )


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200),
           st.floats(min_value=0, max_value=1))
    def test_percentile_bounded_by_min_max(self, samples, fraction):
        value = percentile(samples, fraction)
        assert min(samples) <= value <= max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100))
    def test_percentiles_monotone(self, samples):
        tolerance = 1e-9 * max(samples) + 1e-12
        p50 = percentile(samples, 0.5)
        p99 = percentile(samples, 0.99)
        p100 = percentile(samples, 1.0)
        assert p50 <= p99 + tolerance
        assert p99 <= p100 + tolerance
