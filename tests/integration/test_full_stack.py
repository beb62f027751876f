"""End-to-end integration tests: whole-stack behaviour matches the paper."""

from repro.analysis.measure import measure_sync_latency
from repro.core import build_stack, standard_config
from repro.experiments.blocklevel import run_scenario


class TestPaperHeadlines:
    def test_barrierfs_fsync_faster_than_ext4_on_every_device(self):
        for device in ("ufs", "plain-ssd"):
            ext4 = measure_sync_latency(
                build_stack(standard_config("EXT4-DR", device)),
                calls=30, sync_call="fsync", allocating=True,
            )
            bfs = measure_sync_latency(
                build_stack(standard_config("BFS-DR", device)),
                calls=30, sync_call="fsync", allocating=True,
            )
            assert bfs.latencies.mean < ext4.latencies.mean

    def test_barrier_write_beats_wait_on_transfer(self):
        for device in ("ufs", "plain-ssd"):
            wait = run_scenario("X", device, num_writes=80)
            barrier = run_scenario("B", device, num_writes=300)
            assert barrier.iops > wait.iops * 1.3
            assert barrier.max_queue_depth > wait.max_queue_depth * 4

    def test_transfer_and_flush_is_the_worst_case(self):
        xnf = run_scenario("XnF", "plain-ssd", num_writes=40)
        x = run_scenario("X", "plain-ssd", num_writes=80)
        plain = run_scenario("P", "plain-ssd", num_writes=400)
        assert xnf.iops < x.iops < plain.iops

    def test_supercap_does_not_need_the_flush_but_still_waits_on_transfer(self):
        xnf = run_scenario("XnF", "supercap-ssd", num_writes=80)
        barrier = run_scenario("B", "supercap-ssd", num_writes=300)
        # Even with PLP the synchronous path is well below the barrier path.
        assert barrier.iops > xnf.iops * 2

    def test_relaxing_durability_multiplies_application_throughput(self):
        from repro.apps import SQLiteWorkload

        durable = SQLiteWorkload(inserts=30).prepare(
            build_stack(standard_config("EXT4-DR"))
        ).run()
        relaxed = SQLiteWorkload(inserts=30, relax_durability=True).prepare(
            build_stack(standard_config("BFS-OD"))
        ).run()
        assert relaxed.ops_per_second > durable.ops_per_second * 10

    def test_dual_mode_journaling_overlaps_commits(self):
        stack = build_stack(standard_config("BFS-DR", "plain-ssd"))
        fs = stack.fs
        sim = stack.sim

        def worker(index):
            yield sim.timeout(index * 400)
            handle = fs.create(f"f{index}")
            for _ in range(3):
                fs.write(handle, 1)
                yield from fs.fsync(handle, issuer=f"t{index}")
            return None

        def controller():
            workers = [sim.process(worker(i)) for i in range(6)]
            yield sim.all_of(workers)
            return None

        stack.run_process(controller())
        assert fs.journal.max_committing_in_flight >= 2
        assert fs.journal.commits_durable >= 1
