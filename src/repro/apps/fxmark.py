"""fxmark DWSL workload (journaling scalability, Fig. 13).

DWSL ("data write, sync, low sharing") spawns one thread per simulated core;
each thread owns a private file and repeatedly performs a 4 KiB allocating
write followed by ``fsync()``.  Because every operation commits a journal
transaction, the aggregate ops/s measures how well the filesystem journal
scales with concurrency — EXT4 serialises commits behind transfer-and-flush
while BarrierFS's dual-mode journal keeps several commits in flight.
"""

from __future__ import annotations

from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult
from repro.simulation.stats import LatencyRecorder


@WORKLOADS.register("fxmark")
class FxmarkDWSL(Workload):
    """Private-file write+fsync scalability microbenchmark."""

    name = "fxmark"
    PARAMS = {
        "num_threads": int,
        "ops_per_thread": int,
        "use_fbarrier": bool,
        "cpu_per_operation": float,
    }

    def __init__(self, **params: object):
        super().__init__(**params)
        self.num_threads = self.param("num_threads", 4)
        if self.num_threads < 1:
            raise ValueError("fxmark needs at least one thread")
        self.use_fbarrier = self.param("use_fbarrier", False)
        #: Host CPU work per write+fsync pair, microseconds.
        self.cpu_per_operation = self.param("cpu_per_operation", 15.0)

    def run(self) -> WorkloadResult:
        """Run ``ops_per_thread`` write+fsync operations on every thread."""
        ops_per_thread = self.param("ops_per_thread", self.scaled(40, 15))
        sim = self.stack.sim
        latencies = LatencyRecorder("fsync")
        start = sim.now

        def controller():
            workers = [
                sim.process(
                    self._worker(thread_id, ops_per_thread, latencies),
                    name=f"dwsl-{thread_id}",
                )
                for thread_id in range(self.num_threads)
            ]
            yield sim.all_of(workers)
            return None

        self.stack.run_process(controller())
        return WorkloadResult(
            workload=self.name,
            operations=self.num_threads * ops_per_thread,
            elapsed_usec=sim.now - start,
            latencies=latencies,
            extra={"num_threads": self.num_threads},
        )

    def _worker(self, thread_id: int, operations: int, latencies: LatencyRecorder):
        fs = self.stack.fs
        sim = self.stack.sim
        issuer = f"dwsl-{thread_id}"
        private_file = fs.create(f"fxmark/{thread_id}.dat")

        for _ in range(operations):
            op_start = sim.now
            if self.cpu_per_operation > 0:
                yield sim.sleep(self.cpu_per_operation)
            fs.write(private_file, 1)
            if self.use_fbarrier:
                yield from fs.fbarrier(private_file, issuer=issuer)
            else:
                yield from fs.fsync(private_file, issuer=issuer)
            latencies.record(sim.now - op_start)
        return None
