"""Filebench *varmail* workload model (Fig. 15).

varmail emulates a maildir-style mail server: a pool of small files that are
continuously created, appended to, fsynced, read and deleted.  One loop
iteration performs the canonical varmail sequence (create+append+fsync,
append-to-existing+fsync, whole-file read, delete) and contributes four
operations to the ops/s figure, mirroring how filebench counts them.

The workload is metadata-heavy — every iteration allocates and deletes files
— which is why it stresses journal-commit latency rather than data
bandwidth.
"""

from __future__ import annotations

import random

from repro.apps.syncpolicy import Guarantee, SyncPolicy
from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult
from repro.simulation.stats import LatencyRecorder


@WORKLOADS.register("varmail")
class VarmailWorkload(Workload):
    """Mail-server file churn with frequent fsync."""

    name = "varmail"
    PARAMS = {
        "iterations": int,
        "relax_durability": bool,
        "mail_pages": int,
        "file_pool": int,
        "num_threads": int,
        "cpu_per_iteration": float,
        "seed": int,
    }

    #: Operations counted per loop iteration (create+fsync, append+fsync,
    #: read, delete), matching filebench's accounting.
    OPS_PER_ITERATION = 4
    #: Default seed of the model, added to the scenario seed.
    SEED_OFFSET = 7

    def __init__(self, **params: object):
        super().__init__(**params)
        self.relax_durability = self.param("relax_durability", False)
        self.mail_pages = self.param("mail_pages", 4)
        self.file_pool = self.param("file_pool", 64)
        self.num_threads = self.param("num_threads", 2)
        #: Host CPU work per loop iteration (namei, dirent updates), microseconds.
        self.cpu_per_iteration = self.param("cpu_per_iteration", 40.0)

    def run(self) -> WorkloadResult:
        """Run ``iterations`` loop iterations on each of ``num_threads`` threads."""
        iterations = self.param("iterations", self.scaled(30, 10))
        seed = self.param("seed", self.seed + self.SEED_OFFSET)
        sim = self.stack.sim
        policy = SyncPolicy(self.stack.fs, relax_durability=self.relax_durability)
        latencies = LatencyRecorder("op")
        start = sim.now

        def controller():
            workers = [
                sim.process(
                    self._worker(thread_id, iterations, policy, seed, latencies),
                    name=f"varmail-{thread_id}",
                )
                for thread_id in range(self.num_threads)
            ]
            yield sim.all_of(workers)
            return None

        self.stack.run_process(controller())
        return WorkloadResult(
            workload=self.name,
            operations=self.num_threads * iterations * self.OPS_PER_ITERATION,
            elapsed_usec=sim.now - start,
            latencies=latencies,
        )

    def _worker(
        self,
        thread_id: int,
        iterations: int,
        policy: SyncPolicy,
        seed: int,
        latencies: LatencyRecorder,
    ):
        fs = self.stack.fs
        sim = self.stack.sim
        rng = random.Random(seed + thread_id)
        issuer = f"varmail-{thread_id}"
        sequence = 0

        # Pre-populate a small pool of mailbox files to append to.
        pool = []
        for index in range(4):
            mailbox = fs.create(f"mail/{thread_id}/box{index}")
            fs.write(mailbox, self.mail_pages)
            pool.append(mailbox)

        for _ in range(iterations):
            op_start = sim.now
            if self.cpu_per_iteration > 0:
                yield sim.sleep(self.cpu_per_iteration)
            # (1) deliver a new message: create + append + fsync.
            sequence += 1
            new_mail = fs.create(f"mail/{thread_id}/msg{sequence}")
            fs.write(new_mail, self.mail_pages)
            yield from policy.metadata_sync(
                new_mail, Guarantee.DURABILITY, issuer=issuer
            )
            # (2) update an existing mailbox: append + fsync.
            mailbox = rng.choice(pool)
            fs.write(mailbox, self.mail_pages // 2 or 1)
            yield from policy.metadata_sync(
                mailbox, Guarantee.DURABILITY, issuer=issuer
            )
            # (3) read a message (cheap; served from the page cache model).
            # (4) expire an old message.
            if sequence > self.file_pool and fs.exists(
                f"mail/{thread_id}/msg{sequence - self.file_pool}"
            ):
                fs.unlink(f"mail/{thread_id}/msg{sequence - self.file_pool}")
            latencies.record(sim.now - op_start)
        return None
