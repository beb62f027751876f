"""PostgreSQL WAL workload model.

PostgreSQL's durability traffic is dominated by the write-ahead log: every
commit appends WAL records and fsyncs the current WAL segment (the
transaction's durability point), while a background checkpointer
periodically writes dirty heap pages back to the relation files and then
logs a checkpoint record — the heap write-back only needs *ordering* with
respect to the checkpoint record, which is exactly the distinction the
barrier-enabled stack exploits (the same transformation the paper applies
to SQLite and MySQL).

Modelled file accesses per commit:

1. append ``wal_pages_per_commit`` pages to the WAL segment and sync it with
   a durability guarantee;
2. every ``checkpoint_every`` commits: overwrite ``checkpoint_pages`` dirty
   heap pages in the relation file, sync them with an ordering guarantee,
   then append the checkpoint record to the WAL and sync it durably.

Throughput is reported as commits per second.
"""

from __future__ import annotations

from repro.apps.syncpolicy import Guarantee, SyncPolicy
from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult
from repro.simulation.stats import LatencyRecorder

#: The WAL segment every commit appends to (append-only; crashlab's
#: committed-log-prefix oracle checks it after a crash).
WAL_FILE = "pg/pg_wal/000000010000000000000001"
#: The heap relation file the checkpointer overwrites.
HEAP_FILE = "pg/base/16384/2608"
#: Preallocated size of the heap file, and the point at which the
#: checkpoint cursor wraps.  The wrap must stay at least one checkpoint's
#: worth of pages below the preallocation so checkpoint overwrites never
#: allocate (allocating writes would journal metadata per checkpoint).
HEAP_PAGES = 16384
HEAP_CURSOR_WRAP = 16000


@WORKLOADS.register("postgres-wal")
class PostgresWALWorkload(Workload):
    """PostgreSQL WAL writer: per-commit WAL fsync + periodic checkpoints."""

    name = "postgres-wal"
    PARAMS = {
        "commits": int,
        "relax_durability": bool,
        "wal_pages_per_commit": int,
        "checkpoint_every": int,
        "checkpoint_pages": int,
        "cpu_per_commit": float,
        "warmup_commits": int,
    }
    SUFFIX_PARAMS = ("commits",)

    def __init__(self, **params: object):
        super().__init__(**params)
        self.relax_durability = self.param("relax_durability", False)
        self.wal_pages_per_commit = self.param("wal_pages_per_commit", 1)
        self.checkpoint_every = self.param("checkpoint_every", 16)
        self.checkpoint_pages = self.param("checkpoint_pages", 24)
        #: Host CPU work per commit (executor + WAL insert), microseconds.
        self.cpu_per_commit = self.param("cpu_per_commit", 90.0)
        self.warmup_commits = self.param("warmup_commits", 0)

    def warm(self) -> None:
        """Run ``warmup_commits`` unmeasured transactions."""
        if self.warmup_commits > 0:
            self.stack.run_process(
                self._commits(self.warmup_commits, LatencyRecorder("commit"))
            )

    def run(self) -> WorkloadResult:
        """Execute ``commits`` transactions and report throughput."""
        commits = self.param("commits", self.scaled(120, 40))
        latencies = LatencyRecorder("commit")
        elapsed = self.stack.run_process(self._commits(commits, latencies))
        return WorkloadResult(
            workload=self.name,
            operations=commits,
            elapsed_usec=elapsed,
            latencies=latencies,
            extra={"journal_commits": self.stack.fs.stats.journal_commits},
        )

    # ------------------------------------------------------------------ internals
    def _commits(self, num_commits: int, latencies: LatencyRecorder):
        fs = self.stack.fs
        sim = self.stack.sim
        policy = SyncPolicy(fs, relax_durability=self.relax_durability)
        wal = fs.create(WAL_FILE)
        heap = fs.create(HEAP_FILE, preallocate_pages=HEAP_PAGES)
        checkpoint_cursor = 0

        start = sim.now
        for index in range(num_commits):
            commit_start = sim.now
            if self.cpu_per_commit > 0:
                yield sim.sleep(self.cpu_per_commit)
            # WAL append: the commit's durability point.
            fs.write(wal, self.wal_pages_per_commit)
            yield from policy.sync(wal, Guarantee.DURABILITY, issuer="walwriter")

            if (index + 1) % self.checkpoint_every == 0:
                # Dirty heap pages written back in place (overwrites), then
                # the checkpoint record — heap before record is an ordering
                # constraint, not a durability one.
                fs.write(heap, self.checkpoint_pages, offset_page=checkpoint_cursor)
                checkpoint_cursor = (
                    checkpoint_cursor + self.checkpoint_pages
                ) % HEAP_CURSOR_WRAP
                yield from policy.sync(
                    heap, Guarantee.ORDERING, issuer="checkpointer"
                )
                fs.write(wal, 1)
                yield from policy.sync(
                    wal, Guarantee.DURABILITY, issuer="checkpointer"
                )
            latencies.record(sim.now - commit_start)
        return sim.now - start
