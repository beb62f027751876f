"""RocksDB flush + compaction workload model.

RocksDB's background IO is dominated by two activities, both of which are
sequences of whole-file writes followed by a MANIFEST update:

* **memtable flush** — write an L0 SST file, fsync it (a brand-new file, so
  the metadata must be durable too), then append the file-creation edit to
  the MANIFEST and sync it;
* **compaction** — every ``compaction_every`` flushes, write
  ``files_per_compaction`` new output SSTs (each fsync'd), append the
  version edit to the MANIFEST, sync it, and delete the consumed inputs.

The SST syncs before the MANIFEST edit are *ordering* constraints — an SST
that reaches the disk after its MANIFEST edit would be an unreadable
database — while the MANIFEST sync is the durability point.  This is the
multi-file counterpart of the SQLite/MySQL transformation the paper
performs, with much larger sequential writes per sync.

Throughput is reported as memtable flushes per second.
"""

from __future__ import annotations

from repro.apps.syncpolicy import Guarantee, SyncPolicy
from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult
from repro.simulation.stats import LatencyRecorder

#: The append-only version log (crashlab's committed-log-prefix oracle
#: checks it after a crash).
MANIFEST_FILE = "rocksdb/MANIFEST-000001"


@WORKLOADS.register("rocksdb-compaction")
class RocksDBCompactionWorkload(Workload):
    """RocksDB memtable flushes + multi-file compactions (SSTs before MANIFEST)."""

    name = "rocksdb-compaction"
    PARAMS = {
        "flushes": int,
        "relax_durability": bool,
        "memtable_pages": int,
        "files_per_compaction": int,
        "compaction_every": int,
        "sst_pages": int,
        "cpu_per_flush": float,
    }

    def __init__(self, **params: object):
        super().__init__(**params)
        self.relax_durability = self.param("relax_durability", False)
        self.memtable_pages = self.param("memtable_pages", 8)
        self.files_per_compaction = self.param("files_per_compaction", 3)
        self.compaction_every = self.param("compaction_every", 4)
        self.sst_pages = self.param("sst_pages", 12)
        #: Host CPU work per flush (memtable scan + block building), microseconds.
        self.cpu_per_flush = self.param("cpu_per_flush", 150.0)

    def run(self) -> WorkloadResult:
        """Execute ``flushes`` memtable flushes and report throughput."""
        flushes = self.param("flushes", self.scaled(24, 8))
        latencies = LatencyRecorder("flush")
        elapsed = self.stack.run_process(self._flushes(flushes, latencies))
        return WorkloadResult(
            workload=self.name,
            operations=flushes,
            elapsed_usec=elapsed,
            latencies=latencies,
            extra={"compactions": flushes // self.compaction_every},
        )

    # ------------------------------------------------------------------ internals
    def _flushes(self, num_flushes: int, latencies: LatencyRecorder):
        fs = self.stack.fs
        sim = self.stack.sim
        policy = SyncPolicy(fs, relax_durability=self.relax_durability)
        manifest = fs.create(MANIFEST_FILE)
        file_number = 0
        level0: list[str] = []

        def next_sst() -> str:
            nonlocal file_number
            file_number += 1
            return f"rocksdb/{file_number:06d}.sst"

        start = sim.now
        for index in range(num_flushes):
            flush_start = sim.now
            if self.cpu_per_flush > 0:
                yield sim.sleep(self.cpu_per_flush)
            # Memtable flush: a new L0 SST, synced before its MANIFEST edit.
            name = next_sst()
            sst = fs.create(name)
            fs.write(sst, self.memtable_pages)
            yield from policy.metadata_sync(sst, Guarantee.ORDERING, issuer="rocksdb")
            level0.append(name)
            fs.write(manifest, 1)
            yield from policy.sync(manifest, Guarantee.DURABILITY, issuer="rocksdb")

            if (index + 1) % self.compaction_every == 0:
                yield from self._compaction(fs, policy, manifest, level0, next_sst)
            latencies.record(sim.now - flush_start)
        return sim.now - start

    def _compaction(self, fs, policy, manifest, level0: list[str], next_sst):
        # Write the merged output files; each must hit the disk before the
        # MANIFEST edit that makes it live.
        for _ in range(self.files_per_compaction):
            out = fs.create(next_sst())
            fs.write(out, self.sst_pages)
            yield from policy.metadata_sync(
                out, Guarantee.ORDERING, issuer="rocksdb-compact"
            )
        fs.write(manifest, 1)
        yield from policy.sync(
            manifest, Guarantee.DURABILITY, issuer="rocksdb-compact"
        )
        # The consumed inputs are now garbage.
        for name in level0:
            fs.unlink(name)
        level0.clear()
