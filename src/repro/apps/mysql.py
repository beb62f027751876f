"""MySQL/InnoDB OLTP-insert workload model (sysbench, Fig. 15).

Each sysbench OLTP-insert transaction is modelled as InnoDB performs it with
``innodb_flush_log_at_trx_commit=1``:

1. append the redo-log record to ``ib_logfile`` and sync it (the commit's
   durability point);
2. append to the binary log and sync it (group-commit style);
3. periodically write back dirty tablespace pages through the double-write
   buffer (modelled as a background overwrite of the ``ibdata`` file every
   ``pages_per_checkpoint`` transactions — these writes are overwrites, which
   is what triggers OptFS's selective data journaling).

Throughput is reported as transactions per second.
"""

from __future__ import annotations

from repro.apps.syncpolicy import Guarantee, SyncPolicy
from repro.scenarios.workloads import WORKLOADS, Workload, WorkloadResult
from repro.simulation.stats import LatencyRecorder


@WORKLOADS.register("mysql")
class MySQLOLTPInsert(Workload):
    """sysbench OLTP-insert against MySQL/InnoDB's file accesses (Fig. 15)."""

    name = "mysql"
    PARAMS = {
        "transactions": int,
        "relax_durability": bool,
        "redo_pages_per_tx": int,
        "binlog_pages_per_tx": int,
        "checkpoint_every": int,
        "checkpoint_pages": int,
        "cpu_per_transaction": float,
    }

    def __init__(self, **params: object):
        super().__init__(**params)
        self.relax_durability = self.param("relax_durability", False)
        self.redo_pages_per_tx = self.param("redo_pages_per_tx", 1)
        self.binlog_pages_per_tx = self.param("binlog_pages_per_tx", 1)
        self.checkpoint_every = self.param("checkpoint_every", 8)
        self.checkpoint_pages = self.param("checkpoint_pages", 16)
        #: Host CPU work per transaction (SQL + InnoDB bookkeeping), microseconds.
        self.cpu_per_transaction = self.param("cpu_per_transaction", 120.0)

    def run(self) -> WorkloadResult:
        """Execute ``transactions`` inserts and report throughput."""
        transactions = self.param("transactions", self.scaled(120, 40))
        latencies = LatencyRecorder("tx")
        elapsed = self.stack.run_process(self._transactions(transactions, latencies))
        return WorkloadResult(
            workload=self.name,
            operations=transactions,
            elapsed_usec=elapsed,
            latencies=latencies,
        )

    def _transactions(self, num_transactions: int, latencies: LatencyRecorder):
        fs = self.stack.fs
        sim = self.stack.sim
        policy = SyncPolicy(fs, relax_durability=self.relax_durability)
        redo_log = fs.create("mysql/ib_logfile0")
        binlog = fs.create("mysql/binlog.000001")
        tablespace = fs.create("mysql/ibdata1", preallocate_pages=16384)
        checkpoint_cursor = 0

        start = sim.now
        for index in range(num_transactions):
            tx_start = sim.now
            if self.cpu_per_transaction > 0:
                yield sim.sleep(self.cpu_per_transaction)
            # Redo log append: the transaction's durability point.
            fs.write(redo_log, self.redo_pages_per_tx)
            yield from policy.sync(redo_log, Guarantee.DURABILITY, issuer="mysqld")
            # Binary log append: ordering with respect to the redo log.
            fs.write(binlog, self.binlog_pages_per_tx)
            yield from policy.sync(binlog, Guarantee.ORDERING, issuer="mysqld")

            if (index + 1) % self.checkpoint_every == 0:
                # Dirty tablespace pages written back in place (overwrites).
                fs.write(
                    tablespace, self.checkpoint_pages, offset_page=checkpoint_cursor
                )
                checkpoint_cursor = (checkpoint_cursor + self.checkpoint_pages) % 16000
                yield from policy.sync(
                    tablespace, Guarantee.ORDERING, issuer="mysqld"
                )
            latencies.record(sim.now - tx_start)
        return sim.now - start
