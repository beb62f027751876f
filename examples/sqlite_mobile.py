#!/usr/bin/env python3
"""Mobile SQLite scenario (the paper's motivating application, Fig. 14a).

Runs the SQLite PERSIST-mode insert workload on the simulated UFS device
under four configurations: stock EXT4, BarrierFS with durability preserved
(the three ordering-only fdatasync()s become fdatabarrier()s), and both
filesystems with durability relaxed.  Prints inserts/second, mirroring the
smartphone experiment of the paper.
"""

from repro.apps import SQLiteJournalMode, SQLiteWorkload
from repro.core import build_stack, standard_config

CONFIGS = (
    ("EXT4-DR", "EXT4-DR", False),
    ("BFS-DR", "BFS-DR", False),
    ("EXT4-OD (nobarrier)", "EXT4-OD", True),
    ("BFS-OD (fdatabarrier)", "BFS-OD", True),
)


def main() -> None:
    inserts = 150
    print(f"SQLite PERSIST mode, {inserts} insert transactions, UFS (smartphone)\n")
    baseline = None
    for label, config_name, relax in CONFIGS:
        workload = SQLiteWorkload(
            inserts=inserts,
            journal_mode=SQLiteJournalMode.PERSIST,
            relax_durability=relax,
        )
        result = workload.prepare(build_stack(standard_config(config_name, "ufs"))).run()
        tps = result.ops_per_second
        if baseline is None:
            baseline = tps
        print(f"  {label:24s} {tps:9.1f} inserts/s   ({tps / baseline:5.2f}x vs EXT4-DR)")
    print(
        "\npaper: +75% for BFS-DR on the smartphone, +180% once durability is relaxed"
    )


if __name__ == "__main__":
    main()
