#!/usr/bin/env python3
"""Server OLTP scenario (Fig. 15): MySQL-style inserts and varmail.

Compares the five configurations of the paper's server evaluation on the
plain (no supercap) SSD: EXT4-DR, BFS-DR, OptFS, EXT4-OD and BFS-OD, for
both the sysbench OLTP-insert model and the filebench varmail model.
"""

from repro.apps import MySQLOLTPInsert, VarmailWorkload
from repro.core import build_stack, standard_config

CONFIGS = (
    ("EXT4-DR", False),
    ("BFS-DR", False),
    ("OptFS", True),
    ("EXT4-OD", True),
    ("BFS-OD", True),
)


def main() -> None:
    transactions = 200
    iterations = 40
    print("Server workloads on the plain SSD\n")
    print(f"{'config':9s} {'OLTP-insert Tx/s':>18s} {'varmail ops/s':>16s}")
    for name, relax in CONFIGS:
        oltp = MySQLOLTPInsert(
            transactions=transactions, relax_durability=relax
        ).prepare(build_stack(standard_config(name, "plain-ssd"))).run()
        varmail = VarmailWorkload(
            iterations=iterations, relax_durability=relax
        ).prepare(build_stack(standard_config(name, "plain-ssd"))).run()

        print(f"{name:9s} {oltp.ops_per_second:18.1f} {varmail.ops_per_second:16.1f}")
    print(
        "\npaper: MySQL gains ~43x when fsync() becomes fbarrier(); OptFS does not "
        "beat EXT4-OD on flash"
    )


if __name__ == "__main__":
    main()
