#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is what one ``bench.py --json PATH`` run wrote.  Side A is the
baseline (the parent commit), side B the change; run them alternately and
pass them in run order, because run *i* of A is paired with run *i* of B.
The rows cover every end-to-end metric of ``BENCHMARK.json`` plus
``error_rate``, and show for each side the median and quartiles, the share
of pairs B won (ties count for neither side), how much worse B's median is
than A's (negative when B is better) and a verdict:

* ``regression`` -- B's median is worse than A's by more than the metric's
  bound (for ``error_rate``, by anything at all);
* ``unresolved`` -- either side's spread (quartile distance over median) is
  wider than the bound, so the medians cannot show the bound holds, unless
  every run of B reads better than every run of A;
* ``within bound`` -- otherwise.

``gain`` marks a row with at least ten pairs where B won at least nine
tenths of them and the medians differ, in B's favour, by more than A's
quartile distance: the bar for claiming an improvement.  The exit code is
0 when every row is within bound and 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the acceptance check takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_metric(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """The comparison row of one metric: quartiles, pairs won, verdict."""
    sign = 1.0 if better == "lower" else -1.0

    def worse_by(new: float, old: float) -> float:
        """How much worse ``new`` is than ``old``, as a share of ``old``."""
        if old == 0:
            return sign * new  # no base to scale by: only the direction counts
        return sign * (new - old) / abs(old)

    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    won = sum(worse_by(new, old) < 0 for old, new in pairs) / len(pairs)
    change = worse_by(b_med, a_med)
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    all_better = all(worse_by(new, old) < 0 for old in a for new in b)
    if bound == 0:
        verdict = "regression" if change > 0 else "within bound"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif change > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    gain = len(pairs) >= 10 and won >= 0.9 and sign * (a_med - b_med) > a_q3 - a_q1
    return {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "won": won,
        "change": change,
        "spread": spread,
        "verdict": verdict,
        "gain": gain,
    }


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text())["workloads"] for path in paths]


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run[workload]["error_rate"] if metric == "error_rate"
        else run[workload]["metrics"][metric]
        for run in runs
        if workload in run
    ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = _load(argv[:split]), _load(argv[split + 1:])
    if not side_a or not side_b:
        print("compare: each side needs at least one run", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK_FILE.read_text())
    metrics = [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]
    ] + [("error_rate", "fraction", "lower", 0.0)]
    workloads = [w["name"] for w in benchmark["workloads"]]
    header = (
        f"{'workload':<15} {'metric':<12} {'A q1/median/q3':>32} "
        f"{'B q1/median/q3':>32} {'worse by':>8} {'B won':>6}  verdict"
    )
    print(header)
    all_within = True
    for workload in workloads:
        for name, unit, better, bound in metrics:
            a, b = _values(side_a, workload, name), _values(side_b, workload, name)
            if not a or not b:
                continue
            row = compare_metric(a, b, better, bound)
            all_within &= row["verdict"] == "within bound"
            sides = [
                "/".join(f"{value:.5g}" for value in row[side]) + f" {unit}"
                for side in ("a", "b")
            ]
            print(
                f"{workload:<15} {name:<12} {sides[0]:>32} {sides[1]:>32} "
                f"{100 * row['change']:>+7.2f}% {row['won']:>6.0%}  {row['verdict']}"
                + ("  gain" if row["gain"] else "")
                + f"  (spread {100 * row['spread']:.1f}%, bound {100 * bound:.0f}%,"
                f" {len(a)}+{len(b)} runs)"
            )
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
