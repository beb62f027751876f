"""Per-point replay reference for the in-line crash verifier.

The exploration engine judges every crash point inside one run of a cell
(:func:`repro.crashlab.verify_points`).  This module rebuilds the same
verdicts the slow, independent way: one from-scratch run per point that
cuts power by unwinding at that point (:func:`repro.crashlab.replay_to_point`),
then the same verdict builder.  The equivalence suite compares the two
directly.  Run as a script, it executes ``runner check`` with the
reference in place of the in-line pass, so the JSON reports of the two can
be byte-diffed::

    PYTHONPATH=src python tests/crashlab/replay_reference.py \\
        --workload sync-loop --barrier-mode none --strategy exhaustive \\
        --format json --output reference.json
"""

from __future__ import annotations

import sys

from repro.crashlab import engine, record_boundaries, replay_to_point


def reference_verdicts(spec, indices, *, trace_tail: int = 0, judge=None):
    """What :func:`repro.crashlab.verify_points` must return, one replay per point."""
    if indices is None:
        indices = range(len(record_boundaries(spec)))
    verdicts = []
    for index in sorted(set(indices)):
        tracer = engine._make_tracer(trace_tail)
        probe, boundary = replay_to_point(spec, index, tracer=tracer)
        verdict = engine._point_verdict(probe, boundary, index, tracer, trace_tail)
        verdicts.append(judge(probe, verdict) if judge is not None else verdict)
    return verdicts


def reference_pass(spec, indices, *, trace_tail: int = 0, judge=None):
    """The reference in place of the engine's verifying run (``engine._verify``).

    Its boundary count comes from a recording run; its verdicts from
    :func:`reference_verdicts`.
    """
    total = len(record_boundaries(spec))
    points = reference_verdicts(
        spec, range(total) if indices is None else indices,
        trace_tail=trace_tail, judge=judge,
    )
    return engine._Pass(points, total)


def main(argv=None) -> None:
    """``runner check`` with every verdict built by :func:`reference_verdicts`."""
    from repro.experiments.runner import check_main

    inline = engine._verify
    engine._verify = reference_pass
    try:
        check_main(argv)
    finally:
        engine._verify = inline


if __name__ == "__main__":
    main(sys.argv[1:])
