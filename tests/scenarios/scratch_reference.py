"""From-scratch reference for sweeps that share a warmup.

:func:`repro.scenarios.engine.run_specs` runs specs that differ only in
measured-phase parameters by warming once and forking each point off the
warmed process.  This module runs every spec the slow, independent way:
one :func:`repro.scenarios.engine.run_spec` per spec, in order.  Run as a
script, it executes ``runner sweep`` with that loop in place of
``run_specs``, so the JSON of the two can be byte-diffed::

    PYTHONPATH=src python tests/scenarios/scratch_reference.py \\
        -w sync-loop -c BFS-DR -d ufs --param 'calls=[10,20,40]' \\
        --format json --output reference.json
"""

from __future__ import annotations

import sys

from repro.scenarios import engine


def scratch_run_specs(specs, *, jobs: int = 1):
    """What :func:`repro.scenarios.engine.run_specs` must return: one run per spec."""
    return [engine.run_spec(spec) for spec in specs]


def main(argv=None) -> None:
    """``runner sweep`` with every spec run by :func:`scratch_run_specs`."""
    from repro.experiments.runner import sweep_main

    grouped = engine.run_specs
    engine.run_specs = scratch_run_specs
    try:
        sweep_main(argv)
    finally:
        engine.run_specs = grouped


if __name__ == "__main__":
    main(sys.argv[1:])
