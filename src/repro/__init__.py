"""Barrier-Enabled IO Stack for Flash Storage — simulation-based reproduction.

This package reproduces the system described in "Barrier-Enabled IO Stack
for Flash Storage" (Won et al., USENIX FAST 2018) as a discrete-event
simulation: a barrier-capable flash device, an order-preserving block layer
(epoch scheduler + order-preserving dispatch), the BarrierFS filesystem with
Dual-Mode Journaling and its ``fbarrier()``/``fdatabarrier()`` calls, the
EXT4 and OptFS baselines, and the application workloads of the paper's
evaluation.

Typical entry points:

>>> from repro.core import build_stack, standard_config
>>> stack = build_stack(standard_config("BFS-DR", "plain-ssd"))

the experiment harness:

>>> from repro.experiments.runner import run_all
>>> tables = run_all(scale=1.0)

and the declarative scenario layer for matrices no figure hard-codes:

>>> from repro.scenarios import sweep, sweep_table
>>> table = sweep_table(sweep(workloads=["varmail"], configs=["OptFS"],
...                           devices=["ufs"]))
"""

from repro.core.stack import IOStack, StackConfig, build_stack, standard_config

__version__ = "1.0.0"

__all__ = ["IOStack", "StackConfig", "build_stack", "standard_config", "__version__"]
