"""Core of the reproduction: stack assembly and verification.

* :mod:`repro.core.stack` — build a complete simulated IO stack (device +
  block layer + filesystem) from a declarative :class:`StackConfig`,
  including the named configurations the paper compares (EXT4-DR, EXT4-OD,
  BFS-DR, BFS-OD, OptFS).
* :mod:`repro.core.verification` — the crash oracles that check the
  paper's correctness claims (epoch-prefix durability, storage-order
  prefix, scheduler order preservation and journal recovery), one
  incremental check each, and the registry they live in.
"""

from repro.core.stack import IOStack, StackConfig, build_stack, standard_config
from repro.core.verification import (
    ORACLES,
    CrashProbe,
    Oracle,
    VerificationError,
    journal_transactions,
    register_oracle,
)

__all__ = [
    "IOStack",
    "ORACLES",
    "CrashProbe",
    "Oracle",
    "StackConfig",
    "VerificationError",
    "build_stack",
    "journal_transactions",
    "register_oracle",
    "standard_config",
]
