"""Core of the reproduction: stack assembly and verification.

* :mod:`repro.core.stack` — build a complete simulated IO stack (device +
  block layer + filesystem) from a declarative :class:`StackConfig`,
  including the named configurations the paper compares (EXT4-DR, EXT4-OD,
  BFS-DR, BFS-OD, OptFS).
* :mod:`repro.core.verification` — check the paper's correctness claims:
  epoch-prefix durability, scheduler order preservation and journal
  recovery invariants.
"""

from repro.core.stack import IOStack, StackConfig, build_stack, standard_config
from repro.core.verification import (
    ORACLES,
    CrashProbe,
    Oracle,
    VerificationError,
    applicable_oracles,
    journal_transactions,
    register_oracle,
    verify_dispatch_preserves_epochs,
    verify_epoch_prefix,
    verify_journal_recovery,
    verify_storage_order_prefix,
)

__all__ = [
    "IOStack",
    "ORACLES",
    "CrashProbe",
    "Oracle",
    "StackConfig",
    "VerificationError",
    "applicable_oracles",
    "build_stack",
    "journal_transactions",
    "register_oracle",
    "standard_config",
    "verify_dispatch_preserves_epochs",
    "verify_epoch_prefix",
    "verify_journal_recovery",
    "verify_storage_order_prefix",
]
