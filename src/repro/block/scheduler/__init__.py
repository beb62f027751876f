"""IO schedulers for the block layer.

:class:`NoopScheduler` (FIFO with back-merging) is the block layer's one
scheduling discipline and runs the legacy stack.  :class:`EpochIOScheduler`
extends it with the paper's epoch-based scheduling and barrier-reassignment
rules so that the dispatch order preserves the partial order the filesystem
asked for (``I = D``).
"""

from repro.block.scheduler.epoch import EpochIOScheduler
from repro.block.scheduler.noop import NoopScheduler

__all__ = [
    "EpochIOScheduler",
    "NoopScheduler",
]
