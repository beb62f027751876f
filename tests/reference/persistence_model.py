"""Which durable sets each barrier mode permits at a power cut.

The independent reference for the device's crash state and for the crash
oracles.  It knows nothing of the simulator: only the pages transferred so
far, in transfer order, and how a controller may honour the cache barrier
(Section 3.2 of the paper).  It enumerates durable sets; it checks no
invariant of them.

A transfer that a completed FLUSH or FUA covered is in every permitted
set.  Beyond that, per mode (``BarrierMode`` values):

* ``plp`` — the cache is durable: exactly everything transferred;
* ``none`` — the legacy controller drains in any order: any subset;
* ``in-order-writeback`` and ``in-order-recovery`` — the drain (or the
  recovery scan of the log) keeps a transfer-order prefix;
* ``transactional`` — whole flush groups drain atomically and in order: a
  transfer-order prefix that ends between two flush groups.

Each mode's permitted sets form a few *families*: a family ``(must,
optional)`` holds every set ``must | S`` for ``S`` a subset of
``optional``.  That keeps membership cheap under ``none``, whose sets
number 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

MODES = ("plp", "none", "in-order-writeback", "in-order-recovery", "transactional")
PREFIX_MODES = ("in-order-writeback", "in-order-recovery", "transactional")


@dataclass(frozen=True)
class Transfer:
    """One page the host transferred to the device."""

    #: Position in the transfer order (any increasing numbering).
    seq: int
    #: Under transactional write-back, the flush group the controller
    #: drained the page in (``None`` while not drained, or outside any
    #: group).
    group: Optional[int] = None
    #: Whether a completed FLUSH or FUA covered the page.
    covered: bool = False


Family = tuple[frozenset, frozenset]


def families(transfers: list[Transfer], mode: str) -> list[Family]:
    """The ``(must, optional)`` families whose union ``mode`` permits."""
    order = sorted(transfers, key=lambda transfer: transfer.seq)
    seqs = [transfer.seq for transfer in order]
    covered = frozenset(transfer.seq for transfer in order if transfer.covered)
    if mode == "plp":
        return [(frozenset(seqs), frozenset())]
    if mode == "none":
        return [(covered, frozenset(seqs) - covered)]
    if mode not in PREFIX_MODES:
        raise ValueError(f"unknown barrier mode {mode!r}")
    result = []
    for cut in range(len(order) + 1):
        prefix = frozenset(seqs[:cut])
        if not covered <= prefix:
            continue
        if mode == "transactional" and _splits_a_group(order, cut):
            continue
        result.append((prefix, frozenset()))
    return result


def _splits_a_group(order: list[Transfer], cut: int) -> bool:
    """Whether some flush group has pages on both sides of ``cut``."""
    before = {transfer.group for transfer in order[:cut]}
    after = {transfer.group for transfer in order[cut:]}
    return bool((before & after) - {None})


def permits(transfers: list[Transfer], mode: str, durable) -> bool:
    """Whether ``mode`` permits the durable set ``durable`` (transfer seqs)."""
    durable = frozenset(durable)
    return any(
        must <= durable <= must | optional for must, optional in families(transfers, mode)
    )


def permitted(transfers: list[Transfer], mode: str) -> Iterator[frozenset]:
    """Every durable set ``mode`` permits (no two families overlap)."""
    for must, optional in families(transfers, mode):
        free = sorted(optional)
        for size in range(len(free) + 1):
            for subset in combinations(free, size):
                yield must.union(subset)
