"""Extraction of the four orders of Section 2.1.

The paper distinguishes the Issue order :math:`I` (requests entering the IO
scheduler), the Dispatch order :math:`D` (requests leaving it), the Transfer
order :math:`C` (DMA completions) and the Persist order :math:`P` (pages
reaching the storage surface).  :class:`OrderTracker` reconstructs all four
from a finished run so the verification module and the tests can check which
of the partial-order conditions (``I = D``, ``D = C``, ``C = P``) each stack
configuration actually preserved.  It reads the block issue log and the
device-cache history, so the stack must call ``record_history()`` before
its first IO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.block.block_device import BlockDevice
from repro.block.request import BlockRequest
from repro.storage.device import StorageDevice
from repro.storage.writeback_cache import CacheEntry


@dataclass
class OrderRecord:
    """Per-logical-block positions in each of the four orders."""

    block: object
    version: int
    issue_seq: Optional[int] = None
    issue_epoch: Optional[int] = None
    dispatch_seq: Optional[int] = None
    transfer_seq: Optional[int] = None
    persist_time: Optional[float] = None
    device_epoch: Optional[int] = None


@dataclass
class OrderTracker:
    """Reconstructs I/D/C/P orders for every written logical block."""

    block_device: BlockDevice
    storage_device: StorageDevice
    records: list[OrderRecord] = field(default_factory=list)

    def collect(self) -> list[OrderRecord]:
        """Build (and cache) the order records for the run so far."""
        request_by_id: dict[int, BlockRequest] = {}
        for request in self.block_device.issue_log:
            request_by_id[request.request_id] = request
            for merged in request.merged_requests:
                request_by_id[merged.request_id] = merged

        # Map command ids back to the block request that produced them via
        # the command tag set by the dispatcher.
        records: list[OrderRecord] = []
        for entry in self.storage_device.written_history():
            record = OrderRecord(
                block=entry.block,
                version=entry.version,
                transfer_seq=entry.transfer_seq,
                persist_time=entry.durable_time,
                device_epoch=entry.epoch,
            )
            request = self._request_for_entry(entry, request_by_id)
            if request is not None:
                record.issue_seq = request.issue_seq
                record.issue_epoch = request.issue_epoch
                record.dispatch_seq = request.dispatch_seq
            records.append(record)
        self.records = records
        return records

    def _request_for_entry(
        self, entry: CacheEntry, request_by_id: dict[int, BlockRequest]
    ) -> Optional[BlockRequest]:
        # The dispatcher tags each command with the originating request id.
        for request in request_by_id.values():
            for block in request.payload:
                if block.block == entry.block and block.version == entry.version:
                    return request
        return None

    # ------------------------------------------------------------------ orders
    def issue_order(self) -> list[OrderRecord]:
        """Records sorted by issue order (requests without one excluded)."""
        known = [record for record in self.records if record.issue_seq is not None]
        return sorted(known, key=lambda record: record.issue_seq)

    def dispatch_order(self) -> list[OrderRecord]:
        """Records sorted by dispatch order."""
        known = [record for record in self.records if record.dispatch_seq is not None]
        return sorted(known, key=lambda record: record.dispatch_seq)

    def transfer_order(self) -> list[OrderRecord]:
        """Records sorted by DMA-transfer order."""
        return sorted(self.records, key=lambda record: record.transfer_seq)

    def persist_order(self) -> list[OrderRecord]:
        """Durable records sorted by the time they reached the media."""
        durable = [record for record in self.records if record.persist_time is not None]
        return sorted(durable, key=lambda record: (record.persist_time, record.transfer_seq))

    # ------------------------------------------------------------------ epoch views
    def epochs_in_issue_order(self) -> dict[int, list[OrderRecord]]:
        """Group records by the epoch assigned at issue time."""
        groups: dict[int, list[OrderRecord]] = {}
        for record in self.issue_order():
            groups.setdefault(record.issue_epoch, []).append(record)
        return groups

    def epochs_on_device(self) -> dict[int, list[OrderRecord]]:
        """Group records by the persist epoch assigned by the device."""
        groups: dict[int, list[OrderRecord]] = {}
        for record in self.records:
            groups.setdefault(record.device_epoch, []).append(record)
        return groups
