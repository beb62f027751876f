"""Short constructors for hand-built block requests and device commands.

The stack builds its requests in ``BlockDevice.write``/``flush`` and its
commands in ``repro.block.dispatch``; tests that drive a scheduler, a block
device or a storage device directly build them here.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.block.request import BlockRequest, RequestFlag, RequestOp
from repro.storage.command import Command, CommandFlag, CommandKind, CommandPriority, WrittenBlock


def write_request(
    lba: int,
    num_pages: int = 1,
    *,
    payload: Optional[Iterable[WrittenBlock]] = None,
    flags: RequestFlag = RequestFlag.NONE,
    issuer: str = "app",
) -> BlockRequest:
    """A write request (default payload: one fresh block per page)."""
    return BlockRequest(
        op=RequestOp.WRITE, lba=lba, num_pages=num_pages, flags=flags,
        payload=tuple(payload or ()), issuer=issuer,
    )


def flush_request(*, issuer: str = "app") -> BlockRequest:
    """A standalone cache-flush request."""
    return BlockRequest(op=RequestOp.FLUSH, issuer=issuer)


def read_request(lba: int, num_pages: int = 1, *, issuer: str = "app") -> BlockRequest:
    """A read request."""
    return BlockRequest(op=RequestOp.READ, lba=lba, num_pages=num_pages, issuer=issuer)


def write_command(
    lba: int,
    num_pages: int,
    *,
    payload: Optional[Iterable[WrittenBlock]] = None,
    flags: CommandFlag = CommandFlag.NONE,
    priority: CommandPriority = CommandPriority.SIMPLE,
    tag: object = None,
) -> Command:
    """A write command."""
    return Command(
        kind=CommandKind.WRITE, lba=lba, num_pages=num_pages, flags=flags,
        priority=priority, payload=tuple(payload or ()), tag=tag,
    )


def read_command(lba: int, num_pages: int, *, tag: object = None) -> Command:
    """A read command."""
    return Command(kind=CommandKind.READ, lba=lba, num_pages=num_pages, tag=tag)
