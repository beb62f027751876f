"""Remount: bring a fresh stack up on a recovered image.

:func:`remount` is the crash-to-continuation bridge: it builds the stack
the spec describes (fresh simulator, fresh journal — transaction ids
restart at 1, exactly like a real remount) and seeds it with the
:class:`~repro.recovery.image.RecoveredImage`:

* inodes are readopted under their pre-crash numbers, ascending, so the
  LBA extents line up and post-remount files get fresh numbers; the
  recovered size is each one's preallocation baseline and the recovered
  page versions its ``page_versions``;
* the durable data pages are admitted to the device cache as an
  already-durable baseline **and replayed into the FTL log** — skipping
  the log would make the next in-order-recovery scan lose the baseline,
  since that mode recovers only what the log prefix reaches;
* the spec's fault plan is reinstalled through
  :func:`repro.hooks.install` (same plan, same seed — the storage did not
  get healthier by rebooting); the filesystem's always-on request-error
  checks surface what it fails as :class:`~repro.fs.errors.EIOError`.

Only data blocks are seeded.  Journal blocks must not be: the fresh
journal reuses txids from 1 and seeded ``("jc", 1)``-style blocks would
collide with the continuation's own commits.
"""

from __future__ import annotations

from repro.core.stack import IOStack
from repro.fs.inode import grow_versions
from repro.hooks import install
from repro.recovery.image import RecoveredImage
from repro.storage.command import WrittenBlock


def remount(image: RecoveredImage, spec) -> IOStack:
    """Build ``spec``'s stack and seed it with ``image``; return it live."""
    from repro.scenarios.engine import build_spec_stack

    stack = build_spec_stack(spec)
    # The judge recovers this stack again after the continuation.
    stack.record_history()
    install(stack, faults=spec.faults, seed=spec.seed)

    blocks: list[WrittenBlock] = []
    for entry in sorted(image.files, key=lambda f: f.inode_no):
        inode = stack.fs.adopt_inode(
            entry.name, entry.inode_no, size_pages=entry.size_pages
        )
        # What recovery produced is the new acked baseline: it is on media
        # by construction, and the continuation's own syncs move the
        # high-water mark from here.
        inode.synced_size_pages = entry.size_pages
        versions = inode.page_versions
        for page, version in entry.durable_pages:
            # Ascending pages below the size: the write path's growth rule.
            grow_versions(versions, page)
            versions.append(version)
            blocks.append(
                WrittenBlock(block=inode.data_block_name(page), version=version)
            )

    if blocks:
        device = stack.device
        entries = device.cache.admit(
            blocks, epoch=0, time=0.0, command_id=0, durable_immediately=True
        )
        if device.ftl is not None:
            pages = device.ftl.append_batch(entries)
            device.ftl.mark_programmed(pages, 0.0)
    return stack
