"""Device-side command queue with SCSI task-attribute semantics.

The command queue is where the device-side half of the storage order is
decided.  The paper's order-preserving dispatch relies on the standard SCSI
behaviour of the three task attributes:

* ``HEAD_OF_QUEUE`` commands are serviced as soon as possible (used for
  flushes that must not sit behind queued writes).
* ``ORDERED`` commands are serviced only after every older command has been
  serviced, and no younger command may be serviced before them.
* ``SIMPLE`` commands may be serviced in any order the controller likes —
  but never ahead of an older ``ORDERED`` command.

``select_next`` implements exactly those rules; the controller's freedom for
``SIMPLE`` commands is modelled with a seeded RNG so that the "orderless"
behaviour of the legacy stack is visible (and reproducible) in tests.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Iterator, Optional

from repro.storage.command import Command, CommandPriority


class CommandQueueFullError(RuntimeError):
    """Raised when a command is inserted into a full queue."""


class CommandQueue:
    """A bounded queue of commands awaiting service by the controller."""

    def __init__(self, depth: int, *, seed: int = 0):
        if depth < 1:
            raise ValueError("command queue depth must be >= 1")
        self.depth = depth
        self._entries: "OrderedDict[int, Command]" = OrderedDict()
        self._rng = random.Random(seed)
        # Priority population counters: commands are only ever inserted and
        # removed (a queued command's priority never changes), so these let
        # ``select_next`` skip whole scans for absent priority classes.
        self._num_head = 0
        self._num_ordered = 0

    # -- capacity -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def has_space(self) -> bool:
        """Whether the device would accept another command right now."""
        return len(self._entries) < self.depth

    @property
    def occupancy(self) -> int:
        """Number of commands currently queued (the visible queue depth)."""
        return len(self._entries)

    def __iter__(self) -> Iterator[Command]:
        return iter(self._entries.values())

    # -- insertion ----------------------------------------------------------
    def try_insert(self, command: Command) -> bool:
        """Insert ``command`` if there is space; return whether it was taken."""
        if len(self._entries) >= self.depth:
            return False
        self._entries[command.command_id] = command
        priority = command.priority
        if priority is CommandPriority.HEAD_OF_QUEUE:
            self._num_head += 1
        elif priority is CommandPriority.ORDERED:
            self._num_ordered += 1
        return True

    def insert(self, command: Command) -> None:
        """Insert ``command``; raise :class:`CommandQueueFullError` if full."""
        if not self.try_insert(command):
            raise CommandQueueFullError(
                f"command queue full (depth={self.depth}) for {command.describe()}"
            )

    # -- selection ----------------------------------------------------------
    def select_next(self) -> Optional[Command]:
        """Pick (and remove) the next command to service, or ``None`` if empty.

        The selection honours the SCSI task attributes described in the
        module docstring; among equally-eligible ``SIMPLE`` commands the
        controller picks pseudo-randomly, modelling its freedom to optimise.
        """
        entries = self._entries
        if not entries:
            return None
        # Insertion order of ``entries`` *is* arrival order (commands are
        # only appended and deleted), so "oldest" is simply "first seen" and
        # every rule below is a single forward pass instead of the
        # list-building min()/filter() cascade this used to be.  The RNG
        # draws are unchanged: each ``choice`` sees the same candidate list,
        # in the same order, as the original implementation built.
        if self._num_head:
            for command in entries.values():
                if command.priority is CommandPriority.HEAD_OF_QUEUE:
                    return self._remove(command)
        if self._num_ordered:
            eligible = []
            for command in entries.values():
                priority = command.priority
                if priority is CommandPriority.ORDERED:
                    oldest_ordered = command
                    break
                if priority is CommandPriority.SIMPLE:
                    eligible.append(command)
            if not eligible:
                return self._remove(oldest_ordered)
            return self._remove(self._rng.choice(eligible))
        commands = list(entries.values())
        return self._remove(self._rng.choice(commands))

    def _remove(self, command: Command) -> Command:
        del self._entries[command.command_id]
        priority = command.priority
        if priority is CommandPriority.HEAD_OF_QUEUE:
            self._num_head -= 1
        elif priority is CommandPriority.ORDERED:
            self._num_ordered -= 1
        return command
