"""Typed error model for the storage layer.

The simulator used to signal device failures with bare ``RuntimeError``
strings, which forced callers (crashlab replay, the block-layer dispatcher)
to string-match.  This module gives every raised failure a type:

* :class:`PowerLossError` — the device lost power (a crashlab power cut).
  Still a ``RuntimeError`` subclass so legacy ``except RuntimeError`` code
  keeps working.
* :class:`DeviceBusyError` — the command queue is full.  Also kept as a
  ``RuntimeError`` subclass for compatibility with existing tests.

A command the device completes with an error status is not an exception:
the status is a plain string code on ``Command.error`` /
``BlockRequest.error`` (``"write-io-error"`` or ``"read-io-error"``) that
the block layer's retry path reads.
"""

from __future__ import annotations


class StorageError(Exception):
    """Base class for every typed storage-layer failure."""


class PowerLossError(StorageError, RuntimeError):
    """The device is powered off — a crash was injected upstream of this IO."""

    def __init__(self, message: str = "device is powered off (crashed)"):
        super().__init__(message)


class DeviceBusyError(StorageError, RuntimeError):
    """The device command queue is full (host must back off and retry)."""
