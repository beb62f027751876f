"""Deterministic storage fault injection (``repro.faults``).

Real flash devices fail in richer ways than a clean power cut: they tear
multi-page program operations, misdirect writes to the wrong physical page,
silently drop writes, acknowledge flushes they never perform, and develop
latent sector errors that only surface when the page is read back.  This
package turns each of those into a declarative, seeded, bit-reproducible
injection that composes with crash exploration (:mod:`repro.crashlab`):

* :mod:`repro.faults.spec` — :class:`FaultSpec`/:class:`FaultPlan` and the
  ``KIND[:key=value,...]`` plan syntax (stdlib-only, importable anywhere);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the hook object a
  :class:`~repro.storage.device.StorageDevice` consults at its injection
  sites, plus the :class:`FaultEvent` witness log.

Scenario integration: ``ScenarioSpec(faults=...)`` carries a plan through
sweeps and crashlab, ``runner check --fault`` drives crash points × fault plans
through the oracle registry, and ``runner sweep --fault`` runs the
experiment matrix under injection.  See ``docs/FAULTS.md``.
"""

from repro.faults.injector import FaultEvent, FaultInjector
from repro.faults.spec import (
    FAULT_KINDS,
    MEDIA_KINDS,
    FaultPlan,
    FaultSpec,
    coerce_fault,
    coerce_faults,
    parse_fault,
    plan_label,
)

__all__ = [
    "FAULT_KINDS",
    "MEDIA_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "coerce_fault",
    "coerce_faults",
    "parse_fault",
    "plan_label",
]
