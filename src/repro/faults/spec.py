"""Declarative fault plans.

A :class:`FaultSpec` names one fault *kind* plus a trigger: either a
per-eligible-site probability or an explicit ``nth``-site trigger.  A
:class:`FaultPlan` bundles several specs with the seed that derives each
spec's private random stream.  Both are frozen, hashable and picklable so
they can ride on :class:`repro.scenarios.spec.ScenarioSpec` across process
boundaries (the crashlab ``--jobs`` cell pool) without losing determinism.

This module is stdlib-only on purpose: the scenario and verification layers
import it without pulling in the injector (which needs the storage layer).

Plan syntax (accepted anywhere a fault can be named — ``--fault`` flags,
``ScenarioSpec(faults=...)``, ``sweep(faults=...)``)::

    KIND[:key=value[,key=value...]]

    torn-write                  # fire at every program batch (p defaults to 1)
    torn-write:p=0.25           # fire at each batch with probability 0.25
    misdirected-write:nth=3     # fire at exactly the 3rd batch
    flush-lie:p=0.5,max=2,seed=7
    io-error:nth=2,op=write     # 2nd write command completes with an error

Keys: ``p``/``probability`` (float in [0, 1]), ``nth`` (1-based site index,
mutually exclusive with ``p``), ``max``/``max_fires`` (stop after N fires),
``seed`` (per-spec stream override), ``op`` (``write``/``read`` site filter,
``io-error`` only).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Union

#: Fault kinds, in documentation order.
FAULT_KINDS = (
    "torn-write",
    "misdirected-write",
    "dropped-write",
    "flush-lie",
    "latent-read-error",
    "io-error",
)

#: Kinds injected at the flash-program site (they damage media pages).
MEDIA_KINDS = ("torn-write", "misdirected-write", "dropped-write", "latent-read-error")

_ALIASES = {
    "torn": "torn-write",
    "misdirected": "misdirected-write",
    "dropped": "dropped-write",
    "drop": "dropped-write",
    "latent": "latent-read-error",
    "latent-read": "latent-read-error",
    "flush-lie": "flush-lie",
    "lying-flush": "flush-lie",
    "io-error": "io-error",
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind plus its trigger and site predicate."""

    kind: str
    #: Per-eligible-site fire probability.  ``None`` with ``nth`` unset means
    #: 1.0 — fire at every eligible site.
    probability: Optional[float] = None
    #: Fire at exactly this (1-based) eligible site instead of randomly.
    nth: Optional[int] = None
    #: Stop firing after this many injections.
    max_fires: Optional[int] = None
    #: Override the derived per-spec random stream seed.
    seed: Optional[int] = None
    #: Site filter for ``io-error``: which command kind fails.
    op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: {', '.join(FAULT_KINDS)}"
            )
        if self.probability is not None and self.nth is not None:
            raise ValueError("a fault trigger is either probabilistic (p=) or "
                             "positional (nth=), not both")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.probability}")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be >= 1")
        if self.op is not None:
            if self.kind != "io-error":
                raise ValueError("op= is only meaningful for io-error faults")
            if self.op not in ("write", "read"):
                raise ValueError(f"op must be 'write' or 'read', got {self.op!r}")

    @property
    def effective_probability(self) -> Optional[float]:
        """The probability actually used (default 1.0 when no nth trigger)."""
        if self.nth is not None:
            return None
        return 1.0 if self.probability is None else self.probability

    @property
    def label(self) -> str:
        """Canonical one-token rendering (inverse of :func:`parse_fault`)."""
        parts = []
        if self.probability is not None:
            parts.append(f"p={self.probability:g}")
        if self.nth is not None:
            parts.append(f"nth={self.nth}")
        if self.max_fires is not None:
            parts.append(f"max={self.max_fires}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.op is not None:
            parts.append(f"op={self.op}")
        return self.kind if not parts else f"{self.kind}:{','.join(parts)}"

    def stream(self, plan_seed: int, index: int) -> random.Random:
        """The private random stream of this spec within a plan.

        Seeded from a string so the derivation is stable across processes
        (``PYTHONHASHSEED`` does not affect ``random.Random(str)``); the
        index keeps two identical specs in one plan on distinct streams.
        """
        seed = self.seed if self.seed is not None else plan_seed
        return random.Random(f"{seed}/{index}/{self.kind}")


FaultLike = Union[FaultSpec, str, dict]


def parse_fault(text: str) -> FaultSpec:
    """Parse the ``KIND[:key=value,...]`` plan syntax into a spec."""
    text = text.strip()
    kind_text, _, option_text = text.partition(":")
    kind = kind_text.strip().lower().replace("_", "-")
    kind = _ALIASES.get(kind, kind)
    options: dict[str, object] = {}
    if option_text:
        for token in option_text.split(","):
            token = token.strip()
            if not token:
                continue
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"malformed fault option {token!r} in {text!r} "
                                 "(expected key=value)")
            key = key.strip().lower()
            value = value.strip()
            if key in ("p", "probability"):
                options["probability"] = float(value)
            elif key == "nth":
                options["nth"] = int(value)
            elif key in ("max", "max_fires"):
                options["max_fires"] = int(value)
            elif key == "seed":
                options["seed"] = int(value)
            elif key == "op":
                options["op"] = value.lower()
            else:
                raise ValueError(f"unknown fault option {key!r} in {text!r}")
    return FaultSpec(kind=kind, **options)


def coerce_fault(value: FaultLike) -> FaultSpec:
    """Accept a spec, plan-syntax string, or keyword dict."""
    if isinstance(value, FaultSpec):
        return value
    if isinstance(value, str):
        return parse_fault(value)
    if isinstance(value, dict):
        return FaultSpec(**value)
    raise TypeError(f"cannot interpret {value!r} as a fault spec")


def coerce_faults(values: Union[FaultLike, Iterable[FaultLike], None]) -> tuple[FaultSpec, ...]:
    """Normalise a user-facing ``faults`` value into a tuple of specs."""
    if values is None:
        return ()
    if isinstance(values, (FaultSpec, str, dict)):
        values = (values,)
    return tuple(coerce_fault(value) for value in values)


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault specs plus the seed deriving their random streams."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", coerce_faults(self.specs))

    @property
    def label(self) -> str:
        """Canonical rendering of the whole plan (``-`` when empty)."""
        return "+".join(spec.label for spec in self.specs) if self.specs else "-"


def plan_label(faults: Iterable[FaultSpec]) -> str:
    """Render a sequence of specs the way reports display them."""
    faults = tuple(faults)
    return "+".join(spec.label for spec in faults) if faults else "-"
