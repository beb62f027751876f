"""The workload protocol and the registry of runnable workloads.

Every workload, from the raw write+sync loop to the application models, is
a :class:`Workload` subclass with one shape:

* construct with keyword parameters; the class maps each accepted key to
  its type in ``PARAMS``, the constructor converts every given value (a
  bad one is a ``ValueError`` before anything runs), and the workload
  reads each one, with its default, through :meth:`param`;
* ``prepare(stack, scale=..., seed=...)`` binds the workload to a built
  stack (or, for raw block workloads, a device name) and fixes the
  iteration-count multiplier;
* ``warm()`` runs an optional unmeasured prefix and ``run()`` the measured
  phase, which returns a uniform :class:`WorkloadResult` with operation
  counts, elapsed simulated time and a latency recorder.

:data:`WORKLOADS` holds nine of them.  This module defines the raw
write+sync loop of :mod:`repro.analysis.measure` (``sync-loop``) and the
block-level scenarios of :mod:`repro.experiments.blocklevel`
(``blocklevel``, ``ordered-vs-buffered``); the application models of
:mod:`repro.apps` register themselves (``fxmark``, ``mysql``, ``sqlite``,
``varmail``, ``postgres-wal``, ``rocksdb-compaction``).  A workload whose
model draws random numbers derives its seed as a fixed ``SEED_OFFSET``
from the scenario seed (varmail: +7, blocklevel: +1), so the published
tables are the ones produced at the default seed of 0.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import ClassVar, Optional, TypeVar

from repro.analysis.measure import measure_sync_latency
from repro.core.stack import IOStack
from repro.scenarios.registry import Registry
from repro.simulation.stats import LatencyRecorder, LatencySummary

#: Registered workload classes, by name.
WORKLOADS: Registry[type["Workload"]] = Registry("workload")

_T = TypeVar("_T")


@dataclass
class WorkloadResult:
    """Uniform outcome of one workload run.

    ``operations`` counts whatever the workload's natural unit is (sync
    calls, inserts, transactions, filebench ops, block writes); dividing by
    the elapsed simulated time gives the throughput every figure reports.
    Workload-specific observations (context switches, queue depths, journal
    commits, ...) ride along in ``extra``.
    """

    workload: str
    operations: int
    elapsed_usec: float
    latencies: Optional[LatencyRecorder] = None
    extra: dict[str, object] = field(default_factory=dict)
    #: Device and block-layer counter snapshot taken after the run
    #: (:func:`repro.scenarios.engine.collect_device_stats`); ``None`` for
    #: workloads that build no stack.  This is what puts fault counters
    #: (io_errors, retries, requeues, power failures) into sweep rows.
    device_stats: Optional[dict[str, dict[str, object]]] = None

    @property
    def ops_per_second(self) -> float:
        """Operations per second of simulated time."""
        if self.elapsed_usec <= 0:
            return 0.0
        return self.operations / (self.elapsed_usec / 1_000_000.0)

    def latency_summary(self) -> Optional[LatencySummary]:
        """Percentile summary of the recorded latencies, if any."""
        if self.latencies is None or not len(self.latencies):
            return None
        return self.latencies.summary()


class Workload(abc.ABC):
    """Base class of the workload protocol.

    Subclasses set ``name`` (the registry key), ``PARAMS`` (the accepted
    constructor keywords, each with its type) and implement :meth:`run`.
    Workloads that drive the storage stack below the filesystem set
    ``needs_stack = False`` and receive ``stack=None`` plus the target
    device name in ``self.device``.
    """

    name: ClassVar[str] = ""
    needs_stack: ClassVar[bool] = True
    PARAMS: ClassVar[dict[str, type]] = {}
    #: Parameters that size the measured phase (:meth:`run`).  A list value
    #: given on the command line (``--param calls=[10,20]``) becomes an axis
    #: of one spec per value.
    SUFFIX_PARAMS: ClassVar[tuple[str, ...]] = ()

    def __init__(self, **params: object):
        unknown = sorted(set(params) - set(self.PARAMS))
        if unknown:
            raise ValueError(
                f"{self.name or type(self).__name__}: unknown parameters {unknown}; "
                f"accepted: {sorted(self.PARAMS)}"
            )
        self.params = {
            key: self._convert(key, value) for key, value in params.items() if value is not None
        }
        self.stack: Optional[IOStack] = None
        self.device: Optional[str] = None
        self.scale = 1.0
        self.seed = 0

    def param(self, key: str, default: _T) -> _T:
        """The parameter ``key``, or ``default`` when it is absent or ``None``.

        Explicit falsy values (``calls=0``, ``seed=0``) are honoured.
        """
        return self.params.get(key, default)

    def _convert(self, key: str, value: object) -> object:
        """``value`` converted to the type ``PARAMS`` declares for ``key``.

        A ``bool`` key is a flag, which takes ``True``/``False`` or the
        strings ``true``/``false`` in any case (``--param`` passes such words
        through as strings).  Any value that does not convert is a
        ``ValueError`` naming the workload and the key.
        """
        kind = self.PARAMS[key]
        if kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            expected = "true or false"
        else:
            try:
                return kind(value)
            except (TypeError, ValueError):
                expected = kind.__name__
        raise ValueError(f"{self.name}: parameter {key!r} expects {expected}, got {value!r}")

    def scaled(self, base: int, minimum: int) -> int:
        """The iteration count ``base`` under the current scale multiplier."""
        return max(minimum, int(base * self.scale))

    def prepare(
        self,
        stack: Optional[IOStack],
        *,
        scale: float = 1.0,
        seed: int = 0,
        device: Optional[str] = None,
    ) -> "Workload":
        """Bind the workload to a stack (or a device), a scale and a seed."""
        self.stack = stack
        self.scale = scale
        self.seed = seed
        self.device = device or (stack.config.device if stack is not None else None)
        return self

    def warm(self) -> None:
        """Run the unmeasured warmup prefix (default: nothing).

        Called exactly once, after :meth:`prepare` and before :meth:`run`.
        """

    @abc.abstractmethod
    def run(self) -> WorkloadResult:
        """Execute the workload's measured phase and return its result."""


@WORKLOADS.register("sync-loop")
class SyncLoopWorkload(Workload):
    """The raw "write N pages then sync" loop of Table 1 and Figs. 8/11/12."""

    name = "sync-loop"
    PARAMS = {
        "calls": int,
        "sync_call": str,
        "allocating": bool,
        "pages_per_write": int,
        "warmup_calls": int,
    }
    SUFFIX_PARAMS = ("calls",)

    def __init__(self, **params: object):
        super().__init__(**params)
        self.allocating = self.param("allocating", True)
        self.pages_per_write = self.param("pages_per_write", 1)
        self.warmup_calls = self.param("warmup_calls", 0)

    @property
    def sync_call(self) -> str:
        """The sync call under test (default: the stack config's)."""
        return self.param("sync_call", self.stack.config.sync_call)

    def warm(self) -> None:
        """Run ``warmup_calls`` unmeasured write+sync iterations.

        The warmup loop drives a separate file but the same stack, so the
        journal, writeback cache and device queues reach their steady state
        before the measured loop starts.
        """
        if self.warmup_calls <= 0:
            return
        measure_sync_latency(
            self.stack,
            calls=self.warmup_calls,
            sync_call=self.sync_call,
            allocating=self.allocating,
            pages_per_write=self.pages_per_write,
            file_name="warmup.dat",
        )

    def run(self) -> WorkloadResult:
        stack = self.stack
        sync_call = self.sync_call
        loop = measure_sync_latency(
            stack,
            calls=self.param("calls", self.scaled(200, 50)),
            sync_call=sync_call,
            allocating=self.allocating,
            pages_per_write=self.pages_per_write,
        )
        extra: dict[str, object] = {
            "sync_call": sync_call,
            "context_switches": loop.context_switches_per_call,
            "journal_commits": stack.fs.stats.journal_commits,
        }
        if loop.stopped_by is not None:
            extra["stopped_by"] = loop.stopped_by
        if stack.config.track_queue_depth:
            extra["avg_qd"] = stack.device.stats.queue_depth.mean(now=stack.sim.now)
            extra["max_qd"] = stack.device.stats.queue_depth.peak
        return WorkloadResult(
            workload=self.name,
            operations=loop.calls,
            elapsed_usec=loop.elapsed_usec,
            latencies=loop.latencies,
            extra=extra,
        )


@WORKLOADS.register("blocklevel")
class BlockLevelScenario(Workload):
    """Raw 4 KiB random writes against the block device (Figs. 9 and 10).

    Runs one of the XnF / X / B / P ordering schemes; no filesystem stack is
    built (``config`` is ignored and may be ``None``).
    """

    name = "blocklevel"
    needs_stack = False
    PARAMS = {"scenario": str, "num_writes": int, "working_set_pages": int, "seed": int}

    #: Default seed of ``run_scenario``, added to the scenario seed.
    SEED_OFFSET = 1

    def run(self) -> WorkloadResult:
        from repro.experiments.blocklevel import run_scenario

        outcome = run_scenario(
            self.param("scenario", "B"),
            self.device,
            num_writes=self.param("num_writes", self.scaled(500, 60)),
            working_set_pages=self.param("working_set_pages", 1 << 16),
            seed=self.param("seed", self.seed + self.SEED_OFFSET),
        )
        return WorkloadResult(
            workload=self.name,
            operations=outcome.writes,
            elapsed_usec=outcome.elapsed_usec,
            extra={
                "scenario": outcome.scenario,
                "kiops": outcome.kiops,
                "avg_qd": outcome.mean_queue_depth,
                "max_qd": outcome.max_queue_depth,
            },
        )


@WORKLOADS.register("ordered-vs-buffered")
class OrderedVsBufferedScenario(Workload):
    """Fig. 1's ratio: write()+fdatasync() IOPS over buffered write() IOPS."""

    name = "ordered-vs-buffered"
    needs_stack = False
    PARAMS = {"num_writes": int}

    def run(self) -> WorkloadResult:
        from repro.experiments.blocklevel import ordered_vs_buffered_ratio

        num_writes = self.param("num_writes", self.scaled(240, 40))
        ordered_iops, buffered_iops, ratio = ordered_vs_buffered_ratio(
            self.device, num_writes=num_writes
        )
        return WorkloadResult(
            workload=self.name,
            operations=num_writes,
            elapsed_usec=0.0,
            extra={
                "ordered_iops": ordered_iops,
                "buffered_iops": buffered_iops,
                "ratio_percent": ratio,
            },
        )


# The application models register themselves; importing them last lets
# ``repro.apps`` and ``repro.scenarios`` each be imported first.
import repro.apps  # noqa: E402,F401
