"""Fork checkpoints: warm-start prefixes and mid-run crash-replay points.

The simulation state worth resuming — the event heap, the live generator
frames of every simulated process, and all RNG streams — cannot be
pickled, but a fork's copy-on-write image captures it exactly, and a
forked copy continues the simulation bit-identically to a run that never
forked.  This module has one fork path: :meth:`CheckpointStore.take`
freezes the running process as a live child, and
:meth:`Checkpoint.request` sends it a pickled request plus the write end
of a fresh result pipe (``socket.send_fds``).  The child forks a
grandchild that resumes the frozen frames with the request applied and
hands its result to :func:`deliver_result`; the requester reads it with
:func:`receive_result`.  Platforms without ``os.fork``/``send_fds``
report :func:`checkpoint_supported` false and callers run from scratch —
results are identical either way.

Two callers use it.  Warm-start sweeps (:func:`run_specs_warm_start`)
group specs that agree on everything but the workload's ``SUFFIX_PARAMS``
(parameters only the measured phase reads, e.g. ``calls`` for
sync-loop); :func:`run_group` runs the shared warmup once, takes one
checkpoint at the end of ``warm()`` and requests one continuation per
spec, so sweep wall-clock scales with the varying suffix (pinned
bit-identical by ``tests/scenarios/test_warm_start.py``).  Crash
exploration (:mod:`repro.crashlab`) freezes a pool of checkpoints at
boundaries a :class:`CheckpointPolicy` schedules during one recording
run, so replaying to crash point *i* costs O(delta from the nearest
checkpoint) instead of O(i).
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.scenarios.engine import (
    ScenarioOutcome,
    collect_device_stats,
    prepare_spec,
    run_spec,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import WORKLOADS


class SnapshotForkError(RuntimeError):
    """A forked continuation failed, or died before delivering its result."""


def checkpoint_supported() -> bool:
    """Whether this platform can keep re-forkable checkpoints.

    Beyond ``os.fork``, the protocol passes each result pipe to the frozen
    child over a Unix socket, so ``socket.send_fds`` / ``recv_fds``
    (POSIX ``SCM_RIGHTS``) must exist too.
    """
    import socket

    return hasattr(os, "fork") and hasattr(socket, "send_fds") and hasattr(socket, "recv_fds")


#: Exit status of a continuation that relayed a failure.
_FAILED_STATUS = 1


def deliver_result(result_fd: int, compute) -> None:
    """Continuation side: pipe ``("ok", compute())`` or ``("err", text)``, exit.

    Never returns, so a continuation can never fall back into the control
    flow it inherited.
    """
    status = _FAILED_STATUS
    try:
        try:
            payload = pickle.dumps(("ok", compute()), protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        except BaseException as exc:  # noqa: BLE001 - relayed to the parent
            payload = pickle.dumps(("err", f"{type(exc).__name__}: {exc}"))
        with os.fdopen(result_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)


def receive_result(read_fd: int, what: str):
    """Requester side: the delivered value, or ``None`` if nothing arrived.

    A relayed failure raises :class:`SnapshotForkError` naming ``what``.
    """
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    if not payload:
        return None
    kind, value = pickle.loads(payload)
    if kind != "ok":
        raise SnapshotForkError(
            f"{what} failed (exited with status {_FAILED_STATUS}): {value}"
        )
    return value


def warm_group_key(spec: ScenarioSpec) -> tuple:
    """Hashable key identifying the warm prefix a spec would replay.

    Two specs with equal keys build identical stacks and run identical
    warmup phases; they may differ only in suffix parameters and display
    label.  Param values are rendered with ``repr`` so unhashable literals
    (lists) still key correctly.
    """
    suffix = set(WORKLOADS.get(spec.workload).SUFFIX_PARAMS)
    shared_params = tuple(
        sorted((key, repr(value)) for key, value in spec.params.items() if key not in suffix)
    )
    return (
        spec.workload,
        spec.config,
        spec.device,
        spec.scheduler,
        spec.barrier_mode,
        spec.seed,
        spec.scale,
        tuple(sorted((k, repr(v)) for k, v in spec.stack_overrides.items())),
        spec.faults,
        shared_params,
    )


def group_specs(specs: Sequence[ScenarioSpec]) -> list[list[int]]:
    """Partition spec indices into warm-prefix groups, preserving order.

    Groups are keyed by :func:`warm_group_key`; specs of workloads without
    a warm/measure split each form their own singleton group.
    """
    groups: dict[object, list[int]] = {}
    order: list[object] = []
    for index, spec in enumerate(specs):
        workload_class = WORKLOADS.get(spec.workload)
        if workload_class.SUFFIX_PARAMS:
            key = warm_group_key(spec)
        else:
            key = ("__singleton__", index)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    return [groups[key] for key in order]


def _strip_suffix_params(spec: ScenarioSpec) -> ScenarioSpec:
    suffix = set(WORKLOADS.get(spec.workload).SUFFIX_PARAMS)
    shared = {key: value for key, value in spec.params.items() if key not in suffix}
    return replace(spec, params=shared)


def run_group(specs: Sequence[ScenarioSpec]) -> list[ScenarioOutcome]:
    """Run one warm-prefix group: shared warmup once, then one fork per spec.

    The warmed process is frozen as a single checkpoint; each spec's
    measured phase runs in a continuation forked from it.
    """
    spec_list = list(specs)
    workload_class = WORKLOADS.get(spec_list[0].workload)
    # Surface bad parameters before any fork hides the traceback.
    for spec in spec_list:
        workload_class(**dict(spec.params))
    if (
        len(spec_list) == 1
        or not workload_class.SUFFIX_PARAMS
        or not checkpoint_supported()
    ):
        if len(spec_list) > 1 and workload_class.SUFFIX_PARAMS:
            # The group *wanted* a shared prefix (several specs, declared
            # warm/measure split) but the platform cannot fork: say so
            # instead of silently running every cell from scratch.
            warnings.warn(
                f"warm-start group {spec_list[0].describe()!r} "
                f"({len(spec_list)} specs) fell back to from-scratch runs: "
                "fork checkpoints are unavailable on this platform",
                RuntimeWarning,
                stacklevel=2,
            )
        return [run_spec(spec) for spec in spec_list]
    workload = prepare_spec(_strip_suffix_params(spec_list[0]))
    workload.warm()
    store = CheckpointStore(CheckpointPolicy(budget=1))
    grant = store.take(0, 0.0)
    if grant is not None:
        # A continuation: adopt the spec's full parameter set (the warmed
        # workload was built without the suffix params) and run the
        # measured phase.
        params, result_fd = grant

        def measure():
            workload.params = params
            result = workload.run()
            result.device_stats = collect_device_stats(workload.stack)
            return result

        deliver_result(result_fd, measure)
    with store:
        checkpoint = store.nearest(0)
        outcomes = []
        for spec in spec_list:
            what = f"forked run of spec {spec.display_label!r} ({spec.describe()})"
            result = receive_result(checkpoint.request(dict(spec.params)), what)
            if result is None:
                raise SnapshotForkError(f"{what} died without delivering a result")
            outcomes.append(ScenarioOutcome(spec=spec, result=result))
        return outcomes


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to freeze a checkpoint during a recording run.

    A checkpoint is due at the first scheduling opportunity (index 0) and
    thereafter whenever ``every`` opportunities have passed since the last
    one **or** — when ``interval`` is non-zero — the simulation clock has
    advanced by at least ``interval`` since the last one.  ``budget`` caps
    the live child pool; exceeding it evicts the least-recently-used
    checkpoint (during recording nothing has been used yet, so the earliest
    taken goes first — exploration of points below the evicted index falls
    back to the nearest survivor, or to a from-scratch replay).
    """

    every: int = 32
    interval: float = 0.0
    budget: int = 64

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"checkpoint spacing must be at least 1, got {self.every}")
        if self.budget < 1:
            raise ValueError(f"checkpoint budget must be at least 1, got {self.budget}")


class Checkpoint:
    """One live fork child, frozen mid-run, re-forkable on request."""

    __slots__ = ("index", "time", "pid", "sock", "lock")

    def __init__(self, index: int, time: float, pid: int, sock) -> None:
        self.index = index
        self.time = time
        self.pid = pid
        self.sock = sock
        #: Serialises the send/ack handshake so concurrent requesters (the
        #: ``jobs > 1`` thread pool) cannot interleave messages on the
        #: stream socket; the delta replays themselves run concurrently in
        #: the grandchildren.
        self.lock = threading.Lock()

    def request(self, request) -> int:
        """Ask the frozen child to fork a continuation for ``request``.

        ``request`` is any picklable value; the continuation receives it
        as the grant :meth:`CheckpointStore.take` returns.  Returns the
        read end of a fresh result pipe for :func:`receive_result`; the
        grandchild holds the only surviving write end, so reading to EOF
        yields exactly its delivered result (or nothing, if it died).
        """
        import socket as socket_module

        payload = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        read_fd, write_fd = os.pipe()
        try:
            with self.lock:
                socket_module.send_fds(self.sock, [payload], [write_fd])
                acknowledged = self.sock.recv(1)
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        os.close(write_fd)
        if not acknowledged:
            os.close(read_fd)
            raise SnapshotForkError(
                f"checkpoint child at boundary {self.index} (pid {self.pid}) "
                "hung up instead of acknowledging a replay request"
            )
        return read_fd

    def close(self) -> None:
        """Retire the child: EOF on its socket makes it exit; reap it."""
        if self.sock is None:
            return
        self.sock.close()
        self.sock = None
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # pragma: no cover - already reaped
            pass


def _serve_checkpoint(sock):
    """Run a frozen checkpoint child's request loop (never returns normally).

    Each request forks a grandchild; the *grandchild* returns from this
    function with ``(request, result_fd)`` so the caller's stack — the
    paused simulation — resumes with the request applied.  The child itself
    loops until the exploring parent closes the socket, then exits.
    """
    import signal
    import socket as socket_module

    # Grandchildren deliver their results over their own pipes; auto-reap
    # them so finished replays never accumulate as zombies.
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    while True:
        try:
            message, fds, _flags, _address = socket_module.recv_fds(sock, 65_536, 1)
        except OSError:
            os._exit(0)
        if not message:
            os._exit(0)  # parent closed the socket: checkpoint retired
        pid = os.fork()
        if pid == 0:
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            return pickle.loads(message), fds[0]
        for fd in fds:
            os.close(fd)
        try:
            # Ack only after the fork: the parent holds this checkpoint's
            # lock until the ack, so at most one request is ever in flight
            # on the stream socket and messages can never coalesce.
            sock.send(b"\x01")
        except OSError:
            os._exit(0)


class CheckpointStore:
    """A bounded pool of live checkpoints taken during one recording run.

    The recording process calls :meth:`due`/:meth:`take` from inside its
    observation hook; exploration then calls :meth:`nearest` (LRU-marking)
    and :meth:`Checkpoint.request` per point, and :meth:`close` when done.
    ``take`` returns ``None`` in the recording process — and returns the
    ``(request, result_fd)`` grant inside every replay grandchild that
    later resumes from that checkpoint, which is the signal for the caller
    to switch from recording to replaying.
    """

    def __init__(self, policy: CheckpointPolicy) -> None:
        self.policy = policy
        self._live: "OrderedDict[int, Checkpoint]" = OrderedDict()
        self._lock = threading.Lock()
        self._last_index: Optional[int] = None
        self._last_time: Optional[float] = None
        self.taken = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._live)

    def indices(self) -> list[int]:
        """Live checkpoint indices, in ascending boundary order."""
        return sorted(self._live)

    def due(self, index: int, time: float) -> bool:
        """Whether the policy schedules a checkpoint at this opportunity."""
        if self._last_index is None:
            return True
        if index - self._last_index >= self.policy.every:
            return True
        return bool(self.policy.interval) and time - self._last_time >= self.policy.interval

    def take(self, index: int, time: float):
        """Freeze the current process state as the checkpoint at ``index``.

        In the recording process: forks the frozen child, registers it
        (evicting over-budget LRU children) and returns ``None``.  In a
        grandchild forked later to service a replay request: returns that
        request's ``(request, result_fd)`` grant.
        """
        import socket as socket_module

        parent_sock, child_sock = socket_module.socketpair()
        pid = os.fork()
        if pid == 0:
            parent_sock.close()
            # Drop inherited parent-side sockets of earlier checkpoints:
            # a surviving copy here would keep their children alive past
            # close() and hang the final reap.
            for checkpoint in self._live.values():
                if checkpoint.sock is not None:
                    checkpoint.sock.close()
            self._live.clear()
            grant = _serve_checkpoint(child_sock)
            child_sock.close()
            return grant
        child_sock.close()
        with self._lock:
            self._live[index] = Checkpoint(index, time, pid, parent_sock)
            self.taken += 1
            self._last_index = index
            self._last_time = time
            while len(self._live) > self.policy.budget:
                _, victim = self._live.popitem(last=False)
                victim.close()
                self.evicted += 1
        return None

    def nearest(self, index: int) -> Optional[Checkpoint]:
        """The live checkpoint at the greatest boundary ``<= index``."""
        with self._lock:
            best = None
            for taken_index in self._live:
                if taken_index <= index and (best is None or taken_index > best):
                    best = taken_index
            if best is None:
                return None
            self._live.move_to_end(best)
            return self._live[best]

    def close(self) -> None:
        """Retire every live checkpoint child and reap it."""
        with self._lock:
            while self._live:
                _, checkpoint = self._live.popitem(last=False)
                checkpoint.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_specs_warm_start(
    specs: Sequence[ScenarioSpec], *, jobs: int = 1
) -> list[ScenarioOutcome]:
    """Warm-start equivalent of :func:`repro.scenarios.engine.run_specs`.

    Outcomes come back in spec order with contents identical to the
    from-scratch path; with ``jobs > 1`` whole groups are sharded across
    worker processes (each worker forks its own group members).
    """
    spec_list = list(specs)
    groups = group_specs(spec_list)
    grouped_specs = [[spec_list[index] for index in group] for group in groups]
    if jobs <= 1 or len(grouped_specs) <= 1:
        group_outcomes = [run_group(group) for group in grouped_specs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(grouped_specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            group_outcomes = list(pool.map(run_group, grouped_specs))
    outcomes: list[ScenarioOutcome] = [None] * len(spec_list)  # type: ignore[list-item]
    for group, results in zip(groups, group_outcomes):
        for index, outcome in zip(group, results):
            outcomes[index] = outcome
    return outcomes
