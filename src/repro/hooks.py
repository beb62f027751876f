"""One ledger for every hook swapped onto a live IO stack, and its installer.

The fault injector and the tracer instrument a built stack without the
fs/journal/block/storage code knowing about them: each records its
attribute swaps in a :class:`Hooks` ledger and undoes them with
:meth:`Hooks.restore`.  :func:`install` owns their order — injector, then
tracer (its ``try_submit`` wrapper sits over the injected device), then
any crash tap the caller attaches.  Every run of a spec installs them
in this order, so two runs of one spec, in this process or in a pool
worker, are bit-identical.

Hooks go in before the simulation first runs: processes hoist bound
methods into locals on their first resume (the block dispatcher caches
``device.try_submit``), so a later hook would be silently bypassed;
:func:`require_unstarted` makes that an error.
"""

from __future__ import annotations

from typing import Callable

from repro.simulation.engine import SimulationError


class Hooks:
    """A ledger of attribute swaps on live objects, undone newest first."""

    __slots__ = ("_undo",)

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def __bool__(self) -> bool:
        """Whether anything is installed and not yet restored."""
        return bool(self._undo)

    def swap(self, obj, name: str, value) -> None:
        """Bind ``obj.name = value``, remembering what it shadowed."""
        namespace = vars(obj)
        if name in namespace:
            previous = namespace[name]
            self._undo.append(lambda: setattr(obj, name, previous))
        else:
            self._undo.append(lambda: delattr(obj, name))
        setattr(obj, name, value)

    def defer(self, undo: Callable[[], None]) -> None:
        """Also run ``undo`` on :meth:`restore`, in order with the swaps."""
        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def require_unstarted(sim, what: str) -> None:
    """Raise :class:`SimulationError` if ``sim`` has already run a process."""
    if sim.started:
        raise SimulationError(
            f"{what} installed after the simulation started: processes have "
            "already cached the methods it hooks; install it right after "
            "building the stack"
        )


def install(stack, *, faults=(), seed: int = 0, tracer=None) -> Hooks:
    """Hook a freshly built ``stack``; the returned ledger's restore() unhooks it.

    ``faults`` (seeded by ``seed``) installs a
    :class:`repro.faults.FaultInjector`, ``tracer`` a
    :class:`repro.trace.Tracer`.  The filesystem needs no hook to surface
    what the injector fails: its request-error checks are always on.
    """
    require_unstarted(stack.sim, "a hook")
    hooks = Hooks()
    if faults:
        from repro.faults import FaultInjector

        hooks.defer(FaultInjector(faults, seed=seed).install(stack.device).uninstall)
    if tracer is not None:
        hooks.defer(tracer.install(stack).uninstall)
    return hooks
