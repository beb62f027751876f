"""Which layer of the simulator each module belongs to, and per-layer cost.

The layers are the package's own modules.  :func:`layer_of_module` maps a
dotted module name to its layer; :func:`attribute` folds a cProfile run
into per-layer self time, call counts and caller-layer -> callee-layer
edge times.  Self time of a C builtin is charged to the layer of the
Python function that called it, split by pstats' per-caller times, so the
rows of one profile sum to its total.

This module imports nothing from the simulator: it reads only module
names and file paths.
"""

from __future__ import annotations

import os
import pstats

#: The layers in report order.  ``python`` is the runtime: standard-library
#: Python code and the benchmark's own frames.
LAYERS = (
    "simulation",
    "fs",
    "fs.journal",
    "block",
    "storage",
    "apps",
    "harness",
    "crashlab",
    "python",
)

#: Layers whose live objects are counted after the timed phase.
OBJECT_LAYERS = ("simulation", "fs", "fs.journal", "block", "storage")

#: Dotted module prefix -> layer, most specific first.  A module of the
#: package that matches no prefix (faults, trace, recovery, package
#: ``__init__`` files, ...) is harness: on these workloads it only wires
#: things up.
_PREFIXES = (
    ("repro.storage.crash", "crashlab"),
    ("repro.core.verification", "crashlab"),
    ("repro.snapshot", "crashlab"),
    ("repro.crashlab", "crashlab"),
    ("repro.simulation", "simulation"),
    ("repro.fs.journal", "fs.journal"),
    ("repro.fs", "fs"),
    ("repro.block", "block"),
    ("repro.storage", "storage"),
    ("repro.apps", "apps"),
    ("repro.analysis.measure", "apps"),
    ("repro.scenarios", "harness"),
    ("repro.core.stack", "harness"),
    ("repro.experiments", "harness"),
    ("repro.analysis.reporting", "harness"),
)


def layer_of_module(module: str) -> str:
    """The layer of a dotted module name (``python`` outside the package)."""
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    if module == "repro" or module.startswith("repro."):
        return "harness"
    return "python"


def module_of_file(path: str, source_root: str) -> str:
    """Dotted module name of a ``.py`` file under ``source_root``, else ``""``."""
    prefix = source_root.rstrip(os.sep) + os.sep
    if not path.startswith(prefix) or not path.endswith(".py"):
        return ""
    names = path[len(prefix):-len(".py")].split(os.sep)
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def _is_builtin(function: tuple) -> bool:
    return function[0] == "~"


def attribute(profile, source_root: str) -> dict:
    """Per-layer self time, calls and cross-layer edge times of a profile.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "edges": [...],
    "profiled_s": total}``.  Builtins take the layer of each caller in
    proportion to the time and calls pstats records on that caller edge.
    Files under ``source_root`` are the package's; any other file is the
    runtime's.
    An edge is the cumulative time of calls from a function in one layer
    into a function of another.
    """
    stats = pstats.Stats(profile).stats
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    edges: dict[tuple[str, str], float] = {}
    total = 0.0
    layer_cache: dict[str, str] = {}

    def layer_of(function: tuple, seen: frozenset = frozenset()) -> str:
        if not _is_builtin(function):
            path = function[0]
            if path not in layer_cache:
                layer_cache[path] = layer_of_module(module_of_file(path, source_root))
            return layer_cache[path]
        # A builtin called by a builtin (a C function run by ``map`` or
        # ``sorted``) belongs where its caller spent the most time.
        callers = stats[function][4] if function in stats else {}
        candidates = [c for c in callers if c not in seen]
        if not candidates:
            return "python"
        heaviest = max(candidates, key=lambda c: callers[c][2])
        return layer_of(heaviest, seen | {function})

    for function, (_cc, calls, self_time, _cum, callers) in stats.items():
        total += self_time
        if not _is_builtin(function):
            layer = layer_of(function)
            layers[layer]["self_s"] += self_time
            layers[layer]["calls"] += calls
            for caller, (_ccc, _nc, _tt, cum) in callers.items():
                caller_layer = layer_of(caller)
                if caller_layer != layer:
                    key = (caller_layer, layer)
                    edges[key] = edges.get(key, 0.0) + cum
            continue
        remaining_time, remaining_calls = self_time, calls
        for caller, (_ccc, edge_calls, edge_time, _cum) in callers.items():
            layer = layer_of(caller, frozenset({function}))
            layers[layer]["self_s"] += edge_time
            layers[layer]["calls"] += edge_calls
            remaining_time -= edge_time
            remaining_calls -= edge_calls
        # Calls made with no profiled caller on the stack (the profiler's
        # own disable call) belong to the runtime.
        layers["python"]["self_s"] += remaining_time
        layers["python"]["calls"] += remaining_calls
    return {
        "layers": layers,
        "edges": [
            {"caller": caller, "callee": callee, "seconds": seconds}
            for (caller, callee), seconds in sorted(edges.items())
        ],
        "profiled_s": total,
    }
