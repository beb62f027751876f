"""Discrete-event simulation engine underlying the barrier-enabled IO stack.

The engine is a small, deterministic, generator-based discrete-event
simulator in the spirit of SimPy.  Host threads (application threads, the
JBD/commit/flush threads, the pdflush daemon), the block-layer dispatcher and
the storage controller are all modelled as :class:`Process` coroutines that
``yield`` :class:`Event` objects (IO completions, timeouts, queued items).
A process that only waits for simulated time to pass yields
``sim.sleep(delay)`` instead: the same wake-up as ``sim.timeout(delay)``
(same sequence numbers, tie order and context switch), with no Event built.
A :class:`Condition` wait parks the process the same way, with an optional
deadline (``cond.wait(timeout)``) that replaces the ``any_of`` of a wait
and a timeout.  ``timeout`` remains for waits that need an Event object
(composed waits, completions handed to other code such as a flash program
round).

Time is measured in **microseconds** throughout the code base; the unit is
exposed as :data:`USEC`, :data:`MSEC` and :data:`SEC` for readability.

The simulator also accounts for *context switches*: every time a process
blocks on an event that has not yet triggered and is later woken up, the
wake-up is counted and (optionally) charged ``context_switch_cost``
microseconds.  This is what lets the reproduction report the
context-switch-per-fsync numbers of Fig. 11 of the paper.

The kernel holds only what the stack runs on: events and their
``all_of``/``any_of`` compositions, processes, timed sleeps, broadcast
conditions and one FIFO store.  :meth:`Simulator.run` and
:meth:`Simulator.run_until_complete` share one dispatch loop.
"""

from repro.simulation.engine import (
    USEC,
    MSEC,
    SEC,
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simulation.history import HistoryNotRecordedError
from repro.simulation.resources import Condition, Store
from repro.simulation.stats import (
    LatencyRecorder,
    TimeSeries,
    TimeWeightedStat,
    percentile,
)

__all__ = [
    "USEC",
    "MSEC",
    "SEC",
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "HistoryNotRecordedError",
    "LatencyRecorder",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeSeries",
    "TimeWeightedStat",
    "Timeout",
    "percentile",
]
