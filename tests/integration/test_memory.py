"""The steady-state IO path leaves no garbage and keeps no crash history.

A sync call must not leave reference cycles behind (they cost a garbage
collection pass), and a stack that never called ``record_history()`` must
not grow with the run: every event, request, command and transaction of a
finished call is freed by reference counting alone, the storage layer
(cache entries, FTL log) keeps nothing per programmed page, and a file
keeps only its dense page versions (no inode size log).
"""

import gc
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.measure import measure_sync_latency
from repro.block.request import BlockRequest
from repro.core import build_stack, standard_config
from repro.core.verification import CrashProbe, journal_transactions
from repro.fs.journal.transaction import JournalTransaction
from repro.recovery.image import capture_image
from repro.scenarios.stacks import STACK_CONFIGS
from repro.simulation import MSEC, Event, HistoryNotRecordedError, SimulationError
from repro.storage import BarrierMode
from repro.storage.command import Command
from repro.storage.crash import recover_durable_blocks

#: (stack configuration, sync call): the BFS-DR and EXT4-DR fsync loops and
#: the BFS-OD fdatabarrier loop.
LOOPS = [("BFS-DR", "fsync"), ("EXT4-DR", "fsync"), ("BFS-OD", "fdatabarrier")]

TRACKED = (Event, BlockRequest, Command, JournalTransaction)

#: Every (stack configuration, barrier mode) whose sync loop runs fsync on
#: plain-ssd (a barrier-enabled stack needs a barrier-capable mode).
FSYNC_STACKS = [
    (name, mode)
    for name in STACK_CONFIGS.names()
    if (config := standard_config(name)).sync_call == "fsync"
    for mode in BarrierMode
    if mode.supports_barrier or config.filesystem != "barrierfs"
]


def _sync_loop(stack, sync_call, calls, name):
    measure_sync_latency(stack, calls=calls, sync_call=sync_call, file_name=name)
    # fdatabarrier returns before its requests complete, and the device
    # flusher leaves timers pending: let both run out so that every count
    # sees the same quiescent stack.
    stack.run_process(stack.block.drain())
    stack.sim.run(until=stack.sim.now + 100 * MSEC)


def _live_counts():
    gc.collect()
    counts = Counter()
    for obj in gc.get_objects():
        for cls in TRACKED:
            if isinstance(obj, cls):
                counts[cls.__name__] += 1
    return counts


@pytest.mark.parametrize("config,sync_call", LOOPS)
def test_sync_loop_leaves_no_reference_cycles(config, sync_call):
    stack = build_stack(standard_config(config, "plain-ssd"))
    gc.collect()
    gc.disable()
    try:
        _sync_loop(stack, sync_call, 200, "loop.dat")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("config,sync_call", LOOPS)
def test_live_objects_do_not_grow_without_history(config, sync_call):
    stack = build_stack(standard_config(config, "plain-ssd"))
    _sync_loop(stack, sync_call, 200, "first.dat")
    after_200 = _live_counts()
    _sync_loop(stack, sync_call, 200, "second.dat")
    assert _live_counts() == after_200


def _live_storage_objects():
    gc.collect()
    return sum(
        1 for obj in gc.get_objects()
        if type(obj).__module__.startswith("repro.storage")
    )


@pytest.mark.parametrize(
    "config,mode", FSYNC_STACKS, ids=[f"{c}-{m.value}" for c, m in FSYNC_STACKS]
)
def test_storage_objects_do_not_grow_without_history(config, mode):
    # The in-order-recovery FTL log is crash history too: a plain run must
    # not keep a log entry per programmed page.
    stack = build_stack(standard_config(config, "plain-ssd", barrier_mode=mode))
    _sync_loop(stack, "fsync", 400, "first.dat")
    after_400 = _live_storage_objects()
    _sync_loop(stack, "fsync", 400, "second.dat")
    assert _live_storage_objects() == after_400


#: Bytes a plain run may keep per allocating one-page sync call on one
#: growing file: its 4-byte page version plus the amortised growth of the
#: bounded sets and arrays the run reuses.  An inode size-log entry per
#: call (~100 B) or a dict entry per page version (~70 B) fails it.
RETAINED_BYTES_PER_CALL = 48


def retained_bytes_per_call(config: str, sync_call: str, calls: int) -> float:
    """Heap bytes a plain run keeps per sync call on one growing file.

    Runs ``calls`` and then ``calls`` more allocating one-page write+sync
    calls on one file of a plain-ssd stack without ``record_history()``,
    each half drained (requests, then the flusher's timers), and returns
    the growth of the traced heap (:mod:`tracemalloc`, after a collection)
    over the second half, per call.  What is left is what the run keeps
    per call: file state (one page version per written page) and any
    history a plain run should not keep.  A count, not a timing: the same
    interpreter build gives the same value.
    """
    stack = build_stack(standard_config(config, "plain-ssd"))
    fs = stack.fs
    sync = getattr(fs, sync_call)
    handle = fs.create("retained.dat")

    def loop():
        for _ in range(calls):
            fs.write(handle, 1)
            yield from sync(handle, issuer="bench")

    def traced_after_half() -> int:
        stack.run_process(loop())
        stack.run_process(stack.block.drain())
        stack.sim.run(until=stack.sim.now + 100 * MSEC)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first = traced_after_half()
        second = traced_after_half()
    finally:
        tracemalloc.stop()
    return round((second - first) / calls, 1)


@pytest.mark.parametrize("config,sync_call", LOOPS)
def test_plain_run_retains_almost_nothing_per_call(config, sync_call):
    retained = retained_bytes_per_call(config, sync_call, calls=400)
    assert retained <= RETAINED_BYTES_PER_CALL, retained


def test_history_readers_raise_without_record_history():
    stack = build_stack(standard_config("BFS-DR", "plain-ssd"))
    _sync_loop(stack, "fsync", 5, "a.dat")
    with pytest.raises(SimulationError, match="record_history"):
        stack.record_history()
    with pytest.raises(SimulationError, match="inode size log"):
        stack.fs.record_history()
    stack.device.power_off()
    with pytest.raises(HistoryNotRecordedError):
        recover_durable_blocks(stack.device)
    with pytest.raises(HistoryNotRecordedError):
        journal_transactions(stack.fs)
    recorded = build_stack(standard_config("BFS-DR", "plain-ssd"))
    recorded.record_history()
    _sync_loop(recorded, "fsync", 5, "a.dat")
    state = recover_durable_blocks(recorded.device)
    with pytest.raises(HistoryNotRecordedError):
        CrashProbe.from_stack(state, stack)
    assert CrashProbe.from_stack(state, recorded).dispatch_log
    # Every layer but the filesystem recorded: remount recovery has no
    # inode size log to resolve the recovered metadata version through.
    sizeless = build_stack(standard_config("BFS-DR", "plain-ssd"))
    sizeless.block.record_history()
    sizeless.device.record_history()
    sizeless.fs.journal.record_history()
    _sync_loop(sizeless, "fsync", 5, "a.dat")
    probe = CrashProbe.from_stack(recover_durable_blocks(sizeless.device), sizeless)
    with pytest.raises(HistoryNotRecordedError, match="inode size log"):
        capture_image(probe)
    assert capture_image(CrashProbe.from_stack(state, recorded)).files


#: One buffered write: ("append", pages), ("rewrite", position, pages) at a
#: page below the size, or ("past", gap, pages) starting ``gap`` pages past
#: the end of the file.
WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 4)),
        st.tuples(st.just("rewrite"), st.floats(0, 1, exclude_max=True), st.integers(1, 4)),
        st.tuples(st.just("past"), st.integers(0, 6), st.integers(1, 4)),
    ),
    max_size=30,
)


@given(writes=WRITES, preallocated=st.sampled_from([0, 5]))
@settings(max_examples=60, deadline=None)
def test_dense_page_versions_match_a_dict_model(writes, preallocated):
    stack = build_stack(standard_config("BFS-DR", "plain-ssd"))
    handle = stack.fs.create("model.dat", preallocate_pages=preallocated)
    inode = handle.inode
    model: dict[int, int] = {}
    for write in writes:
        if write[0] == "append":
            pages = stack.fs.write(handle, write[1])
        elif write[0] == "rewrite" and inode.size_pages:
            offset = int(write[1] * inode.size_pages)
            pages = stack.fs.write(handle, write[2], offset_page=offset)
        else:
            offset = inode.size_pages + (write[1] if write[0] == "past" else 0)
            pages = stack.fs.write(handle, write[-1], offset_page=offset)
        for page in pages:
            model[page] = model.get(page, 0) + 1
            assert inode.dirty_pages[page] == model[page]
        versions = inode.page_versions
        assert len(versions) <= inode.size_pages
        assert inode.size_pages == max([preallocated, *(page + 1 for page in model)])
        assert {page: version for page, version in enumerate(versions) if version} == model
