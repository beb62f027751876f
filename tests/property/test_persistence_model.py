"""The crash state and the prefix oracles against the persistence model.

``tests/reference/persistence_model.py`` enumerates the durable sets each
barrier mode permits at a power cut, knowing nothing of the simulator.
Three properties tie the simulator and the oracles to it:

* (a) *soundness* — at every crash boundary of a short run, under every
  barrier mode, the crash state the device leaves
  (``recover_durable_blocks``) is a permitted set;
* (b) *not over-strict* — on every mode that guarantees ordering,
  ``epoch-prefix`` and ``storage-order-prefix`` accept every permitted
  state;
* (c) *not vacuous* — under ``none`` each of the two rejects some
  permitted state.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.persistence_model import MODES, Transfer, permits, permitted
from reference.stub_device import crash_state, page
from repro.block.request import RequestFlag
from repro.core import ORACLES, CrashProbe, VerificationError, build_stack, standard_config
from repro.storage import BarrierMode
from repro.storage.command import WrittenBlock
from repro.storage.crash import recover_durable_blocks
from repro.storage.device import MAX_DIRTY_AGE

PREFIX_ORACLES = ("epoch-prefix", "storage-order-prefix")
GUARANTEED = [mode for mode in MODES if BarrierMode(mode).orders_persistence]

# A plan drives the block layer: ("write", pages), ("barrier",),
# ("flush",) or ("fua", pages) — a FLUSH|FUA write, as a journal commit.
operation = st.one_of(
    st.tuples(st.just("write"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("fua"), st.integers(min_value=1, max_value=2)),
)
plans = st.lists(operation, min_size=1, max_size=12)

relaxed = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def run_plan(plan, mode: str, seed: int) -> int:
    """Run ``plan`` to the end; assert (a) at every crash boundary."""
    config = "EXT4-OD" if mode == "none" else "BFS-OD"
    stack = build_stack(
        standard_config(config, "plain-ssd", barrier_mode=BarrierMode(mode), seed=seed)
    )
    stack.record_history()
    block, sim, device = stack.block, stack.sim, stack.device
    history = device.cache.history
    ordered = RequestFlag.ORDERED if block.order_preserving else RequestFlag.NONE
    barrier = ordered | RequestFlag.BARRIER if block.order_preserving else ordered
    #: Transfer seqs a completed FLUSH or FUA covered: the pages transferred
    #: before it was submitted, and a FUA write's own pages.
    covered: set[int] = set()

    def cover(request, own=()):
        transferred = len(history)

        def done(_event):
            covered.update(entry.transfer_seq for entry in history[:transferred])
            covered.update(e.transfer_seq for e in history if e.block in own)

        request.completed.add_callback(done)

    def writer():
        lba = 0
        for step, op in enumerate(plan):
            pages = op[1] if len(op) > 1 else 1
            names = [("page", step, i) for i in range(pages)]
            payload = [WrittenBlock(name, 1) for name in names]
            if op[0] == "flush":
                cover(block.flush())
            elif op[0] == "fua":
                flags = ordered | RequestFlag.FLUSH | RequestFlag.FUA
                cover(block.write(lba, pages, payload=payload, flags=flags), set(names))
            else:
                flags = barrier if op[0] == "barrier" else ordered
                block.write(lba, pages, payload=payload, flags=flags)
            lba += pages
            yield sim.timeout(30)
        yield from block.drain()
        yield sim.timeout(2 * MAX_DIRTY_AGE)  # the flusher drains the rest

    boundaries = 0

    def check(kind, pages):
        nonlocal boundaries
        boundaries += 1
        durable = {entry.transfer_seq for entry in recover_durable_blocks(device).durable}
        transfers = [
            Transfer(e.transfer_seq, e.flush_group, e.transfer_seq in covered)
            for e in history
        ]
        assert permits(transfers, mode, durable), (kind, sorted(durable), transfers)

    device.crash_tap = check
    stack.run_process(writer())
    return boundaries


@given(plan=plans, seed=st.integers(min_value=0, max_value=2**10))
@relaxed
def test_every_crash_state_is_permitted(plan, seed):
    for mode in MODES:
        assert run_plan(plan, mode, seed) > 0, mode


# A synthetic history: pages over a few blocks (overwrites, older versions
# arriving late), epochs nondecreasing in transfer order as the device
# assigns them, and flush groups over consecutive runs of pages.
histories = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # block
        st.integers(min_value=1, max_value=3),  # version
        st.booleans(),  # a barrier closes the epoch after this page
        st.booleans(),  # a flush group ends after this page
    ),
    min_size=1,
    max_size=8,
)


def history_pages(history):
    """``(block, version, epoch, seq, group)`` of each synthetic page."""
    epoch = group = 0
    pages = []
    for seq, (block, version, closes_epoch, closes_group) in enumerate(history, 1):
        pages.append((("data", 1, block), version, epoch, seq, group))
        epoch += closes_epoch
        group += closes_group
    return pages


def rejects(oracle: str, pages, durable, mode: BarrierMode) -> bool:
    state = crash_state(
        [page(block, version, epoch, seq, seq in durable)
         for block, version, epoch, seq, _group in pages],
        mode,
    )
    try:
        ORACLES[oracle].verify(CrashProbe(state))
    except VerificationError:
        return True
    return False


@given(history=histories)
@settings(max_examples=60, deadline=None)
def test_guaranteed_modes_accept_every_permitted_state(history):
    pages = history_pages(history)
    transfers = [Transfer(seq, group) for *_, seq, group in pages]
    for mode in GUARANTEED:
        for durable in permitted(transfers, mode):
            for oracle in PREFIX_ORACLES:
                assert not rejects(oracle, pages, durable, BarrierMode(mode)), (
                    oracle, mode, sorted(durable),
                )


@given(history=histories)
@settings(max_examples=60, deadline=None)
def test_legacy_mode_lets_each_prefix_oracle_reject_a_permitted_state(history):
    pages = history_pages(history)
    transfers = [Transfer(seq) for *_, seq, _group in pages]
    states = list(permitted(transfers, "none"))
    assert len(states) == 2 ** len(pages)
    epochs = {epoch for _block, _version, epoch, _seq, _group in pages}
    blocks = {block for block, *_ in pages}
    for oracle, breakable in (
        ("epoch-prefix", len(epochs) > 1),
        ("storage-order-prefix", len(blocks) > 1),
    ):
        if breakable:
            assert any(
                rejects(oracle, pages, durable, BarrierMode.NONE) for durable in states
            ), oracle
