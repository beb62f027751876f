"""The crash → capture → remount → continue round trip of ``repro.recovery``."""

import pytest

from repro.core.verification import CrashProbe
from repro.recovery import (
    capture_image,
    continuation_file,
    remount,
    run_continuation,
    verify_acked_prefix,
)
from repro.recovery.image import RecoveredFile, RecoveredImage
from repro.scenarios.engine import build_spec_stack
from repro.scenarios.spec import ScenarioSpec
from repro.storage.crash import recover_durable_blocks


def crashed_probe(spec, calls=4):
    """Run ``calls`` fsynced appends on the spec's stack, then cut power."""
    stack = build_spec_stack(spec)
    stack.record_history()
    fs = stack.fs

    def proc():
        handle = fs.create("bench.dat")
        for _ in range(calls):
            fs.write(handle, 1)
            yield from fs.fsync(handle)

    stack.run_process(proc())
    stack.device.power_off()
    state = recover_durable_blocks(stack.device)
    return CrashProbe.from_stack(state, stack, spec=spec)


SPEC = ScenarioSpec(workload="sync-loop", config="EXT4-DR", device="plain-ssd")


class TestCaptureImage:
    def test_acked_appends_are_fully_recovered(self):
        probe = crashed_probe(SPEC, calls=4)
        assert verify_acked_prefix(probe) is None  # DR flushes before acking
        image = capture_image(probe)
        [entry] = image.files
        assert entry.name == "bench.dat"
        assert entry.size_pages == 4
        assert entry.preallocated_pages == 0
        assert [page for page, _ in entry.durable_pages] == [0, 1, 2, 3]
        assert image.total_pages == 4

    def test_capture_is_deterministic(self):
        probe = crashed_probe(SPEC, calls=3)
        assert capture_image(probe) == capture_image(probe)

    def test_unacked_tail_is_not_part_of_the_image(self):
        # The last write is buffered but never synced: recovery must size the
        # file by the newest *recovered* metadata version, not the in-memory
        # inode.
        stack = build_spec_stack(SPEC)
        stack.record_history()
        fs = stack.fs

        def proc():
            handle = fs.create("bench.dat")
            fs.write(handle, 1)
            yield from fs.fsync(handle)
            fs.write(handle, 1)  # never synced

        stack.run_process(proc())
        stack.device.power_off()
        state = recover_durable_blocks(stack.device)
        probe = CrashProbe.from_stack(state, stack, spec=SPEC)
        [entry] = capture_image(probe).files
        assert entry.size_pages == 1
        assert [page for page, _ in entry.durable_pages] == [0]


class TestRemount:
    def test_remounted_stack_serves_the_recovered_file(self):
        probe = crashed_probe(SPEC, calls=4)
        stack = remount(capture_image(probe), SPEC)
        fs = stack.fs
        assert fs.files == ["bench.dat"]
        handle = fs.open("bench.dat")
        assert handle.inode.inode_no == probe.stack.fs.open("bench.dat").inode.inode_no
        assert handle.inode.size_pages == 4
        assert handle.inode.synced_size_pages == 4

        def reader():
            pages = yield from fs.read(handle, 4)
            return pages

        assert stack.run_process(reader()) == [0, 1, 2, 3]

    def test_seeded_baseline_is_durable_on_the_new_device(self):
        probe = crashed_probe(SPEC, calls=3)
        stack = remount(capture_image(probe), SPEC)
        durable = {entry.block for entry in stack.device.cache.history if entry.is_durable}
        inode = stack.fs.open("bench.dat").inode
        for page in range(3):
            assert inode.data_block_name(page) in durable

    def test_remount_seeds_page_versions_with_holes(self):
        # Lost pages read as never written (version 0); later writes go on
        # from the recovered versions, and the recovered size is the new
        # preallocation baseline.
        image = RecoveredImage(files=(
            RecoveredFile(
                name="bench.dat", inode_no=3, size_pages=6,
                preallocated_pages=0, durable_pages=((1, 3), (4, 2)),
            ),
        ))
        stack = remount(image, SPEC)
        fs = stack.fs
        handle = fs.open("bench.dat")
        inode = handle.inode
        assert list(inode.page_versions) == [0, 3, 0, 0, 2]
        assert inode.preallocated_pages == 6
        assert inode.metadata_history == {0: 6}
        fs.write(handle, 2, offset_page=4)
        fs.write(handle, 1, offset_page=1)
        assert inode.dirty_pages == {4: 3, 5: 1, 1: 4}
        assert list(inode.page_versions) == [0, 4, 0, 0, 3, 1]

    def test_remount_clears_degradation(self):
        # A remount is a fresh mount: not read-only, fresh journal, even if
        # the crashed stack had degraded.
        probe = crashed_probe(SPEC, calls=2)
        probe.stack.fs.read_only = True
        stack = remount(capture_image(probe), SPEC)
        assert not stack.fs.read_only
        assert not stack.fs.journal.aborted


class TestContinuation:
    def test_continuation_file_prefers_the_workload_log(self):
        assert continuation_file(SPEC) == "bench.dat"
        other = ScenarioSpec(workload="open-write-sync", config="EXT4-DR")
        assert continuation_file(other) == "recovery.dat"

    def test_continuation_appends_and_acks_on_the_remounted_stack(self):
        probe = crashed_probe(SPEC, calls=2)
        stack = remount(capture_image(probe), SPEC)
        outcome = run_continuation(stack, SPEC, 4)
        assert outcome == {"completed": 4, "error": None}
        # Power is already cut; the continuation's acks must have survived.
        state = recover_durable_blocks(stack.device)
        final = CrashProbe.from_stack(state, stack, spec=SPEC)
        assert verify_acked_prefix(final) is None
        inode = stack.fs.open("bench.dat").inode
        assert inode.synced_size_pages == 2 + 4

    def test_persistent_faults_stop_the_continuation_with_the_error(self):
        spec = ScenarioSpec(
            workload="sync-loop",
            config="EXT4-DR",
            device="plain-ssd",
            faults=("io-error:p=1,op=write",),
        )
        probe = crashed_probe(SPEC, calls=2)  # crash run itself fault-free
        stack = remount(capture_image(probe), spec)
        assert stack.device.fault_injector is not None
        outcome = run_continuation(stack, spec, 4)
        assert outcome["completed"] < 4
        assert outcome["error"] in ("EIOError", "ReadOnlyFSError")

    def test_a_continuation_needs_a_call(self):
        with pytest.raises(ValueError):
            run_continuation(build_spec_stack(SPEC), SPEC, 0)
