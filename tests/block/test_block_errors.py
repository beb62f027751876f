"""Typed storage errors and the block layer's retry/backpressure paths."""

import pytest

from repro.block import BlockDevice
from repro.block.block_device import BUSY_REQUEUE_LIMIT, MAX_RETRIES, RETRY_BACKOFF
from repro.faults import FaultInjector
from repro.simulation import Simulator
from repro.storage import (
    DeviceBusyError,
    PowerLossError,
    StorageDevice,
    StorageError,
    get_profile,
)


def make_stack(*, order_preserving=False, faults=()):
    sim = Simulator()
    device = StorageDevice(sim, get_profile("plain-ssd"))
    if faults:
        FaultInjector(faults, seed=0).install(device)
    block = BlockDevice(sim, device, order_preserving=order_preserving)
    return sim, device, block


def run(sim, generator):
    return sim.run_until_complete(sim.process(generator), limit=120_000_000)


class TestTypedErrors:
    def test_error_hierarchy(self):
        # PowerLossError/DeviceBusyError stay RuntimeError subclasses so
        # pre-existing handlers (and tests) keep matching them.
        assert issubclass(PowerLossError, StorageError)
        assert issubclass(PowerLossError, RuntimeError)
        assert issubclass(DeviceBusyError, RuntimeError)
        assert PowerLossError().args[0] == "device is powered off (crashed)"

    def test_powered_off_device_raises_typed_error(self):
        sim = Simulator()
        device = StorageDevice(sim, get_profile("plain-ssd"))
        device.power_off()
        from repro.block.dispatch import request_to_command
        from reference.builders import write_request

        command = request_to_command(write_request(0, 1), order_preserving=False)
        with pytest.raises(PowerLossError):
            device.try_submit(command)


class TestRetryPath:
    def test_transient_write_error_is_retried_to_completion(self):
        sim, device, block = make_stack(faults=["io-error:nth=1"])

        def host():
            request = block.write(0, 1, issuer="t")
            yield request.completed
            return request

        request = run(sim, host())
        assert request.error is None and request.retries == 1
        assert block.stats.io_errors == 1
        assert block.stats.io_retries == 1
        assert block.stats.io_failures == 0
        assert device.stats.io_errors == 1
        # The retry is not a second dispatch.
        assert block.stats.requests_dispatched == 1

    def test_persistent_error_exhausts_the_budget_and_fails_the_request(self):
        sim, device, block = make_stack(faults=["io-error"])  # every write fails

        def host():
            request = block.write(0, 1, issuer="t")
            yield request.completed
            return request

        request = run(sim, host())  # fail() fires completion: no deadlock
        assert request.error == "write-io-error"
        assert request.retries == MAX_RETRIES
        assert block.stats.io_failures == 1
        assert block.stats.io_errors == MAX_RETRIES + 1

    def test_read_errors_use_their_own_site_filter(self):
        sim, device, block = make_stack(faults=["io-error:nth=1,op=read"])
        from reference.builders import read_request

        def host():
            write = block.write(0, 1, issuer="t")
            yield write.completed
            read = block.submit(read_request(0, 1))
            yield read.completed
            return write, read

        write, read = run(sim, host())
        assert write.error is None and write.retries == 0
        assert read.error is None and read.retries == 1

    def test_retry_backoff_is_deterministic(self):
        def completion_time(faults):
            sim, device, block = make_stack(faults=faults)

            def host():
                yield block.write(0, 1, issuer="t").completed
                return sim.now

            return run(sim, host())

        assert completion_time(["io-error:nth=1"]) == completion_time(["io-error:nth=1"])
        # The one retry waited out its backoff before re-driving the write.
        assert completion_time(["io-error:nth=1"]) - completion_time(()) >= RETRY_BACKOFF


class TestBackpressure:
    def test_busy_requeues_are_counted_and_bounded(self):
        sim, device, block = make_stack()
        count = device.profile.queue_depth * 3

        def host():
            requests = [block.write(index * 10, 1) for index in range(count)]
            yield sim.all_of([request.completed for request in requests])
            return requests

        requests = run(sim, host())
        assert all(request.error is None for request in requests)
        assert block.stats.busy_requeues <= BUSY_REQUEUE_LIMIT

    def test_busy_requeue_exhaustion_counts_as_an_io_failure(self):
        # A request failed for ``device-busy`` is a failure like a
        # retry-exhausted one: ``io_failures`` must count it, or a run whose
        # syncs raised EIO reports no failure at all.  The device's queue
        # stays full, so every request spends the whole requeue bound.
        sim, device, block = make_stack()
        device.queue.try_insert = lambda command: False
        count = 3

        def host():
            requests = [block.write(index * 10, 1) for index in range(count)]
            yield sim.all_of([request.completed for request in requests])
            return requests

        requests = run(sim, host())
        assert [request.error for request in requests] == ["device-busy"] * count
        assert block.stats.io_failures == count
        assert block.stats.busy_requeues == count * BUSY_REQUEUE_LIMIT
        assert device.stats.busy_rejections == count * BUSY_REQUEUE_LIMIT
        assert (block.stats.io_errors, block.stats.power_failures) == (0, 0)

    def test_power_loss_mid_dispatch_fails_queued_requests(self):
        sim, device, block = make_stack()

        def host():
            first = block.write(0, 1, issuer="t")
            yield first.completed
            device.power_off()
            late = block.write(10, 1, issuer="t")
            yield late.completed
            return first, late

        first, late = run(sim, host())
        assert first.error is None
        assert late.error == "power-loss"
        assert block.stats.power_failures == 1
