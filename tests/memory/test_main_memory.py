"""Tests for the DDR channel timing model."""

import pytest

from repro.memory.main_memory import MemoryChannel, MemoryController


def test_idle_read_latency_is_device_latency():
    controller = MemoryController(latency_ns=50.0, channels=2)
    result = controller.read(0.0, block=0)
    assert result.latency == pytest.approx(50.0)
    assert result.queue_delay == 0.0


def test_back_to_back_reads_on_one_channel_queue():
    controller = MemoryController(latency_ns=50.0, channels=1, channel_bandwidth_gbps=12.8)
    first = controller.read(0.0, block=0)
    second = controller.read(0.0, block=1)
    assert first.queue_delay == 0.0
    assert second.queue_delay == pytest.approx(64 / 12.8)
    assert second.latency == pytest.approx(50.0 + 64 / 12.8)


def test_reads_spread_across_channels_do_not_queue():
    controller = MemoryController(latency_ns=50.0, channels=2)
    a = controller.read(0.0, block=0)   # channel 0
    b = controller.read(0.0, block=1)   # channel 1
    assert a.queue_delay == 0.0
    assert b.queue_delay == 0.0


def test_infinite_bandwidth_never_queues():
    controller = MemoryController(latency_ns=50.0, channels=1, infinite_bandwidth=True)
    for block in range(20):
        result = controller.read(0.0, block=0)
        assert result.queue_delay == 0.0


def test_writes_counted_and_consume_bandwidth():
    controller = MemoryController(latency_ns=50.0, channels=1)
    controller.write(0.0, block=0)
    assert controller.channels[0].busy_until == pytest.approx(64 / 12.8)
    result = controller.read(0.0, block=1)
    assert result.queue_delay > 0.0


def test_out_of_order_arrival_is_not_charged_queueing():
    controller = MemoryController(latency_ns=50.0, channels=1)
    controller.read(100.0, block=0)
    # An access that arrives "earlier" (trace skew) is not penalised.
    assert controller.read(10.0, block=1).queue_delay == 0.0
    assert controller.write(20.0, block=2).queue_delay == 0.0


def test_queued_latency_float_order_is_pinned():
    """``read_fast`` adds the queueing delay to the device latency;
    ``write_fast`` adds left to right.  The two round differently, and the
    pinned statistics digests depend on both orders."""

    def queued():
        controller = MemoryController(latency_ns=50.0, channels=1)
        controller.channels[0].busy_until = 0.3
        return controller

    assert queued().read_fast(0.1, 0) == 50.0 + (0.3 - 0.1) == 50.2
    assert queued().write_fast(0.1, 0) == (50.0 + 0.3) - 0.1 == 50.199999999999996


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MemoryController(channels=0)
    with pytest.raises(ValueError):
        MemoryController(latency_ns=-1.0)
    with pytest.raises(ValueError):
        MemoryChannel(0.0)

