"""Tests for the TSO store buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.store_buffer import StoreBuffer


def test_push_and_drain():
    buffer = StoreBuffer(capacity=4)
    buffer.push(0.0, block=1, completion_time=10.0)
    assert len(buffer) == 1
    buffer.drain(5.0)
    assert len(buffer) == 1
    buffer.drain(10.0)
    assert len(buffer) == 0


def test_store_to_load_forwarding():
    buffer = StoreBuffer()
    buffer.push(0.0, block=7, completion_time=100.0)
    assert buffer.forwards(7, now=1.0)
    assert not buffer.forwards(8, now=1.0)
    # After the store completes and drains, no forwarding.
    assert not buffer.forwards(7, now=200.0)


def test_full_buffer_stalls_until_oldest_retires():
    buffer = StoreBuffer(capacity=2)
    assert buffer.push(0.0, block=0, completion_time=50.0) == 0.0
    assert buffer.push(0.0, block=1, completion_time=60.0) == 0.0
    assert buffer.push(10.0, block=2, completion_time=70.0) == pytest.approx(40.0)
    # The oldest store retired at 50 ns to make room; the other two remain.
    assert len(buffer) == 2


def test_in_order_drain_serialises_completions():
    buffer = StoreBuffer()
    buffer.push(0.0, block=0, completion_time=100.0)
    buffer.push(0.0, block=1, completion_time=20.0)
    # The second store cannot complete before the first (TSO order): it is
    # still buffered, and forwards, after its own completion time.
    assert buffer.forwards(1, now=50.0)
    buffer.drain(99.0)
    assert len(buffer) == 2
    buffer.drain(100.0)
    assert len(buffer) == 0


def test_capacity_validation():
    with pytest.raises(ValueError):
        StoreBuffer(capacity=0)


def test_occupancy():
    buffer = StoreBuffer()
    assert len(buffer) == 0
    buffer.push(0.0, 1, 5.0)
    assert len(buffer) == 1


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(0, 1e4), st.floats(0, 1e4)), min_size=1, max_size=80))
def test_occupancy_never_exceeds_capacity_and_completions_monotone(stores):
    buffer = StoreBuffer(capacity=8)
    now = 0.0
    completions = []
    for delta_now, latency in stores:
        now += delta_now
        stall_ns = buffer.push(now, block=0, completion_time=now + latency)
        assert len(buffer) <= 8
        assert stall_ns >= 0.0
        if buffer._entries:
            completions.append(buffer._entries[-1][0])
    assert completions == sorted(completions)
