"""Tests for the trace record."""

from repro.workloads.trace import MemoryAccess


def test_memory_access_defaults():
    access = MemoryAccess(addr=128)
    assert not access.is_write
    assert access.gap == 0


def test_memory_access_is_hashable_and_comparable():
    a = MemoryAccess(addr=64, is_write=True, gap=2)
    b = MemoryAccess(addr=64, is_write=True, gap=2)
    assert a == b
    assert hash(a) == hash(b)
