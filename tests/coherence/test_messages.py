"""Tests for the coherence vocabulary and protocol metadata."""

from repro.coherence.messages import ServiceSource

from ..conftest import tiny_system


def test_service_source_classification():
    assert ServiceSource.REMOTE_MEMORY.is_off_socket
    assert ServiceSource.REMOTE_DRAM_CACHE.is_off_socket
    assert not ServiceSource.LOCAL_DRAM_CACHE.is_off_socket
    assert ServiceSource.LOCAL_MEMORY.is_memory
    assert ServiceSource.REMOTE_MEMORY.is_memory
    assert not ServiceSource.LLC.is_memory


def test_protocol_describe_strings():
    assert "no DRAM cache" in tiny_system("baseline").protocol.describe()
    assert "clean DRAM cache" in tiny_system("c3d").protocol.describe()
    assert "dirty DRAM cache" in tiny_system("full-dir").protocol.describe()
