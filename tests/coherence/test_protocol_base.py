"""Tests for the shared protocol machinery in GlobalCoherenceProtocol."""

import pytest

from repro.coherence.directory import DirectoryState
from repro.interconnect.packet import DATA_PACKET_BYTES

from ..conftest import block_homed_at, tiny_system


def test_memory_read_and_write_update_local_remote_counters():
    system = tiny_system("c3d")
    protocol = system.protocol
    block = block_homed_at(system, home=1)
    protocol._memory_read(0.0, home=1, block=block, requester=1)
    protocol._memory_read(0.0, home=1, block=block, requester=0)
    assert system.stats.memory_reads_local == 1
    assert system.stats.memory_reads_remote == 1
    protocol._memory_write(0.0, home=1, block=block, requester=0)
    assert system.stats.memory_writes_remote == 1
    assert system.stats.writebacks == 1
    # The remote write shipped one data packet across the interconnect.
    assert system.interconnect.bytes_sent == DATA_PACKET_BYTES


def test_probe_local_dram_cache_counts_hits_and_misses():
    system = tiny_system("c3d")
    protocol = system.protocol
    block = block_homed_at(system, home=0)
    hit, latency = protocol._probe_local_dram_cache(0.0, 0, block)
    assert not hit
    assert latency >= system.config.dram_cache.predictor_latency_ns
    system.sockets[0].dram_cache.insert(block)
    hit, latency = protocol._probe_local_dram_cache(0.0, 0, block)
    assert hit
    assert latency == pytest.approx(
        system.config.dram_cache.predictor_latency_ns + system.config.dram_cache.latency_ns
    )
    assert system.stats.dram_cache_hits == 1
    assert system.stats.dram_cache_misses == 1


def test_probe_local_dram_cache_on_baseline_is_free():
    system = tiny_system("baseline")
    assert system.protocol._probe_local_dram_cache(0.0, 0, 1234) == (False, 0.0)


def test_directory_note_read_sharer_degrades_stale_modified_entry():
    system = tiny_system("c3d")
    protocol = system.protocol
    directory = system.directories[0]
    directory.set_modified(7, owner=1)
    protocol._directory_note_read_sharer(directory, 7, requester=0)
    entry = directory.decode(7)
    assert entry.state is DirectoryState.SHARED
    assert entry.sharers == {0, 1}


def test_invalidate_remote_socket_removes_all_copies_and_acks():
    system = tiny_system("c3d")
    protocol = system.protocol
    block = block_homed_at(system, home=0)
    system.sockets[1].llc.insert(block)  # a clean Shared line
    system.sockets[1].dram_cache.insert(block)
    latency = protocol._invalidate_remote_socket(
        0.0, home=0, target=1, block=block, include_dram_cache=True
    )
    assert latency >= 2 * system.config.interconnect.hop_latency_ns
    assert not system.sockets[1].llc.contains(block)
    assert not system.sockets[1].dram_cache.contains(block)
    assert system.stats.invalidations_sent == 1
