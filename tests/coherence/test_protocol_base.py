"""Tests for the transaction steps every design shares: the local DRAM-cache
probe, the home memory read, directory sharer updates and invalidations.

Each design's handlers run these steps inline, so the tests drive them
through the handlers themselves.
"""

import pytest

from repro.coherence.directory import DirectoryState
from repro.coherence.messages import ServiceSource
from repro.interconnect.packet import DATA_PACKET_BYTES

from ..conftest import block_homed_at, tiny_system

DRAM_CACHE_DESIGNS = ("snoopy", "full-dir", "c3d", "c3d-full-dir")


def test_memory_read_and_write_update_local_remote_counters():
    system = tiny_system("c3d")
    protocol = system.protocol
    block = block_homed_at(system, home=1)
    _latency, source = protocol.read_miss(0.0, 1, block)
    assert source is ServiceSource.LOCAL_MEMORY
    # A read served by the requester's own memory sends nothing.
    assert system.interconnect.bytes_sent == 0
    _latency, source = protocol.read_miss(0.0, 0, block)
    assert source is ServiceSource.REMOTE_MEMORY
    assert system.stats.memory_reads_local == 1
    assert system.stats.memory_reads_remote == 1
    sent = system.interconnect.bytes_sent
    protocol._memory_write(0.0, home=1, block=block, requester=0)
    assert system.stats.memory_writes_remote == 1
    assert system.stats.writebacks == 1
    # The remote write shipped one data packet across the interconnect.
    assert system.interconnect.bytes_sent == sent + DATA_PACKET_BYTES
    protocol._memory_write(0.0, home=1, block=block, requester=1)
    assert system.stats.memory_writes_local == 1
    assert system.interconnect.bytes_sent == sent + DATA_PACKET_BYTES


def test_probe_local_dram_cache_counts_hits_and_misses():
    system = tiny_system("c3d")
    protocol = system.protocol
    block = block_homed_at(system, home=0)
    latency, source = protocol.read_miss(0.0, 0, block)
    assert source is ServiceSource.LOCAL_MEMORY
    assert latency >= system.config.dram_cache.predictor_latency_ns
    system.sockets[0].dram_cache.insert(block)
    latency, source = protocol.read_miss(0.0, 0, block)
    assert source is ServiceSource.LOCAL_DRAM_CACHE
    assert latency == pytest.approx(
        system.config.dram_cache.predictor_latency_ns + system.config.dram_cache.latency_ns
    )
    assert system.stats.dram_cache_hits == 1
    assert system.stats.dram_cache_misses == 1


def test_probe_local_dram_cache_on_baseline_is_free():
    system = tiny_system("baseline")
    latency, source = system.protocol.read_miss(0.0, 0, block_homed_at(system, home=0))
    assert source is ServiceSource.LOCAL_MEMORY
    assert latency == system.directories[0].latency_ns + system.config.memory.latency_ns
    assert system.stats.dram_cache_hits == system.stats.dram_cache_misses == 0


@pytest.mark.parametrize("design", DRAM_CACHE_DESIGNS)
def test_each_design_serves_a_local_dram_cache_hit_without_a_message(design):
    """Every design probes the requester's DRAM cache first, for reads and
    for stores that hold no copy, and a hit sends nothing."""
    system = tiny_system(design)
    protocol = system.protocol
    block = block_homed_at(system, home=1)
    system.sockets[0].dram_cache.insert(block)
    expected = (system.config.dram_cache.predictor_latency_ns
                + system.config.dram_cache.latency_ns)
    latency, source = protocol.read_miss(0.0, 0, block)
    assert (latency, source) == (expected, ServiceSource.LOCAL_DRAM_CACHE)
    _latency, source = protocol.write_miss(0.0, 0, block + 1)
    assert source is not ServiceSource.LOCAL_DRAM_CACHE
    _latency, source = protocol.write_miss(0.0, 0, block)
    assert source is ServiceSource.LOCAL_DRAM_CACHE
    assert system.stats.dram_cache_hits == 2
    assert system.stats.dram_cache_misses == 1


@pytest.mark.parametrize("design", ["baseline", "full-dir", "c3d-full-dir"])
def test_read_served_by_memory_degrades_a_stale_modified_entry(design):
    """A stale Modified entry naming the requester itself is degraded to
    Shared rather than violating the directory's M-state invariant."""
    system = tiny_system(design)
    directory = system.directories[0]
    block = block_homed_at(system, home=0)
    directory.set_modified(block, owner=1)
    _latency, source = system.protocol.read_miss(0.0, 1, block)
    assert source is ServiceSource.REMOTE_MEMORY
    entry = directory.decode(block)
    assert entry.state is DirectoryState.SHARED
    assert entry.sharers == {1}


def test_invalidate_remote_socket_removes_all_copies_and_acks():
    system = tiny_system("c3d")
    protocol = system.protocol
    block = block_homed_at(system, home=0)
    system.sockets[1].llc.insert(block)  # a clean Shared line
    system.sockets[1].dram_cache.insert(block)
    latency = protocol._invalidate_sockets(0.0, home=0, block=block, targets=1 << 1)
    assert latency >= 2 * system.config.interconnect.hop_latency_ns
    assert not system.sockets[1].llc.contains(block)
    assert not system.sockets[1].dram_cache.contains(block)
    assert system.stats.invalidations_sent == 1
