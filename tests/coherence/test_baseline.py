"""Protocol tests for the baseline (no DRAM cache) design."""

import pytest

from repro.coherence.directory import DirectoryState
from repro.coherence.messages import ServiceSource

from ..conftest import block_homed_at, read, write


def test_baseline_sockets_have_no_dram_cache(baseline_system):
    assert all(sock.dram_cache is None for sock in baseline_system.sockets)
    assert not baseline_system.protocol.uses_dram_cache


def test_read_miss_served_by_local_memory_when_home_is_local(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=0)
    latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.LOCAL_MEMORY
    assert system.stats.memory_reads_local == 1
    assert system.stats.memory_reads_remote == 0
    # Local access never touches the interconnect.
    assert system.interconnect.bytes_sent == 0
    assert latency >= system.config.memory.latency_ns


def test_read_miss_to_remote_home_crosses_the_interconnect(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=1)
    latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.REMOTE_MEMORY
    assert system.stats.memory_reads_remote == 1
    assert system.interconnect.bytes_sent > 0
    # Remote access pays at least one round trip plus the memory latency.
    assert latency > system.config.memory.latency_ns + 2 * system.config.interconnect.hop_latency_ns


def test_read_allocates_directory_sharer(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=1)
    read(system, socket_id=0, block=block)
    entry = system.directories[1].decode(block)
    assert entry is not None
    assert entry.state is DirectoryState.SHARED
    assert 0 in entry.sharers


def test_write_sets_directory_modified(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    entry = system.directories[1].decode(block)
    assert entry.state is DirectoryState.MODIFIED
    assert entry.owner == 0


def test_read_of_remotely_modified_block_is_forwarded(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=0)
    write(system, socket_id=1, block=block)
    latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.REMOTE_LLC
    entry = system.directories[0].decode(block)
    assert entry.state is DirectoryState.SHARED
    assert entry.sharers == {0, 1}
    # The forward wrote the dirty data through to memory.
    assert system.stats.memory_writes_local + system.stats.memory_writes_remote >= 1
    assert system.stats.downgrades == 1


def test_write_invalidates_remote_sharers(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=0)
    read(system, socket_id=1, block=block)
    assert system.sockets[1].llc.contains(block)
    write(system, socket_id=0, block=block)
    assert not system.sockets[1].llc.contains(block)
    assert system.stats.invalidations_sent >= 1
    assert system.check_invariants() == []


def test_write_to_remotely_modified_block_changes_owner(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=0)
    write(system, socket_id=1, block=block)
    write(system, socket_id=0, block=block)
    entry = system.directories[0].decode(block)
    assert entry.state is DirectoryState.MODIFIED and entry.owner == 0
    assert not system.sockets[1].llc.contains(block)
    assert system.check_invariants() == []


def test_upgrade_from_shared_does_not_read_memory(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=0)
    read(system, socket_id=0, block=block)
    reads_before = system.stats.memory_reads
    write(system, socket_id=0, block=block)
    assert system.stats.memory_reads == reads_before
    assert system.stats.upgrades == 1


def test_dirty_eviction_writes_back_and_untracks(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    writes_before = system.stats.memory_writes_remote
    # Force the dirty block out of socket 0's tiny LLC by filling its set.
    llc = system.sockets[0].llc
    conflicting = [block + i * llc.num_sets for i in range(1, llc.associativity + 1)]
    for other in conflicting:
        read(system, socket_id=0, block=other)
    assert not llc.contains(block)
    assert system.stats.memory_writes_remote > writes_before
    assert system.directories[1].decode(block) is None


def test_l1_hit_has_no_global_side_effects(baseline_system):
    system = baseline_system
    block = block_homed_at(system, home=0)
    read(system, socket_id=0, block=block)
    lookups_before = system.stats.directory_lookups
    latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.L1
    assert latency == pytest.approx(system.config.l1.latency_ns)
    assert system.stats.directory_lookups == lookups_before
