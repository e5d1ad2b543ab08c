"""Protocol tests for the inclusive full-directory design (full-dir)."""

from repro.coherence.directory import DirectoryState
from repro.coherence.messages import ServiceSource

from ..conftest import block_homed_at, read, write


def spill_from_llc(system, socket_id, block):
    """Evict ``block`` from the socket's LLC by filling its set with reads."""
    llc = system.sockets[socket_id].llc
    for i in range(1, llc.associativity + 1):
        read(system, socket_id=socket_id, block=block + i * llc.num_sets)
    assert not llc.contains(block)


def test_full_dir_tracks_dram_cache_in_directory(full_dir_system):
    assert full_dir_system.protocol.tracks_dram_cache_in_directory
    assert not full_dir_system.protocol.clean_dram_cache


def test_dirty_llc_victim_stays_dirty_in_dram_cache_without_writeback(full_dir_system):
    system = full_dir_system
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    writes_before = system.stats.memory_writes_remote
    spill_from_llc(system, socket_id=0, block=block)
    assert system.sockets[0].dram_cache.dirty_of(block) is True
    assert system.stats.memory_writes_remote == writes_before
    # The directory still records socket 0 as the owner (Fig. 4 situation).
    entry = system.directories[1].decode(block)
    assert entry.state is DirectoryState.MODIFIED and entry.owner == 0


def test_remote_read_of_dirty_dram_block_hits_the_pathology(full_dir_system):
    system = full_dir_system
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    latency, source = read(system, socket_id=1, block=block)
    assert source is ServiceSource.REMOTE_DRAM_CACHE
    # The slow remote hit pays the remote DRAM array latency on top of the
    # interconnect hops, making it slower than a plain memory access.
    assert latency > system.config.memory.latency_ns
    assert system.stats.served_remote_dram_cache == 1
    # Afterwards memory is valid again and the entry is Shared.
    entry = system.directories[1].decode(block)
    assert entry.state is DirectoryState.SHARED
    assert system.check_invariants() == []


def test_read_of_clean_remote_copy_served_by_memory(full_dir_system):
    system = full_dir_system
    block = block_homed_at(system, home=0)
    read(system, socket_id=1, block=block)
    _latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.LOCAL_MEMORY


def test_write_sends_directed_invalidations_not_broadcasts(full_dir_system):
    system = full_dir_system
    block = block_homed_at(system, home=0)
    read(system, socket_id=1, block=block)
    write(system, socket_id=0, block=block)
    assert system.stats.broadcasts == 0
    assert system.stats.invalidations_sent >= 1
    assert not system.sockets[1].llc.contains(block)
    assert system.check_invariants() == []


def test_local_dram_hit_needs_no_global_transaction(full_dir_system):
    system = full_dir_system
    block = block_homed_at(system, home=1)
    read(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    lookups_before = system.stats.directory_lookups
    _latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.LOCAL_DRAM_CACHE
    assert system.stats.directory_lookups == lookups_before


def test_dram_cache_dirty_victim_reaches_memory_and_directory(full_dir_system):
    system = full_dir_system
    dram = system.sockets[0].dram_cache
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    assert dram.dirty_of(block) is True
    writes_before = system.stats.memory_writes_remote
    # Conflict the dirty line out of the direct-mapped DRAM cache.
    conflicting = block + dram.num_sets
    write(system, socket_id=0, block=conflicting)
    spill_from_llc(system, socket_id=0, block=conflicting)
    assert not dram.contains(block)
    assert system.stats.memory_writes_remote > writes_before
    assert system.check_invariants() == []
