"""Protocol tests for C3D (clean DRAM caches + non-inclusive directory)."""

import pytest

from repro.coherence.directory import DirectoryState
from repro.coherence.messages import ServiceSource
from repro.interconnect.packet import MessageClass

from ..conftest import block_homed_at, read, record_sends, tiny_system, write


def spill_from_llc(system, socket_id, block):
    """Evict ``block`` from the socket's LLC by filling its set with reads."""
    llc = system.sockets[socket_id].llc
    for i in range(1, llc.associativity + 1):
        read(system, socket_id=socket_id, block=block + i * llc.num_sets)
    assert not llc.contains(block)


def test_c3d_properties(c3d_system):
    assert c3d_system.protocol.clean_dram_cache
    assert not c3d_system.protocol.tracks_dram_cache_in_directory
    assert all(sock.dram_cache.clean for sock in c3d_system.sockets)


def test_read_in_invalid_state_is_not_tracked(c3d_system):
    """GetS to an untracked block is served by memory and stays untracked (Fig. 5)."""
    system = c3d_system
    block = block_homed_at(system, home=1)
    _latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.REMOTE_MEMORY
    assert system.directories[1].decode(block) is None


def test_dirty_llc_eviction_writes_through_and_keeps_clean_copy(c3d_system):
    system = c3d_system
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    assert system.directories[1].decode(block).state is DirectoryState.MODIFIED
    writes_before = system.stats.memory_writes_remote
    spill_from_llc(system, socket_id=0, block=block)
    # The data reached memory (write-through, PutX) ...
    assert system.stats.memory_writes_remote > writes_before
    assert system.stats.write_throughs >= 1
    # ... a clean copy is retained in the local DRAM cache ...
    assert system.sockets[0].dram_cache.dirty_of(block) is False
    # ... and the directory transitions Modified -> Invalid (untracked).
    assert system.directories[1].decode(block) is None


def test_remote_read_after_writethrough_avoids_remote_dram_cache(c3d_system):
    """The defining property: no read is ever served by a remote DRAM cache."""
    system = c3d_system
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    _latency, source = read(system, socket_id=1, block=block)
    assert source in (ServiceSource.LOCAL_MEMORY, ServiceSource.REMOTE_MEMORY)
    assert system.stats.served_remote_dram_cache == 0
    assert system.check_invariants() == []


def test_local_dram_cache_hit_is_fast_and_silent(c3d_system):
    system = c3d_system
    block = block_homed_at(system, home=1)
    read(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    bytes_before = system.interconnect.bytes_sent
    latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.LOCAL_DRAM_CACHE
    assert system.interconnect.bytes_sent == bytes_before
    config = system.config
    # On an LLC miss the tag check overlaps with the local-directory lookup
    # (only the latter is charged), then the miss predictor and the DRAM
    # array are accessed.
    expected = (
        config.l1.latency_ns
        + config.directory.local_latency_ns
        + config.dram_cache.predictor_latency_ns
        + config.dram_cache.latency_ns
    )
    assert latency == pytest.approx(expected)


def test_read_of_remote_modified_block_forwarded_from_owner_llc(c3d_system):
    system = c3d_system
    block = block_homed_at(system, home=0)
    write(system, socket_id=1, block=block)
    _latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.REMOTE_LLC
    entry = system.directories[0].decode(block)
    assert entry.state is DirectoryState.SHARED
    assert entry.sharers == {0, 1}
    assert system.check_invariants() == []


def test_write_to_untracked_block_broadcasts_invalidations(c3d_system):
    system = c3d_system
    block = block_homed_at(system, home=0)
    # Socket 1 holds an untracked copy in LLC and DRAM cache.
    read(system, socket_id=1, block=block)
    system.sockets[1].dram_cache.insert(block)
    broadcasts_before = system.stats.broadcasts
    sent = record_sends(system)
    write(system, socket_id=0, block=block)
    assert system.stats.broadcasts == broadcasts_before + 1
    assert (0, 1, MessageClass.BROADCAST_INVALIDATION) in sent
    # Every remote copy (LLC and DRAM cache) is gone.
    assert not system.sockets[1].llc.contains(block)
    assert not system.sockets[1].dram_cache.contains(block)
    assert system.directories[0].decode(block).state is DirectoryState.MODIFIED
    assert system.check_invariants() == []


def test_write_to_shared_tracked_block_uses_directed_invalidations(c3d_system):
    system = c3d_system
    block = block_homed_at(system, home=0)
    # Make the block tracked in Shared state: socket 1 writes then socket 0 reads
    # (M -> S transition tracks both sharers precisely).
    write(system, socket_id=1, block=block)
    read(system, socket_id=0, block=block)
    broadcasts_before = system.stats.broadcasts
    write(system, socket_id=0, block=block)
    assert system.stats.broadcasts == broadcasts_before  # no broadcast needed
    assert not system.sockets[1].llc.contains(block)
    assert system.check_invariants() == []


def test_clean_dram_cache_invariant_holds_after_mixed_traffic(c3d_system):
    system = c3d_system
    blocks = [block_homed_at(system, home=h, index=i) for h in range(2) for i in range(6)]
    for i, block in enumerate(blocks):
        write(system, socket_id=i % 2, block=block)
        read(system, socket_id=(i + 1) % 2, block=block)
        spill_from_llc(system, socket_id=i % 2, block=block)
    assert system.check_invariants() == []
    for sock in system.sockets:
        for resident in sock.dram_cache.resident_blocks():
            assert sock.dram_cache.dirty_of(resident) is False


def test_write_data_can_come_from_local_dram_cache(c3d_system):
    system = c3d_system
    block = block_homed_at(system, home=1)
    read(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    reads_before = system.stats.memory_reads
    _latency, source = write(system, socket_id=0, block=block)
    assert source is ServiceSource.LOCAL_DRAM_CACHE
    assert system.stats.memory_reads == reads_before


def test_directory_latency_charged_on_global_transactions(c3d_system):
    system = c3d_system
    block = block_homed_at(system, home=0)
    latency, _ = read(system, socket_id=0, block=block)
    config = system.config
    assert latency >= config.memory.latency_ns + config.directory.latency_ns


def test_stale_local_dram_copy_allowed_while_llc_modified():
    """The paper allows a DRAM cache to hold a stale copy of a block that is
    Modified higher up in the same socket."""
    system = tiny_system("c3d")
    block = block_homed_at(system, home=0)
    read(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    assert system.sockets[0].dram_cache.contains(block)
    write(system, socket_id=0, block=block)
    # The local DRAM cache may still hold the (now stale) copy; correctness is
    # preserved because the directory tracks the on-chip Modified copy.
    assert system.directories[0].decode(block).state is DirectoryState.MODIFIED
    assert system.check_invariants() == []
