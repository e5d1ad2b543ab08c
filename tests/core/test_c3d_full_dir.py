"""Protocol tests for the idealised C3D + full directory design."""

from repro.coherence.directory import DirectoryState
from repro.coherence.messages import ServiceSource

from ..conftest import block_homed_at, read, tiny_system, write


def spill_from_llc(system, socket_id, block):
    llc = system.sockets[socket_id].llc
    for i in range(1, llc.associativity + 1):
        read(system, socket_id=socket_id, block=block + i * llc.num_sets)
    assert not llc.contains(block)


def make_system():
    return tiny_system("c3d-full-dir")


def test_properties():
    system = make_system()
    assert system.protocol.clean_dram_cache
    assert system.protocol.tracks_dram_cache_in_directory


def test_never_broadcasts():
    system = make_system()
    block = block_homed_at(system, home=0)
    read(system, socket_id=1, block=block)
    system.sockets[1].dram_cache.insert(block)
    write(system, socket_id=0, block=block)
    assert system.stats.broadcasts == 0
    # Precise invalidations still removed the remote copies.
    assert not system.sockets[1].llc.contains(block)
    assert not system.sockets[1].dram_cache.contains(block)
    assert system.check_invariants() == []


def test_reads_are_tracked_even_when_served_by_memory():
    system = make_system()
    block = block_homed_at(system, home=1)
    read(system, socket_id=0, block=block)
    entry = system.directories[1].decode(block)
    assert entry is not None and 0 in entry.sharers


def test_writeback_transitions_modified_to_shared():
    system = make_system()
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    entry = system.directories[1].decode(block)
    assert entry is not None
    assert entry.state is DirectoryState.SHARED
    assert entry.sharers == {0}
    # The clean copy lives in the DRAM cache and memory has been updated.
    assert system.sockets[0].dram_cache.contains(block)
    assert system.stats.write_throughs >= 1


def test_no_remote_dram_cache_reads():
    system = make_system()
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    spill_from_llc(system, socket_id=0, block=block)
    _latency, source = read(system, socket_id=1, block=block)
    assert source in (ServiceSource.LOCAL_MEMORY, ServiceSource.REMOTE_MEMORY)
    assert system.stats.served_remote_dram_cache == 0


def test_matches_c3d_on_read_path_latency():
    """c3d and c3d-full-dir should serve plain read misses identically."""
    block_index = 3
    latencies = {}
    for protocol in ("c3d", "c3d-full-dir"):
        system = tiny_system(protocol)
        block = block_homed_at(system, home=1, index=block_index)
        latency, _ = read(system, socket_id=0, block=block)
        latencies[protocol] = latency
    assert latencies["c3d"] == latencies["c3d-full-dir"]
