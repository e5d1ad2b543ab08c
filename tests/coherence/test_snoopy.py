"""Protocol tests for the snoopy coherent DRAM cache design."""

from repro.coherence.messages import ServiceSource
from repro.interconnect.packet import MessageClass

from ..conftest import block_homed_at, read, record_sends, write


def test_snoopy_uses_dirty_dram_caches(snoopy_system):
    assert snoopy_system.protocol.uses_dram_cache
    assert not snoopy_system.protocol.clean_dram_cache
    assert all(not sock.dram_cache.clean for sock in snoopy_system.sockets)


def test_local_dram_cache_hit_requires_no_snoop(snoopy_system):
    system = snoopy_system
    block = block_homed_at(system, home=0)
    system.sockets[0].dram_cache.insert(block)
    bytes_before = system.interconnect.bytes_sent
    _latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.LOCAL_DRAM_CACHE
    assert system.interconnect.bytes_sent == bytes_before


def test_miss_snoops_every_other_socket(snoopy_system):
    system = snoopy_system
    block = block_homed_at(system, home=0)
    sent = record_sends(system)
    read(system, socket_id=0, block=block)
    snooped = [dst for _src, dst, cls in sent if cls is MessageClass.SNOOP]
    assert sorted(snooped) == list(range(1, system.num_sockets))


def test_snoop_pays_remote_dram_probe_even_when_absent(snoopy_system):
    """The snoop filter cannot cover the DRAM cache, so the remote DRAM array
    latency lands on the critical path of every snooped miss."""
    system = snoopy_system
    block = block_homed_at(system, home=0)
    latency, _ = read(system, socket_id=0, block=block)
    config = system.config
    minimum = (
        2 * config.interconnect.hop_latency_ns      # snoop out + response back
        + config.dram_cache.latency_ns               # remote DRAM array probe
    )
    assert latency >= minimum


def test_dirty_remote_dram_copy_is_forwarded(snoopy_system):
    system = snoopy_system
    block = block_homed_at(system, home=0)
    # Socket 1 acquires the block modified, then spills it into its DRAM cache.
    write(system, socket_id=1, block=block)
    llc = system.sockets[1].llc
    for i in range(1, llc.associativity + 1):
        read(system, socket_id=1, block=block + i * llc.num_sets)
    assert system.sockets[1].dram_cache.dirty_of(block) is True
    _latency, source = read(system, socket_id=0, block=block)
    assert source is ServiceSource.REMOTE_DRAM_CACHE
    assert system.stats.served_remote_dram_cache == 1


def test_write_invalidates_all_remote_copies(snoopy_system):
    system = snoopy_system
    block = block_homed_at(system, home=0)
    read(system, socket_id=1, block=block)
    system.sockets[1].dram_cache.insert(block)
    write(system, socket_id=0, block=block)
    assert not system.sockets[1].llc.contains(block)
    assert not system.sockets[1].dram_cache.contains(block)
    assert system.stats.broadcasts >= 1
    assert system.check_invariants() == []


def test_llc_victims_are_absorbed_dirty(snoopy_system):
    system = snoopy_system
    block = block_homed_at(system, home=1)
    write(system, socket_id=0, block=block)
    writes_before = system.stats.memory_writes_local + system.stats.memory_writes_remote
    llc = system.sockets[0].llc
    for i in range(1, llc.associativity + 1):
        read(system, socket_id=0, block=block + i * llc.num_sets)
    assert system.sockets[0].dram_cache.dirty_of(block) is True
    # No memory write-back happened for the absorbed victim.
    assert (
        system.stats.memory_writes_local + system.stats.memory_writes_remote
        == writes_before
    )
