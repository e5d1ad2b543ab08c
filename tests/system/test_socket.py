"""Tests for the intra-socket memory path (L1s, LLC, local directory)."""

import pytest

from repro.caches.sram_cache import DIRTY, MODIFIED
from repro.coherence.messages import ServiceSource

from ..conftest import block_homed_at, tiny_system


def test_l1_miss_llc_hit_path():
    system = tiny_system("baseline")
    socket = system.sockets[0]
    block = block_homed_at(system, home=0)
    socket.access(0.0, 0, block, is_write=False, thread_id=0)
    # A second core reads the same block: L1 miss, LLC hit.
    latency, source = socket.access(0.0, 1, block, is_write=False, thread_id=1)
    assert source is ServiceSource.LLC
    assert system.stats.llc_hits == 1
    assert socket.l1s[1].contains(block)


def test_llc_is_inclusive_of_l1s():
    system = tiny_system("baseline")
    socket = system.sockets[0]
    block = block_homed_at(system, home=0)
    socket.access(0.0, 0, block, is_write=False, thread_id=0)
    llc = socket.llc
    # Evict the block from the LLC; the L1 copy must be back-invalidated.
    for i in range(1, llc.associativity + 1):
        socket.access(0.0, 1, block + i * llc.num_sets, is_write=False, thread_id=1)
    assert not llc.contains(block)
    assert not socket.l1s[0].contains(block)


def test_write_invalidates_peer_l1_copies():
    system = tiny_system("baseline")
    socket = system.sockets[0]
    block = block_homed_at(system, home=0)
    socket.access(0.0, 0, block, is_write=False, thread_id=0)
    socket.access(0.0, 1, block, is_write=False, thread_id=1)
    assert socket.l1s[0].contains(block) and socket.l1s[1].contains(block)
    socket.access(0.0, 1, block, is_write=True, thread_id=1)
    assert not socket.l1s[0].contains(block)
    assert [owner for b, _cores, owner in socket.local_directory.entries()
            if b == block] == [1]


def test_second_write_by_same_core_is_an_l1_hit():
    system = tiny_system("baseline")
    socket = system.sockets[0]
    block = block_homed_at(system, home=0)
    socket.access(0.0, 0, block, is_write=True, thread_id=0)
    lookups_before = system.stats.directory_lookups
    latency, source = socket.access(0.0, 0, block, is_write=True, thread_id=0)
    assert source is ServiceSource.L1
    assert latency == pytest.approx(system.config.l1.latency_ns)
    assert system.stats.directory_lookups == lookups_before


def test_peer_intervention_charges_extra_latency():
    system = tiny_system("baseline")
    socket = system.sockets[0]
    block = block_homed_at(system, home=0)
    socket.access(0.0, 0, block, is_write=True, thread_id=0)
    latency, source = socket.access(0.0, 1, block, is_write=False, thread_id=1)
    assert source is ServiceSource.LLC
    assert system.stats.llc_peer_hits == 1


def test_invalidate_onchip_and_downgrade():
    system = tiny_system("baseline")
    socket = system.sockets[0]
    block = block_homed_at(system, home=0)
    socket.access(0.0, 0, block, is_write=True, thread_id=0)
    assert socket.downgrade_block(block) is True          # dirty at downgrade time
    assert socket.llc.peek(block) == 0  # clean Shared
    assert socket.invalidate_onchip(block) is True
    assert not socket.llc.contains(block)
    assert socket.invalidate_onchip(block) is False


def test_upgrade_write_on_shared_llc_line_goes_global():
    system = tiny_system("baseline")
    block = block_homed_at(system, home=1)
    socket = system.sockets[0]
    socket.access(0.0, 0, block, is_write=False, thread_id=0)
    upgrades_before = system.stats.upgrades
    socket.access(0.0, 0, block, is_write=True, thread_id=0)
    assert system.stats.upgrades == upgrades_before + 1
    assert socket.llc.peek(block) == MODIFIED | DIRTY
