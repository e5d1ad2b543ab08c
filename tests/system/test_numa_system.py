"""Tests for machine assembly and the protocol registry."""

import weakref

import pytest

from repro.caches.sram_cache import DIRTY, MODIFIED
from repro.coherence.baseline import BaselineProtocol
from repro.core.c3d_protocol import C3DProtocol
from repro.system.numa_system import PROTOCOL_REGISTRY, NumaSystem

from ..conftest import block_homed_at, read, tiny_config, tiny_system, write


def test_registry_contains_all_five_designs():
    assert set(PROTOCOL_REGISTRY) == {"baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir"}


def test_build_system_wires_components():
    system = NumaSystem(tiny_config("c3d", num_sockets=2, cores_per_socket=2))
    assert isinstance(system.protocol, C3DProtocol)
    assert len(system.sockets) == 2
    assert len(system.cores) == 4
    assert len(system.directories) == 2
    # The links back up are weak proxies: check whom each one refers to.
    assert refers_to(system.protocol.system, system)
    for sock in system.sockets:
        assert refers_to(sock.system, system)
        assert refers_to(sock.protocol, system.protocol)
        assert sock.stats is system.stats
    assert system.num_cores == 4


def refers_to(proxy, target) -> bool:
    """True when ``proxy`` is a weak proxy to ``target`` itself."""
    return any(ref is proxy for ref in weakref.getweakrefs(target))


def test_baseline_system_has_no_dram_caches():
    system = tiny_system("baseline")
    assert isinstance(system.protocol, BaselineProtocol)
    assert all(sock.dram_cache is None for sock in system.sockets)


def test_dram_cache_clean_flag_follows_protocol():
    assert all(s.dram_cache.clean for s in tiny_system("c3d").sockets)
    assert all(not s.dram_cache.clean for s in tiny_system("full-dir").sockets)


def test_page_classifier_only_built_when_filter_enabled():
    assert tiny_system("c3d").page_classifier is None
    assert tiny_system("c3d", broadcast_filter=True).page_classifier is not None


def test_reset_measurement_preserves_cache_contents():
    system = tiny_system("c3d")
    block = block_homed_at(system, home=1)
    read(system, socket_id=0, block=block)
    assert system.stats.reads == 0 and system.stats.memory_reads == 1
    system.reset_measurement()
    assert system.stats.memory_reads == 0
    assert system.inter_socket_bytes() == 0
    assert system.sockets[0].llc.contains(block)


def test_assigning_stats_re_points_every_component():
    """Sockets, cores and the protocol record into whatever ``system.stats``
    holds now: they keep their own reference, which the assignment moves."""
    from repro.stats.counters import SimulationStats

    system = tiny_system("c3d")
    components = [system.protocol, *system.sockets, *system.cores]
    assert all(part.stats is system.stats for part in components)
    swapped = SimulationStats()
    system.stats = swapped
    assert all(part.stats is swapped for part in components)
    read(system, socket_id=0, block=block_homed_at(system, home=1))
    assert swapped.memory_reads == 1


def test_check_invariants_clean_on_fresh_system():
    assert tiny_system("c3d").check_invariants() == []


def test_check_invariants_detects_swmr_violation():
    system = tiny_system("baseline")
    block = block_homed_at(system, home=0)
    write(system, socket_id=0, block=block)
    # Corrupt the state: force a second socket to also hold the block Modified.
    system.sockets[1].llc.insert(block, MODIFIED | DIRTY)
    violations = system.check_invariants()
    assert any("Modified in multiple sockets" in v for v in violations)


def test_check_invariants_detects_dirty_clean_cache():
    system = tiny_system("c3d")
    cache = system.sockets[0].dram_cache
    cache.clean = False           # bypass the write-through policy
    cache.insert(1234, dirty=True)
    cache.clean = True
    violations = system.check_invariants()
    assert any("dirty line" in v for v in violations)


def test_check_invariants_detects_stale_directory_owner():
    system = tiny_system("c3d")
    system.directories[0].set_modified(99, owner=1)
    violations = system.check_invariants()
    assert any("no on-chip copy" in v for v in violations)


def test_check_invariants_detects_l1_block_missing_from_llc():
    system = tiny_system("c3d")
    block = block_homed_at(system, home=0)
    system.sockets[0].access(0.0, 0, block)
    # Corrupt the state: drop the LLC copy without back-invalidating the L1.
    system.sockets[0].llc.invalidate(block)
    violations = system.check_invariants()
    assert any("in the L1 of core 0 of socket 0 but not in its LLC" in v for v in violations)


def test_check_invariants_detects_local_entry_without_holder():
    system = tiny_system("c3d")
    block = block_homed_at(system, home=0)
    system.sockets[0].access(0.0, 0, block)
    # Corrupt the state: the L1 drops the block behind the local directory.
    system.sockets[0].l1s[0].invalidate(block)
    violations = system.check_invariants()
    assert any("which no L1 holds" in v for v in violations)


def test_check_invariants_detects_wrong_local_sharers():
    system = tiny_system("c3d")
    block = block_homed_at(system, home=0)
    socket = system.sockets[0]
    socket.access(0.0, 0, block)
    # Corrupt the state: a second L1 fills without the local directory.
    socket.l1s[1].insert(block)
    violations = system.check_invariants()
    assert any("lists sharers [0]" in v and "cores [0, 1] hold it" in v for v in violations)


def test_check_invariants_detects_local_owner_without_modified_copy():
    system = tiny_system("c3d")
    block = block_homed_at(system, home=0)
    socket = system.sockets[0]
    socket.access(0.0, 0, block, is_write=True)
    # Corrupt the state: the owner's L1 line loses its Modified bit.
    socket.l1s[0].downgrade(block)
    violations = system.check_invariants()
    assert any("says core 0 owns block" in v for v in violations)


def test_check_invariants_detects_two_modified_l1_copies():
    system = tiny_system("c3d")
    block = block_homed_at(system, home=0)
    socket = system.sockets[0]
    socket.access(0.0, 0, block, is_write=True)
    # Corrupt the state: a peer L1 also holds the block Modified.
    socket.l1s[1].insert(block, MODIFIED | DIRTY)
    violations = system.check_invariants()
    assert any("Modified in several L1s of socket 0: [0, 1]" in v for v in violations)


@pytest.mark.parametrize("llc_bits", [MODIFIED, DIRTY])
def test_check_invariants_detects_modified_l1_line_over_a_stale_llc_line(llc_bits):
    system = tiny_system("c3d")
    block = block_homed_at(system, home=0)
    socket = system.sockets[0]
    socket.access(0.0, 0, block, is_write=True)
    # Corrupt the state: the LLC line loses its dirty (or Modified) bit
    # while the L1 keeps the block Modified, so a store hit would leave the
    # LLC copy stale.
    socket.llc.set_state(block, llc_bits)
    violations = system.check_invariants()
    assert any(
        "Modified in the L1 of core 0 of socket 0 but not Modified and dirty "
        "in its LLC" in v
        for v in violations
    )



@pytest.mark.parametrize("design", ["full-dir", "c3d-full-dir"])
def test_check_invariants_detects_a_copy_the_directory_does_not_list(design):
    system = tiny_system(design)
    block = block_homed_at(system, home=0)
    read(system, socket_id=1, block=block)
    system.sockets[1].dram_cache.insert(block + 1)   # same page: no entry
    violations = system.check_invariants()
    assert violations == [
        f"block {block + 1:#x} in the DRAM cache of socket 1, but "
        "directory[0] does not list that socket as a sharer"
    ]
    # The socket's LLC copy of ``block`` is listed by its entry; once the
    # entry is gone, that copy is untracked too.
    system.directories[0].invalidate(block)
    assert any(
        f"block {block:#x} in the LLC of socket 1" in v
        for v in system.check_invariants()
    )


def test_c3d_directory_need_not_list_dram_cache_copies():
    """Plain C3D's directory is non-inclusive by design (section IV-C)."""
    system = tiny_system("c3d")
    system.sockets[1].dram_cache.insert(block_homed_at(system, home=0))
    assert system.check_invariants() == []
