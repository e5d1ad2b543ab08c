"""Tests for the simple 1-IPC timing core."""


from repro.workloads.trace import MemoryAccess

from ..conftest import block_homed_at, tiny_system


def make_core(system, core_id=0):
    return system.cores[core_id]


def test_instruction_gap_advances_clock():
    system = tiny_system("baseline")
    core = make_core(system)
    block = block_homed_at(system, home=0)
    core.execute(MemoryAccess(addr=block * 64, is_write=False, gap=30))
    # 30 instructions at 1 IPC / 3 GHz = 10 ns, plus the memory latency.
    assert core.time >= 30 * core.cycle_ns
    assert system.stats.reads == 1


def test_load_blocks_for_memory_latency():
    system = tiny_system("baseline")
    core = make_core(system)
    block = block_homed_at(system, home=0)
    core.execute(MemoryAccess(addr=block * 64, is_write=False, gap=0))
    assert core.time >= system.config.memory.latency_ns


def test_store_latency_is_hidden_by_store_buffer():
    system = tiny_system("baseline")
    core = make_core(system)
    block = block_homed_at(system, home=1)  # remote write, slow transaction
    before = core.time
    core.execute(MemoryAccess(addr=block * 64, is_write=True, gap=0))
    # The core only pays one cycle, not the full write transaction.
    assert core.time - before < 2 * core.cycle_ns + 1e-9
    assert system.stats.writes == 1
    assert len(core.store_buffer) == 1


def test_store_to_load_forwarding_avoids_memory():
    system = tiny_system("baseline")
    core = make_core(system)
    block = block_homed_at(system, home=1)
    core.execute(MemoryAccess(addr=block * 64, is_write=True, gap=0))
    reads_before = system.stats.memory_reads
    core.execute(MemoryAccess(addr=block * 64 + 8, is_write=False, gap=0))
    assert system.stats.store_forward_hits == 1
    assert system.stats.memory_reads == reads_before


def test_read_latency_recorded_in_stats():
    system = tiny_system("baseline")
    core = make_core(system)
    block = block_homed_at(system, home=0)
    core.execute(MemoryAccess(addr=block * 64, is_write=False, gap=0))
    assert system.stats.read_latency.count == 1
    assert system.stats.read_latency.mean >= system.config.memory.latency_ns


def test_cores_map_to_sockets():
    system = tiny_system("c3d", num_sockets=2, cores_per_socket=2)
    assert system.cores[0].socket.socket_id == 0
    assert system.cores[3].socket.socket_id == 1
    assert system.cores[3].local_index == 1


def test_repeated_stores_fill_and_stall_the_buffer():
    system = tiny_system("baseline")
    core = make_core(system)
    capacity = core.store_buffer.capacity
    # Issue more distinct remote stores than the buffer can hold back-to-back.
    for i in range(capacity + 8):
        block = block_homed_at(system, home=1, index=i)
        core.execute(MemoryAccess(addr=block * 64, is_write=True, gap=0))
    assert system.stats.store_buffer_stalls > 0
    assert system.stats.store_buffer_stall_ns > 0.0
