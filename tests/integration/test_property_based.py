"""Property-based integration tests: random access interleavings never break
coherence invariants, for any of the five designs.

These act as a lightweight fuzzer over the concrete (timing) implementation,
complementing the exhaustive model checking of the abstract protocol.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.system.numa_system import NumaSystem

from ..conftest import tiny_config

#: A small pool of blocks spread over both sockets' memory (two pages each).
def _block_pool(system):
    blocks = []
    blocks_per_page = system.layout.blocks_per_page()
    for page in range(4):
        blocks.extend(page * blocks_per_page + offset for offset in (0, 1))
    return blocks


access_sequences = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),   # socket
        st.integers(min_value=0, max_value=1),   # core within socket
        st.integers(min_value=0, max_value=7),   # block index in the pool
        st.booleans(),                           # is_write
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(protocol=st.sampled_from(["baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir"]),
       sequence=access_sequences)
def test_random_interleavings_preserve_invariants(protocol, sequence):
    system = NumaSystem(tiny_config(protocol))
    pool = _block_pool(system)
    now = 0.0
    for socket_id, core, block_index, is_write in sequence:
        block = pool[block_index]
        latency, _source = system.sockets[socket_id].access(
            now, core, block, is_write=is_write, thread_id=socket_id * 2 + core
        )
        assert latency >= 0.0
        now += latency
    assert system.check_invariants() == []


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=access_sequences)
def test_c3d_dram_caches_stay_clean_under_random_traffic(sequence):
    system = NumaSystem(tiny_config("c3d"))
    pool = _block_pool(system)
    for socket_id, core, block_index, is_write in sequence:
        system.sockets[socket_id].access(
            0.0, core, pool[block_index], is_write=is_write, thread_id=socket_id * 2 + core
        )
    for sock in system.sockets:
        for block in sock.dram_cache.resident_blocks():
            assert sock.dram_cache.dirty_of(block) is False


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=access_sequences)
def test_directory_modified_entries_always_have_an_owner_copy(sequence):
    system = NumaSystem(tiny_config("c3d"))
    pool = _block_pool(system)
    for socket_id, core, block_index, is_write in sequence:
        system.sockets[socket_id].access(
            0.0, core, pool[block_index], is_write=is_write, thread_id=socket_id * 2 + core
        )
        # Invariant must hold after *every* transaction, not just at the end.
        for directory in system.directories:
            for block, entry in directory.entries():
                if entry.state.value == "M":
                    assert entry.owner is not None
                    assert system.sockets[entry.owner].llc.contains(block)
