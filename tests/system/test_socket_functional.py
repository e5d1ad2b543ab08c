"""``Socket.access_functional`` against ``Socket.access_l1_missed``: same state.

The sampled engine fast-forwards through ``access_functional``, which makes
the state changes of the timed ``access_l1_missed`` without its timing.
tests/engines/test_functional_mirrors.py swaps only the protocol's mirrors,
so the socket's own functional path is the same code on both sides there.
Here two identical prewarmed machines take one access sequence -- a
workload's compiled traces, merged round-robin -- with the L1 check done by
the test, the same way for both.  On an L1 miss, or a store to a Shared
line, machine A runs the timed path under functional timing and scratch
statistics, and machine B the functional one; the machines must end in
the same state.
"""

import pytest

from repro.caches.sram_cache import MODIFIED
from repro.engines.base import EngineContext, functional_timing, scratch_stats
from repro.system.numa_system import PROTOCOL_REGISTRY
from repro.workloads.registry import make_workload

from ..conftest import tiny_system
from .test_engine_equivalence import machine_state

#: A small footprint on tiny machines, so that a core's read finds a peer
#: L1's Modified copy and LLC victims still have L1 copies: both paths then
#: run their peer interventions and back-invalidations.
SCALE = 16384
ACCESSES = 600

#: (protocol, broadcast_filter) pairs: every design, plus c3d with its filter.
DESIGNS = [(name, False) for name in PROTOCOL_REGISTRY] + [("c3d", True)]


def _machine(protocol: str, broadcast_filter: bool, sockets: int, workload):
    system = tiny_system(protocol, num_sockets=sockets, broadcast_filter=broadcast_filter)
    context = EngineContext(system, workload)
    context.prepare_first_touch()
    context.prewarm_dram_caches()
    return system, context.compile_streams()


def _round_robin(traces):
    """``(core, position)`` over every trace, one access per core in turn."""
    longest = max(trace.length for trace in traces.values())
    for position in range(longest):
        for core_id, trace in traces.items():
            if position < trace.length:
                yield core_id, position


def _replay(system, traces, *, timed: bool) -> int:
    """Run every access below the L1 the way ``timed`` selects; returns how
    many accesses went below it."""
    config = system.config
    classifier = system.page_classifier
    below = 0
    with scratch_stats(system), functional_timing(system):
        for core_id, position in _round_robin(traces):
            trace = traces[core_id]
            block = trace.blocks[position]
            write = trace.writes[position]
            core = system.cores[core_id]
            socket = system.sockets[config.socket_of_core(core_id)]
            system.mapper.touch_page(trace.pages[position], socket.socket_id)
            if classifier is not None:
                classifier.record_access(core.thread_id, trace.addrs[position])
            l1 = socket.l1s[core.local_index]
            line = l1.lookup(block)
            if line is not None and not write:
                continue
            if line is not None and line & MODIFIED:
                l1.mark_dirty(block)
                continue
            below += 1
            if timed:
                socket.access_l1_missed(0.0, core.local_index, block, write, core.thread_id)
            else:
                socket.access_functional(core.local_index, block, write, core.thread_id)
    return below


@pytest.mark.parametrize("workload_name", ["facesim", "streamcluster"])
@pytest.mark.parametrize("sockets", [2, 4])
@pytest.mark.parametrize("protocol,broadcast_filter", DESIGNS)
def test_functional_access_leaves_the_timed_paths_state(protocol, broadcast_filter,
                                                       sockets, workload_name):
    workload = make_workload(workload_name, scale=SCALE, accesses_per_thread=ACCESSES,
                             num_threads=2 * sockets, seed=13)
    timed, traces = _machine(protocol, broadcast_filter, sockets, workload)
    functional, _ = _machine(protocol, broadcast_filter, sockets, workload)
    assert machine_state(timed) == machine_state(functional)

    below = _replay(timed, traces, timed=True)
    assert _replay(functional, traces, timed=False) == below
    assert below > ACCESSES  # the sequence exercises the miss path

    assert functional.check_invariants() == []
    assert machine_state(functional) == machine_state(timed)
    # Neither path counted anything on the machines' own statistics.
    assert functional.stats.to_json_dict() == timed.stats.to_json_dict()
