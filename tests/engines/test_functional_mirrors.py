"""Lean functional mirrors vs the generic fallback: bit-identical state.

Every coherence design ships its own ``read_miss_functional`` /
``write_miss_functional`` / ``llc_eviction_functional`` lean mirrors, which
exist purely for fast-forward speed; the *definition* of correct is the
generic base-class fallback, which runs the timed entry points under the
sampled engine's functional-timing stubs and is therefore state-exact by
construction.  These tests run the same sampled simulation twice -- once
with the protocol's lean mirrors, once with the mirrors forced back to the
generic fallback -- and assert the complete sampled output (detail-window
counters, per-metric estimates, inter-socket bytes) and the machine state
left behind are bit-identical.  Any state drift in a lean mirror shifts what
the detail windows measure, so divergence fails loudly here long before it
could pass the (much looser) CI-containment checks.

Each case runs on two and on four sockets: with two, every peer loop (a
snoopy broadcast, a C3D broadcast invalidation, c3d-full-dir's holder scan)
has exactly one target.  And each runs two workloads that reach different
mirror paths: ``streamcluster``'s sharing makes remote reads find dirty
DRAM-cache copies (snoopy's and full-dir's ``mark_clean``), and
``canneal``'s footprint makes DRAM-cache inserts displace victims (the
full-dir designs' victim hooks).
"""

import pytest

from repro.coherence.protocol_base import GlobalCoherenceProtocol
from repro.stats.sampling import SamplingPlan
from repro.system.config import SystemConfig
from repro.system.numa_system import PROTOCOL_REGISTRY, NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

from ..system.test_engine_equivalence import machine_state

SCALE = 1024
ACCESSES = 700
WARMUP = 100

PLAN = SamplingPlan(num_units=4, detail=50, warmup=30, confidence=0.99, seed=9)

#: (protocol, broadcast_filter) pairs: every design, plus c3d with its filter.
LEAN_PROTOCOLS = [(name, False) for name in PROTOCOL_REGISTRY] + [("c3d", True)]

SOCKET_COUNTS = (2, 4)
WORKLOADS = ("streamcluster", "canneal")

_GENERIC_MIRRORS = (
    "read_miss_functional",
    "write_miss_functional",
    "llc_eviction_functional",
)


def _config(protocol: str, broadcast_filter: bool, sockets: int) -> SystemConfig:
    return SystemConfig.quad_socket(
        protocol=protocol, num_sockets=sockets, cores_per_socket=2,
        broadcast_filter=broadcast_filter,
    ).scaled(SCALE)


def _run_sampled(workload_name: str, protocol: str, broadcast_filter: bool,
                 sockets: int, *, force_generic: bool):
    config = _config(protocol, broadcast_filter, sockets)
    system = NumaSystem(config)
    if force_generic:
        for name in _GENERIC_MIRRORS:
            generic = getattr(GlobalCoherenceProtocol, name)
            setattr(system.protocol, name, generic.__get__(system.protocol))
    workload = make_workload(
        workload_name, scale=SCALE, accesses_per_thread=ACCESSES,
        num_threads=config.total_cores, seed=13,
    )
    result = Simulator(system, workload, engine="sampled", sample_plan=PLAN).run(
        warmup_accesses_per_core=WARMUP, prewarm=True
    )
    return result, system


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("sockets", SOCKET_COUNTS)
@pytest.mark.parametrize("protocol,broadcast_filter", LEAN_PROTOCOLS)
def test_lean_mirrors_match_generic_fallback_bit_for_bit(protocol, broadcast_filter,
                                                         sockets, workload):
    lean, lean_system = _run_sampled(workload, protocol, broadcast_filter, sockets,
                                     force_generic=False)
    generic, generic_system = _run_sampled(workload, protocol, broadcast_filter,
                                           sockets, force_generic=True)

    assert lean_system.check_invariants() == []
    assert lean.stats.to_json_dict() == generic.stats.to_json_dict()
    assert lean.accesses_executed == generic.accesses_executed
    assert lean.inter_socket_bytes == generic.inter_socket_bytes
    assert lean.total_time_ns == generic.total_time_ns
    assert machine_state(lean_system) == machine_state(generic_system)


def test_protocols_with_lean_mirrors_actually_override():
    """Guard the parametrization above: every design defines lean mirrors."""
    assert {protocol for protocol, _ in LEAN_PROTOCOLS} == set(PROTOCOL_REGISTRY)
    for protocol, broadcast_filter in LEAN_PROTOCOLS:
        system = NumaSystem(_config(protocol, broadcast_filter, 2))
        for name in _GENERIC_MIRRORS:
            assert getattr(type(system.protocol), name) is not getattr(
                GlobalCoherenceProtocol, name
            ), (protocol, name)
