"""Lean functional mirrors vs the generic fallback: bit-identical state.

The coherence protocols' ``read_miss_functional`` / ``write_miss_functional``
/ ``llc_eviction_functional`` lean mirrors exist purely for fast-forward
speed; the *definition* of correct is the generic base-class fallback, which
runs the timed entry points under the sampled engine's functional-timing
stubs and is therefore state-exact by construction.  These tests run the
same sampled simulation twice -- once with the protocol's lean mirrors,
once with the mirrors forced back to the generic fallback -- and assert the
complete sampled output (detail-window counters, per-metric estimates,
inter-socket bytes) is bit-identical.  Any state drift in a lean mirror
shifts what the detail windows measure, so divergence fails loudly here
long before it could pass the (much looser) CI-containment checks.
"""

import pytest

from repro.coherence.protocol_base import GlobalCoherenceProtocol
from repro.stats.sampling import SamplingPlan
from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

SCALE = 1024
ACCESSES = 700
WARMUP = 100

PLAN = SamplingPlan(num_units=4, detail=50, warmup=30, confidence=0.99, seed=9)

#: (protocol, broadcast_filter) pairs that ship lean mirror overrides.
LEAN_PROTOCOLS = [("baseline", False), ("c3d", False), ("c3d", True)]

_GENERIC_MIRRORS = (
    "read_miss_functional",
    "write_miss_functional",
    "llc_eviction_functional",
)


def _run_sampled(protocol: str, broadcast_filter: bool, *, force_generic: bool):
    config = SystemConfig.quad_socket(
        protocol=protocol, num_sockets=2, cores_per_socket=2,
        broadcast_filter=broadcast_filter,
    ).scaled(SCALE)
    system = NumaSystem(config)
    if force_generic:
        for name in _GENERIC_MIRRORS:
            generic = getattr(GlobalCoherenceProtocol, name)
            setattr(system.protocol, name, generic.__get__(system.protocol))
    workload = make_workload(
        "facesim", scale=SCALE, accesses_per_thread=ACCESSES,
        num_threads=config.total_cores, seed=13,
    )
    result = Simulator(system, workload, engine="sampled", sample_plan=PLAN).run(
        warmup_accesses_per_core=WARMUP, prewarm=True
    )
    return result, system


@pytest.mark.parametrize("protocol,broadcast_filter", LEAN_PROTOCOLS)
def test_lean_mirrors_match_generic_fallback_bit_for_bit(protocol, broadcast_filter):
    lean, lean_system = _run_sampled(protocol, broadcast_filter, force_generic=False)
    generic, _ = _run_sampled(protocol, broadcast_filter, force_generic=True)

    assert lean_system.check_invariants() == []
    assert lean.stats.to_json_dict() == generic.stats.to_json_dict()
    assert lean.accesses_executed == generic.accesses_executed
    assert lean.inter_socket_bytes == generic.inter_socket_bytes
    assert lean.total_time_ns == generic.total_time_ns


def test_protocols_with_lean_mirrors_actually_override():
    """Guard the parametrization above: these designs define lean mirrors."""
    for protocol, broadcast_filter in LEAN_PROTOCOLS:
        config = SystemConfig.quad_socket(
            protocol=protocol, num_sockets=2, cores_per_socket=2,
            broadcast_filter=broadcast_filter,
        ).scaled(SCALE)
        system = NumaSystem(config)
        for name in _GENERIC_MIRRORS:
            assert getattr(type(system.protocol), name) is not getattr(
                GlobalCoherenceProtocol, name
            ), (protocol, name)
