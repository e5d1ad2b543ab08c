"""Machine lifetime: a dropped machine is freed without the cyclic collector.

``NumaSystem`` owns its components through strong references that point
down; the links that point back up or across (``Socket.system``,
``Socket.protocol``, ``GlobalCoherenceProtocol.system``) are weak proxies.
With the collector disabled, dropping the system, the workload and the
result of a finished run must therefore free the machine at once, for every
design on every engine.  A deep copy (the sampled engine's non-fork window
isolation) must link the copy to itself, not to the original.
"""

import copy
import gc
import weakref
from contextlib import contextmanager

import pytest

from repro import engines
from repro.system.config import SystemConfig
from repro.system.numa_system import PROTOCOL_REGISTRY, NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

SCALE = 4096
ACCESSES = 120
WARMUP = 30

CASES = [(design, False) for design in sorted(PROTOCOL_REGISTRY)] + [("c3d", True)]


def build(design: str, broadcast_filter: bool = False) -> NumaSystem:
    config = SystemConfig.quad_socket(
        protocol=design, num_sockets=2, cores_per_socket=2,
        broadcast_filter=broadcast_filter,
    ).scaled(SCALE)
    return NumaSystem(config)


def facesim(system: NumaSystem):
    return make_workload("facesim", scale=SCALE, accesses_per_thread=ACCESSES,
                         num_threads=system.num_cores, seed=5)


@contextmanager
def collector_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("engine", engines.names())
@pytest.mark.parametrize("design,broadcast_filter", CASES)
def test_finished_machine_is_freed_by_reference_counting(design, broadcast_filter, engine):
    with collector_disabled():
        system = build(design, broadcast_filter)
        workload = facesim(system)
        result = Simulator(system, workload, engine=engine).run(
            prewarm=True, warmup_accesses_per_core=WARMUP
        )
        assert result.accesses_executed > 0
        refs = {
            "system": weakref.ref(system),
            "socket": weakref.ref(system.sockets[1]),
            "protocol": weakref.ref(system.protocol),
            "core": weakref.ref(system.cores[3]),
            "interconnect": weakref.ref(system.interconnect),
            "memory controller": weakref.ref(system.sockets[0].memory),
        }
        del system, workload, result
        alive = [name for name, ref in refs.items() if ref() is not None]
    assert alive == []


@pytest.mark.parametrize("design", ["snoopy", "c3d"])
def test_deep_copy_is_linked_to_itself(design):
    original = build(design)
    workload = facesim(original)
    Simulator(original, workload).run(prewarm=True, max_accesses_per_core=40)
    clone = copy.deepcopy(original)

    assert clone.stats is not original.stats
    assert clone.protocol.system.stats is clone.protocol.stats is clone.stats
    for sock, copied in zip(original.sockets, clone.sockets):
        assert copied is not sock
        assert copied.system.stats is copied.stats is clone.stats
        assert copied.protocol.sockets is clone.sockets
        assert copied.protocol.system.stats is clone.stats
        assert copied.system.protocol.sockets is clone.sockets
    before = original.stats.to_json_dict()
    bytes_before = original.inter_socket_bytes()

    Simulator(clone, workload).run(max_accesses_per_core=80)
    assert clone.stats.to_json_dict() != before
    assert original.stats.to_json_dict() == before
    assert original.inter_socket_bytes() == bytes_before

    # The copy is freed with its last reference too.
    ref = weakref.ref(clone)
    with collector_disabled():
        del clone
        assert ref() is None
