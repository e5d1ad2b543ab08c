"""Differential harness: compiled == object, byte for byte.

Property-based counterpart to ``tests/system/test_engine_equivalence.py``:
instead of a handful of curated workloads, hypothesis composes random
per-thread traces (one, two or four threads on a machine of two sockets with
two cores each) from adversarial building blocks -- dwell runs that sit
on one block (long hit runs), sweeps that walk fresh blocks (miss trains),
ping-pongs over a shared block pair (coherence traffic), store bursts that
overflow the store buffer, and write-then-read pairs that exercise
store-to-load forwarding -- then runs the default ``compiled`` engine and
the ``object`` reference engine over the same trace and requires
bit-identical statistics and a coherent machine after each run.
"""

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the CI test env
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.trace import MemoryAccess

PROTOCOLS = ("baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir")
BLOCK = 64
#: Thread counts drawn for the dual-socket, 2-cores-per-socket machine: a
#: phase that starts with one or two active streams is ordered by the same
#: heap as one with four.
THREAD_COUNTS = (1, 2, 4)

#: Region bases: one private region per thread plus two regions shared by
#: every thread (the shared ones generate invalidations and downgrades of
#: other cores' lines).
_PRIVATE_BASE = 0x400_0000
_SHARED_A = 0x10_0000
_SHARED_B = 0x20_0000
_REGION_BLOCKS = 96


class _ListWorkload:
    """Minimal workload frontend: fixed per-thread MemoryAccess lists."""

    name = "differential"

    def __init__(self, per_thread):
        self._per_thread = per_thread
        self.num_threads = len(per_thread)

    def stream(self, thread_id):
        return iter(self._per_thread[thread_id])


def _segment_accesses(thread_id, seg):
    """Materialise one (kind, region, start, length, write, gap) segment."""
    kind, region, start, length, write, gap = seg
    if region == "private":
        base = _PRIVATE_BASE + thread_id * _REGION_BLOCKS * BLOCK * 2
    elif region == "shared-a":
        base = _SHARED_A
    else:
        base = _SHARED_B
    out = []
    for i in range(length):
        if kind == "dwell":
            block = start
        elif kind == "sweep":
            block = start + i
        else:  # ping-pong between two neighbouring blocks
            block = start + (i & 1)
        addr = base + (block % _REGION_BLOCKS) * BLOCK
        if kind == "forward":
            # Write then immediately read back: store-to-load forwarding.
            is_write = (i & 1) == 0
        else:
            is_write = write
        out.append(MemoryAccess(addr=addr, is_write=is_write, gap=gap))
    return out


_segment = st.tuples(
    st.sampled_from(("dwell", "sweep", "pingpong", "forward")),
    st.sampled_from(("private", "shared-a", "shared-b")),
    st.integers(min_value=0, max_value=_REGION_BLOCKS - 1),
    st.integers(min_value=1, max_value=48),
    st.booleans(),
    st.integers(min_value=0, max_value=3),
)

_thread_trace = st.lists(_segment, min_size=1, max_size=6)


def _key(result):
    stats = result.stats
    return (
        result.accesses_executed,
        result.inter_socket_bytes,
        result.total_time_ns,
        tuple(sorted(stats.as_dict().items())),
        tuple(sorted(stats.core_finish_ns.items())),
    )


def _run(protocol, engine, per_thread, warmup):
    config = SystemConfig.dual_socket(
        protocol=protocol, num_sockets=2, cores_per_socket=2
    ).scaled(1024)
    system = NumaSystem(config)
    workload = _ListWorkload(per_thread)
    simulator = Simulator(system, workload, engine=engine)
    result = simulator.run(prewarm=True, warmup_accesses_per_core=warmup)
    assert system.check_invariants() == []
    return _key(result)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    traces=st.sampled_from(THREAD_COUNTS).flatmap(
        lambda threads: st.lists(_thread_trace, min_size=threads, max_size=threads)
    ),
    warmup=st.sampled_from((0, 7)),
)
def test_engines_bit_identical_on_random_interleavings(protocol, traces, warmup):
    per_thread = [
        [a for seg in thread_segments for a in _segment_accesses(tid, seg)]
        for tid, thread_segments in enumerate(traces)
    ]
    reference = _run(protocol, "object", per_thread, warmup)
    assert _run(protocol, "compiled", per_thread, warmup) == reference

