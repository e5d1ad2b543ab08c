"""Engine equivalence: every registered engine against the reference engine.

The ``object`` engine is the semantic reference (the seed-style
one-``MemoryAccess``-at-a-time path).  Every *exact* engine in the registry
must match it bit for bit -- every reported counter, the derived floats,
which are sensitive to operation order, and the machine state the run
leaves behind (:func:`machine_state`), so a path that drops a dirty bit or
reorders an LRU set without moving a counter fails too.  *Sampling* engines
(``supports_sampling``) cannot be bit-identical by design; they instead
prove that the exact run's value lies inside every reported confidence
interval (the same containment contract ``tools/check_sampling.py``
validates at full width).

The matrix runs over the registry (``engines.names()``) crossed with the
three workload frontends -- synthetic registry benchmarks, composed
scenarios, and recorded trace-directory replays -- so a newly registered
engine is pulled into the proof automatically.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import engines
from repro.stats.sampling import SamplingPlan
from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.compiled import compile_trace
from repro.workloads.registry import make_workload
from repro.workloads.scenario import build_workload
from repro.workloads.trace_io import record_workload

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_sampling", REPO_ROOT / "tools" / "check_sampling.py"
)
check_sampling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_sampling)

SCALE = 1024
ACCESSES = 300
WARMUP = 100

REFERENCE_ENGINE = "object"

#: Containment plan for sampling engines in the workload-kind matrix: wide
#: on purpose (99% confidence + bias floor) -- the matrix proves the
#: contract holds on every frontend, tools/check_sampling.py measures how
#: tight the intervals are.
SAMPLING_PLAN = SamplingPlan(
    num_units=3, detail=40, warmup=25, confidence=0.99, bias_floor=0.05, seed=7
)

WORKLOAD_KINDS = ("synthetic", "scenario", "trace-replay")


def exact_engine_names():
    """Registered engines that promise bit-exact statistics."""
    return [
        name for name in engines.names() if not engines.get(name).supports_sampling
    ]


def engines_under_test():
    """Exact engines compared against the reference (which needs no self-test)."""
    return [name for name in exact_engine_names() if name != REFERENCE_ENGINE]


#: Reference runs are deterministic; share one per (protocol, warmup) so the
#: slowest engine is not re-simulated for every parametrized comparison.
_reference_cache = {}


def run_engine(protocol: str, engine: str, *, warmup: int = 0, prewarm: bool = True,
               sample_plan=None, broadcast_filter: bool = False):
    config = SystemConfig.quad_socket(
        protocol=protocol, broadcast_filter=broadcast_filter
    ).scaled(SCALE)
    system = NumaSystem(config)
    workload = make_workload(
        "facesim", scale=SCALE, accesses_per_thread=ACCESSES,
        num_threads=config.total_cores,
    )
    simulator = Simulator(system, workload, engine=engine, sample_plan=sample_plan)
    result = simulator.run(prewarm=prewarm, warmup_accesses_per_core=warmup)
    return result, machine_state(system)


def machine_state(system):
    """Everything a run leaves in the machine, in a comparable form.

    Per socket: each L1's and the LLC's lines (block and state bits, each
    set in LRU order), the local-directory entries, the DRAM cache's
    resident and dirty blocks and its miss predictor's table (in LRU
    order), and each memory channel's ``busy_until`` and ``last_arrival``.
    Then the global-directory entries, the same two times for each
    inter-socket link, the page-table entries (page, owner thread,
    classification) when the broadcast filter is on, and per core its clock
    and the stores still in flight at that clock (a store whose completion
    time has passed can never forward or stall again, and the scalar path
    drops it only at its next purge).
    """
    sockets = [
        (
            [list(l1.lines()) for l1 in sock.l1s],
            list(sock.llc.lines()),
            list(sock.local_directory.entries()),
            None if sock.dram_cache is None else (
                list(sock.dram_cache.resident_blocks()),
                list(sock.dram_cache.dirty_blocks()),
                list(sock.dram_cache._regions.items()),
            ),
            [(channel.busy_until, channel.last_arrival) for channel in sock.memory.channels],
        )
        for sock in system.sockets
    ]
    directories = [list(directory.entries()) for directory in system.directories]
    links = [
        (pair, link.busy_until, link.last_arrival)
        for pair, link in system.interconnect._links.items()
    ]
    classifier = system.page_classifier
    pages = None if classifier is None else [
        (entry.page, entry.owner_thread, entry.classification)
        for entry in classifier.page_table
    ]
    cores = [
        (core.time, [entry for entry in core.store_buffer._entries if entry[0] > core.time])
        for core in system.cores
    ]
    return sockets, directories, links, pages, cores


def reference_run(protocol: str, *, warmup: int = 0, broadcast_filter: bool = False):
    key = (protocol, warmup, broadcast_filter)
    if key not in _reference_cache:
        _reference_cache[key] = run_engine(
            protocol, REFERENCE_ENGINE, warmup=warmup, broadcast_filter=broadcast_filter
        )
    return _reference_cache[key]


def assert_bit_identical(reference, other):
    """Compare two ``(result, machine state)`` runs."""
    (reference, reference_state), (other, other_state) = reference, other
    assert other.accesses_executed == reference.accesses_executed
    assert other.inter_socket_bytes == reference.inter_socket_bytes
    # Exact float equality is intended: same operation order, same results.
    assert other.total_time_ns == reference.total_time_ns
    assert other.stats.as_dict() == reference.stats.as_dict()
    assert other.stats.core_finish_ns == reference.stats.core_finish_ns
    assert other_state == reference_state


# ----------------------------------------------------------------------
# Exact engines x coherence designs (bit-identical)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", engines_under_test())
@pytest.mark.parametrize("protocol", ["baseline", "c3d"])
def test_exact_engines_produce_identical_statistics(protocol, engine):
    reference = reference_run(protocol)
    assert_bit_identical(reference, run_engine(protocol, engine))


@pytest.mark.parametrize("engine", engines_under_test())
@pytest.mark.parametrize("protocol", ["baseline", "c3d"])
def test_exact_engines_identical_across_warmup_reset(protocol, engine):
    """The warm-up phase boundary (stats reset) must not diverge either."""
    reference, reference_state = reference_run(protocol, warmup=WARMUP)
    other, other_state = run_engine(protocol, engine, warmup=WARMUP)
    assert other.stats.as_dict() == reference.stats.as_dict()
    assert other.inter_socket_bytes == reference.inter_socket_bytes
    assert other_state == reference_state


@pytest.mark.parametrize("engine", engines_under_test())
@pytest.mark.parametrize("protocol", ["full-dir", "snoopy", "c3d-full-dir"])
def test_exact_engines_identical_for_other_designs(protocol, engine):
    """The remaining evaluated designs ride on the same access path."""
    reference, reference_state = reference_run(protocol)
    other, other_state = run_engine(protocol, engine)
    assert other.stats.as_dict() == reference.stats.as_dict()
    assert other.inter_socket_bytes == reference.inter_socket_bytes
    assert other_state == reference_state


@pytest.mark.parametrize("engine", engines_under_test())
def test_exact_engines_identical_with_broadcast_filter(engine):
    """c3d with the broadcast filter, prewarmed: the filter's input is the
    page classifier, and each engine loop feeds it in its own way."""
    reference, reference_state = reference_run("c3d", broadcast_filter=True)
    # The filter must actually elide broadcasts here, or this proves nothing.
    assert reference.stats.broadcasts_elided > 0
    assert_bit_identical(
        (reference, reference_state), run_engine("c3d", engine, broadcast_filter=True)
    )


# ----------------------------------------------------------------------
# Every registered engine x every workload frontend
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded_trace_dir(tmp_path_factory):
    """A facesim workload recorded to a trace directory (replayed below)."""
    config = SystemConfig.dual_socket(num_sockets=2, cores_per_socket=2).scaled(SCALE)
    workload = make_workload(
        "facesim", scale=SCALE, accesses_per_thread=ACCESSES,
        num_threads=config.total_cores, seed=11,
    )
    trace_dir = tmp_path_factory.mktemp("engine-matrix") / "facesim"
    record_workload(workload, trace_dir, trace_format="bin")
    return str(trace_dir)


def _matrix_workload(kind: str, config, trace_dir: str):
    if kind == "synthetic":
        return make_workload(
            "facesim", scale=SCALE, accesses_per_thread=ACCESSES,
            num_threads=config.total_cores, seed=11,
        )
    if kind == "scenario":
        return build_workload(
            num_sockets=config.num_sockets,
            cores_per_socket=config.cores_per_socket,
            workload="facesim", trace_dir=None, scenario="het-dual",
            scale=SCALE, accesses_per_thread=ACCESSES, seed=11,
        )
    assert kind == "trace-replay"
    return build_workload(
        num_sockets=config.num_sockets,
        cores_per_socket=config.cores_per_socket,
        workload="facesim", trace_dir=trace_dir, scenario=None,
        scale=SCALE, accesses_per_thread=ACCESSES, seed=11,
    )


def _run_matrix(kind: str, engine: str, trace_dir: str, sample_plan=None):
    config = SystemConfig.dual_socket(
        protocol="c3d", num_sockets=2, cores_per_socket=2
    ).scaled(SCALE)
    system = NumaSystem(config)
    workload = _matrix_workload(kind, config, trace_dir)
    simulator = Simulator(system, workload, engine=engine, sample_plan=sample_plan)
    result = simulator.run(prewarm=True)
    return result, system


@pytest.fixture(scope="module")
def matrix_references(recorded_trace_dir):
    """One shared reference run and its machine state per workload frontend
    (deterministic)."""
    references = {}
    for kind in WORKLOAD_KINDS:
        result, system = _run_matrix(kind, REFERENCE_ENGINE, recorded_trace_dir)
        references[kind] = result, machine_state(system)
    return references


def matrix_engines():
    """Every registered engine except the reference (it backs the fixture)."""
    return [name for name in engines.names() if name != REFERENCE_ENGINE]


@pytest.mark.parametrize("engine", matrix_engines())
@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_engine_matrix_over_workload_frontends(kind, engine, recorded_trace_dir,
                                               matrix_references):
    reference, reference_state = matrix_references[kind]
    engine_cls = engines.get(engine)
    if engine_cls.supports_sampling:
        sampled, system = _run_matrix(
            kind, engine, recorded_trace_dir, sample_plan=SAMPLING_PLAN
        )
        assert system.check_invariants() == []
        summary = sampled.stats.sampling
        assert summary is not None and summary.metrics
        failures = check_sampling.check_containment(reference.stats, sampled.stats)
        assert failures == []
        assert summary.covered_accesses == reference.accesses_executed
    else:
        result, system = _run_matrix(kind, engine, recorded_trace_dir)
        assert system.check_invariants() == []
        assert_bit_identical((reference, reference_state), (result, machine_state(system)))


# ----------------------------------------------------------------------
# Trace compilation (the representation the compiled and sampled engines run)
# ----------------------------------------------------------------------


def test_compiled_trace_matches_stream():
    """compile_trace materialises exactly the stream() access sequence."""
    workload = make_workload("facesim", scale=SCALE, accesses_per_thread=257)
    trace = compile_trace(workload, 3)
    stream = list(workload.stream(3))
    assert trace.length == len(stream) == 257
    assert trace.addrs == [a.addr for a in stream]
    assert trace.writes == [a.is_write for a in stream]
    assert trace.gaps == [a.gap for a in stream]
    block_size = workload.layout.block_size
    page_size = workload.layout.page_size
    assert trace.blocks == [a.addr // block_size for a in stream]
    assert trace.pages == [a.addr // page_size for a in stream]


def test_generic_compile_fallback_matches_vectorised():
    """Workloads without a vectorised compiler go through stream() draining."""
    workload = make_workload("facesim", scale=SCALE, accesses_per_thread=128)

    class Plain:
        num_threads = workload.num_threads
        layout = workload.layout

        def stream(self, thread_id):
            return workload.stream(thread_id)

    fast = compile_trace(workload, 0)
    slow = compile_trace(Plain(), 0)
    assert fast.addrs == slow.addrs
    assert fast.writes == slow.writes
    assert fast.gaps == slow.gaps
    assert fast.blocks == slow.blocks
    assert fast.pages == slow.pages
