"""The set-up memo: a workload's traces and prewarm fill, built once.

``EngineContext`` keeps the compiled traces of the most recent keyed
workload and the most recent prewarm template, one entry each per process.
A run that reuses them must be indistinguishable from one that built them
afresh, a changed key must miss, and a replaced entry must be freed.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace

import pytest

from repro.caches.dram_cache import DRAMCache
from repro.engines import EngineContext
from repro.experiments.common import DESIGNS, ExperimentContext, ExperimentSettings
from repro.stats.sampling import SamplingPlan
from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.compiled import compile_trace
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import SyntheticWorkload

from ..system.test_engine_equivalence import machine_state

SCALE = 1024
PLAN = SamplingPlan(num_units=3, detail=20, warmup=10, seed=7)


def config_for(protocol, **overrides):
    return SystemConfig.quad_socket(
        protocol=protocol, num_sockets=2, cores_per_socket=2, **overrides
    ).scaled(SCALE)


def workload_for(config, name="facesim"):
    return make_workload(
        name, scale=SCALE, accesses_per_thread=200, num_threads=config.total_cores
    )


def run(protocol, engine, *, workload="facesim", **overrides):
    config = config_for(protocol, **overrides)
    system = NumaSystem(config)
    simulator = Simulator(
        system, workload_for(config, workload), engine=engine,
        sample_plan=PLAN if engine == "sampled" else None,
    )
    result = simulator.run(prewarm=True, warmup_accesses_per_core=50)
    return result.stats.to_json_dict(), machine_state(system)


CASES = [(protocol, engine, False) for protocol in DESIGNS
         for engine in ("compiled", "object", "sampled")] + [("c3d", "compiled", True)]


@pytest.mark.parametrize("protocol,engine,broadcast_filter", CASES)
def test_a_warm_memo_run_equals_a_cold_one(protocol, engine, broadcast_filter):
    EngineContext.clear_memo()
    cold = run(protocol, engine, broadcast_filter=broadcast_filter)
    traces, template = EngineContext._trace_memo, EngineContext._fill_memo
    assert (traces is not None) == (engine != "object")
    assert (template is not None) == (protocol != "baseline")

    warm = run(protocol, engine, broadcast_filter=broadcast_filter)
    # The second run really reused both entries.
    assert EngineContext._trace_memo is traces
    assert EngineContext._fill_memo is template
    assert warm == cold


def test_memoised_traces_equal_a_fresh_compile_after_every_engine_ran():
    EngineContext.clear_memo()
    for engine in ("compiled", "sampled", "object"):
        for protocol in ("baseline", "c3d"):
            run(protocol, engine)
    config = config_for("c3d")
    workload = workload_for(config)
    key, traces = EngineContext._trace_memo
    assert key[0] == workload.trace_key()
    assert sorted(traces) == list(range(config.total_cores))
    layout = NumaSystem(config).layout
    for thread_id, trace in traces.items():
        fresh = compile_trace(workload, thread_id, layout=layout)
        for column in ("addrs", "writes", "gaps", "blocks", "pages"):
            assert getattr(trace, column) == getattr(fresh, column)
        assert trace.length == fresh.length


def test_changed_keys_miss_and_replaced_entries_are_freed():
    EngineContext.clear_memo()
    run("c3d", "compiled")
    _key, traces = EngineContext._trace_memo
    (ranges, geometry), template = EngineContext._fill_memo

    # Another DRAM-cache size (as in a cache-size sweep): the traces are
    # reused, the fill is not.
    base = SystemConfig.quad_socket().dram_cache
    run("c3d", "compiled", dram_cache=replace(base, size_bytes=base.size_bytes // 4))
    assert EngineContext._trace_memo[1] is traces
    smaller = EngineContext._fill_memo[1]
    assert smaller.num_sets == template.num_sets // 4

    # Another predictor table: the same fill ranges into another geometry.
    run("c3d", "compiled", dram_cache=replace(base, predictor_entries=1024))
    (other_ranges, other_geometry), other = EngineContext._fill_memo
    assert other_ranges == ranges and other_geometry != geometry
    assert other.predictor_entries == 1024

    # Another workload misses both, and nothing keeps the old entries.
    dead = [weakref.ref(trace) for trace in traces.values()]
    dead += [weakref.ref(template), weakref.ref(smaller), weakref.ref(other)]
    del traces, template, smaller, other
    run("c3d", "compiled", workload="streamcluster")
    gc.collect()
    assert [ref() for ref in dead] == [None] * len(dead)
    other = workload_for(config_for("c3d"), "streamcluster")
    assert EngineContext._trace_memo[0][0] == other.trace_key()


def test_the_trace_key_covers_every_stream_parameter():
    class Subclass(SyntheticWorkload):
        """May generate other streams from the same spec."""

    workload = workload_for(config_for("c3d"))
    assert workload_for(config_for("baseline")).trace_key() == workload.trace_key()
    variants = [
        SyntheticWorkload(workload.spec, accesses_per_thread=100),
        SyntheticWorkload(workload.spec.with_threads(2), accesses_per_thread=200,
                          layout=workload.layout),
        make_workload("facesim", scale=SCALE, accesses_per_thread=200, num_threads=4, seed=9),
        make_workload("facesim", scale=SCALE * 2, accesses_per_thread=200, num_threads=4),
        SyntheticWorkload(workload.spec, accesses_per_thread=200,
                          layout=replace(workload.layout, page_size=8192)),
        Subclass(workload.spec, accesses_per_thread=200),
    ]
    assert all(variant.trace_key() != workload.trace_key() for variant in variants)


def test_a_figure_loop_compiles_each_thread_once_per_workload(monkeypatch):
    EngineContext.clear_memo()
    batches = []
    templates = []
    real_batches = SyntheticWorkload._batches
    real_init = DRAMCache.__init__

    def counted_batches(self, thread_id):
        batches.append((self.name, thread_id))
        return real_batches(self, thread_id)

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.name == "prewarm template":
            templates.append(self)

    monkeypatch.setattr(SyntheticWorkload, "_batches", counted_batches)
    monkeypatch.setattr(DRAMCache, "__init__", counted_init)
    settings = ExperimentSettings(
        scale=SCALE, accesses_per_thread=60, warmup_accesses_per_thread=20,
        num_sockets=2, cores_per_socket=2,
    )
    context = ExperimentContext(settings)
    workloads = ("facesim", "streamcluster")
    for workload in workloads:
        for design in DESIGNS:
            context.run(workload, design)
    threads = range(settings.total_cores)
    assert batches == [(name, t) for name in workloads for t in threads]
    assert len(templates) == len(workloads)


def test_threads_sharing_the_memo_each_get_their_own_workloads_traces():
    """The memo is process state: another thread may replace an entry
    between any two bytecodes of a lookup, and every run must still get
    the traces of its own workload."""
    EngineContext.clear_memo()
    config = config_for("c3d")
    system = NumaSystem(config)
    workloads = [
        make_workload(name, scale=SCALE, accesses_per_thread=20,
                      num_threads=config.total_cores)
        for name in ("facesim", "streamcluster", "canneal")
    ]
    expected = [
        {t: compile_trace(w, t, layout=system.layout).addrs for t in range(config.total_cores)}
        for w in workloads
    ]
    errors = []

    def worker(offset):
        for i in range(300):
            index = (i + offset) % len(workloads)
            traces = EngineContext(system, workloads[index]).compile_streams()
            if {t: trace.addrs for t, trace in traces.items()} != expected[index]:
                errors.append((offset, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
