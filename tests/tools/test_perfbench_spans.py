"""perfbench's per-layer trace keeps reaching every layer it reached.

perfbench (BENCHMARK.json) wraps the simulator's public entry points from
outside and reports each layer's calls and self time.  A change that
reaches a layer some other way -- a fused helper that bypasses a wrapped
entry point, a bound method cached before the wrapper goes in, a renamed
set-up method -- would silently zero that layer's count.  This test runs
one traced pass of each of perfbench's tiny workloads and checks that every
span those passes recorded when the pins were taken still records calls.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Span names with calls in one traced pass of each tiny workload, at the
#: spec seeds.
REACHED = {
    "fig6-grid": {
        "caches.dram_probe", "caches.sram_insert", "caches.sram_lookup",
        "coherence.read_miss", "coherence.write_miss", "cpu.execute_fast",
        "engines.run", "interconnect.send", "memory.read", "setup.construct",
        "setup.first_touch", "setup.prewarm", "system.access_l1_missed",
        "system.simulator_run", "workloads.compile",
    },
    "l1-resident": {
        "caches.dram_probe", "caches.sram_insert", "caches.sram_lookup",
        "coherence.read_miss", "coherence.write_miss", "cpu.execute_fast",
        "engines.run", "interconnect.send", "memory.read", "setup.construct",
        "setup.first_touch", "setup.prewarm", "system.access_l1_missed",
        "system.simulator_run", "workloads.compile",
    },
    "sampled-sweep": {
        "caches.dram_insert", "caches.dram_probe", "caches.sram_insert",
        "caches.sram_lookup", "coherence.functional", "coherence.llc_eviction",
        "coherence.read_miss", "coherence.write_miss", "cpu.execute_fast",
        "engines.functional", "engines.run", "engines.window",
        "experiments.run_sweep", "interconnect.send", "memory.read", "memory.write",
        "setup.construct", "setup.first_touch", "setup.prewarm", "stats.store_get",
        "stats.store_put", "system.access_functional", "system.access_l1_missed",
        "system.simulator_run", "workloads.compile",
    },
}


def _perfbench():
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    return spans, workloads


def test_the_pins_cover_every_tiny_workload():
    _spans, workloads = _perfbench()
    assert set(REACHED) == set(workloads.TINY_WORKLOADS)


@pytest.mark.parametrize("name", sorted(REACHED))
def test_a_traced_pass_still_reaches_every_pinned_span(name, tmp_path):
    spans, workloads = _perfbench()
    tracer = spans.Tracer(layers=True)
    with spans.instrumented(tracer):
        result = workloads.TINY_WORKLOADS[name].run_pass(tracer, None, tmp_path, lambda: None)
    assert result.failures == {}
    calls = {span: entry["calls"] for span, entry in tracer.by_name().items()}
    assert {span for span in REACHED[name] if not calls.get(span)} == set()
