"""Tests for the trace-driven simulation driver."""

import pytest

from repro.caches.dram_cache import DRAMCache
from repro.coherence.directory import DirectoryState
from repro.engines import EngineContext
from repro.memory.page_table import PageClassification
from repro.system.config import SystemConfig
from repro.system.numa_system import PROTOCOL_REGISTRY, NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import SyntheticWorkload, WorkloadSpec
from repro.workloads.trace import MemoryAccess

from ..conftest import tiny_config


class ListWorkload:
    """Minimal workload: an explicit list of accesses per thread."""

    def __init__(self, per_thread):
        self.per_thread = per_thread
        self.num_threads = len(per_thread)

    def stream(self, thread_id):
        return iter(self.per_thread[thread_id])


def make_simulator(protocol="c3d", workload=None, **config_kwargs):
    system = NumaSystem(tiny_config(protocol, **config_kwargs))
    if workload is None:
        workload = ListWorkload([[MemoryAccess(addr=i * 64, gap=1) for i in range(50)]])
    return Simulator(system, workload), system


def test_run_executes_all_accesses():
    simulator, system = make_simulator()
    result = simulator.run()
    assert result.accesses_executed == 50
    assert system.stats.reads == 50
    assert result.total_time_ns > 0
    assert result.stats is system.stats


def test_max_accesses_per_core_limits_execution():
    simulator, _system = make_simulator()
    result = simulator.run(max_accesses_per_core=10)
    assert result.accesses_executed == 10


def test_warmup_accesses_are_not_measured():
    simulator, system = make_simulator()
    result = simulator.run(warmup_accesses_per_core=20)
    assert result.accesses_executed == 30
    assert system.stats.reads == 30
    # Warm-up left architectural state behind (caches are warm).
    assert list(system.sockets[0].llc.resident_blocks())


def test_cores_interleave_in_time_order():
    accesses = [[MemoryAccess(addr=(t * 1000 + i) * 64, gap=5) for i in range(30)] for t in range(4)]
    simulator, system = make_simulator(workload=ListWorkload(accesses),
                                       num_sockets=2, cores_per_socket=2)
    result = simulator.run()
    assert result.accesses_executed == 120
    finish_times = list(result.stats.core_finish_ns.values())
    assert len(finish_times) == 4
    # All cores did the same amount of similar work; finish times are comparable.
    assert max(finish_times) < 5 * min(finish_times)


def test_prewarm_fills_dram_caches():
    workload = make_workload("streamcluster", scale=4096, accesses_per_thread=5, num_threads=2)
    system = NumaSystem(tiny_config("c3d", num_sockets=2, cores_per_socket=1))
    inserted = EngineContext(system, workload).prewarm_dram_caches()
    assert inserted > 0
    assert list(system.sockets[0].dram_cache.resident_blocks())


def test_prewarm_is_noop_for_baseline():
    workload = make_workload("streamcluster", scale=4096, accesses_per_thread=5, num_threads=2)
    system = NumaSystem(tiny_config("baseline", num_sockets=2, cores_per_socket=1))
    assert EngineContext(system, workload).prewarm_dram_caches() == 0


def test_prewarm_registers_sharers_for_full_dir():
    workload = make_workload("streamcluster", scale=4096, accesses_per_thread=5, num_threads=2)
    system = NumaSystem(tiny_config("full-dir", num_sockets=2, cores_per_socket=1))
    EngineContext(system, workload).prewarm_dram_caches()
    assert sum(len(directory) for directory in system.directories) > 0


@pytest.mark.parametrize("protocol", ["full-dir", "c3d-full-dir"])
def test_prewarm_pins_the_partial_last_page_it_registers(protocol):
    """First-touch placement pins only a region's whole pages.  The fill
    registers the partial last page's blocks at its interleaved home, so
    the prewarm pins the page there: a first touch from another socket
    must not move it away from the slice that lists its copies."""
    config = SystemConfig.dual_socket(protocol=protocol, cores_per_socket=2).scaled(4096)
    system = NumaSystem(config)
    workload = make_workload("streamcluster", scale=4096, accesses_per_thread=5, num_threads=4)
    context = EngineContext(system, workload)
    context.prepare_first_touch()
    context.prewarm_dram_caches()
    layout = system.layout
    warm = next(region for region in workload.memory_regions() if region["kind"] == "warm")
    assert warm["size"] % layout.page_size and warm["size"] // layout.block_size <= (
        system.sockets[0].dram_cache.num_sets
    )   # a partial last page, and the whole region is in the fill
    last = layout.block_of(warm["base"] + warm["size"] - 1)
    home = system.mapper.home_of_block(last)
    system.mapper.touch_page(layout.page_of_block(last), 1 - home)
    assert system.mapper.home_of_block(last) == home
    assert system.check_invariants() == []


# ----------------------------------------------------------------------
# Prewarm: the shared fill equals a per-socket, per-block fill
# ----------------------------------------------------------------------


def prewarm_fill(system, workload):
    """The block ranges every DRAM cache receives, in insertion order."""
    layout = system.layout
    order = {"cold": 0, "warm": 1, "hot": 2}
    regions = sorted(
        (r for r in workload.memory_regions() if r.get("owner_thread") is None),
        key=lambda r: order.get(r["kind"], 0),
    )
    num_sets = next(s.dram_cache.num_sets for s in system.sockets if s.dram_cache is not None)
    return [
        range(layout.block_of(r["base"]),
              layout.block_of(r["base"]) + min(max(1, r["size"] // layout.block_size), num_sets))
        for r in regions
    ]


def reference_prewarm(system, workload) -> int:
    """Per-socket, per-block prewarm: one ``insert`` and ``add_sharer`` per block."""
    if not system.protocol.uses_dram_cache:
        return 0
    fill = prewarm_fill(system, workload)
    tracks = system.protocol.tracks_dram_cache_in_directory
    for sock in system.sockets:
        for blocks in fill:
            for block in blocks:
                sock.dram_cache.insert(block, dirty=False)
                if tracks:
                    home = system.mapper.home_of_block(block)
                    system.directories[home].add_sharer(block, sock.socket_id)
    return sum(len(blocks) for blocks in fill)


def dram_cache_state(cache):
    """Tags in tag-store order as ``(set index, block, dirty)`` and the
    predictor table in LRU order, read through the public queries."""
    if cache is None:
        return None
    return (
        [(cache.set_index(block), block, cache.dirty_of(block))
         for block in cache.resident_blocks()],
        list(cache._regions.items()),
    )


def directory_state(directory):
    return list(directory.entries()), directory.peak_entries


def record_fills(monkeypatch):
    """Log each DRAM cache's prewarm fill: ``(name, None)`` for a fill of
    its own, ``(name, source name)`` for an adopted one."""
    fills = []
    bulk_insert_clean, share_fill = DRAMCache.bulk_insert_clean, DRAMCache.share_fill

    def own_fill(cache, blocks):
        if (cache.name, None) not in fills:
            fills.append((cache.name, None))
        return bulk_insert_clean(cache, blocks)

    def adopted_fill(cache, source):
        fills.append((cache.name, source.name))
        return share_fill(cache, source)

    monkeypatch.setattr(DRAMCache, "bulk_insert_clean", own_fill)
    monkeypatch.setattr(DRAMCache, "share_fill", adopted_fill)
    return fills


def assert_same_memory_state(system, reference):
    for sock, ref in zip(system.sockets, reference.sockets):
        assert dram_cache_state(sock.dram_cache) == dram_cache_state(ref.dram_cache)
    for directory, ref in zip(system.directories, reference.directories):
        assert directory_state(directory) == directory_state(ref)


def read_only_replay(workload, accesses):
    """The first ``accesses`` accesses of every thread of ``workload``, as reads."""
    return ListWorkload([
        [MemoryAccess(addr=a.addr, gap=a.gap) for a in list(workload.stream(t))[:accesses]]
        for t in range(workload.num_threads)
    ])


@pytest.mark.parametrize("num_sockets", [2, 4])
@pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
def test_prewarm_matches_per_socket_reference(protocol, num_sockets, monkeypatch):
    def build():
        return NumaSystem(tiny_config(protocol, num_sockets=num_sockets, cores_per_socket=1))

    workload = make_workload("facesim", scale=4096, accesses_per_thread=300,
                             num_threads=num_sockets, seed=3)
    system, reference = build(), build()
    EngineContext.clear_memo()
    with monkeypatch.context() as patch:
        fills = record_fills(patch)
        inserted = EngineContext(system, workload).prewarm_dram_caches()
    assert inserted == reference_prewarm(reference, workload)
    assert_same_memory_state(system, reference)
    if system.protocol.uses_dram_cache:
        names = [sock.dram_cache.name for sock in system.sockets]
        template = EngineContext._fill_memo[1].name
        # The fill really is shared, not repeated: a detached template
        # receives it once and every socket's cache adopts it.
        assert fills == [(template, None)] + [(name, template) for name in names]

    # A second prewarm on a used system still matches: the caches are no
    # longer empty, so each gets a fill of its own, and the directories
    # track many of the blocks already, some for fewer sockets than before
    # (DRAM-cache evictions removed those).
    reads = read_only_replay(workload, 300)
    for target in (system, reference):
        Simulator(target, reads).run()
    assert_same_memory_state(system, reference)
    if system.protocol.tracks_dram_cache_in_directory:
        fill_blocks = {block for blocks in prewarm_fill(system, workload) for block in blocks}
        assert any(
            block in fill_blocks and len(entry.sharers) < num_sockets
            for directory in system.directories for block, entry in directory.entries()
        )
    assert EngineContext(system, workload).prewarm_dram_caches() == reference_prewarm(
        reference, workload
    )
    assert_same_memory_state(system, reference)


def test_prewarm_fills_a_used_cache_alone_and_shares_with_the_rest(monkeypatch):
    workload = make_workload("facesim", scale=4096, accesses_per_thread=5, num_threads=4)
    systems = [NumaSystem(tiny_config("c3d", num_sockets=4, cores_per_socket=1))
               for _ in range(2)]
    for system in systems:
        system.sockets[0].dram_cache.insert(3)
    system, reference = systems
    EngineContext.clear_memo()
    with monkeypatch.context() as patch:
        fills = record_fills(patch)
        EngineContext(system, workload).prewarm_dram_caches()
    reference_prewarm(reference, workload)
    assert_same_memory_state(system, reference)
    used, *rest = (sock.dram_cache.name for sock in system.sockets)
    template = EngineContext._fill_memo[1].name
    assert fills == [(used, None), (template, None)] + [(name, template) for name in rest]


def test_prewarm_shares_the_fill_at_figure_scale():
    """The quick-fidelity machine (16,384 sets): the contiguous bulk path."""
    config = SystemConfig.quad_socket(protocol="c3d-full-dir", num_sockets=2).scaled(1024)
    workload = make_workload("facesim", scale=1024, accesses_per_thread=10, num_threads=8)
    system, reference = NumaSystem(config), NumaSystem(config)
    inserted = EngineContext(system, workload).prewarm_dram_caches()
    # The cap is per region: 4,096 cold + 16,384 warm + 2,560 hot blocks.
    assert inserted == reference_prewarm(reference, workload) == 23040
    assert system.sockets[0].dram_cache.num_sets == 16384
    assert_same_memory_state(system, reference)


def test_shared_prewarm_sharer_sets_are_never_mutated():
    workload = make_workload("facesim", scale=4096, accesses_per_thread=5, num_threads=2)
    system = NumaSystem(tiny_config("c3d-full-dir", num_sockets=2, cores_per_socket=1))
    EngineContext(system, workload).prewarm_dram_caches()
    directory = next(d for d in system.directories if len(d) >= 3)
    (first, entry), (second, _), (third, _) = list(directory.entries())[:3]
    assert entry.sharers == {0, 1}

    directory.remove_sharer(first, 1)
    directory.add_sharer(first, 1)
    directory.remove_sharer(first, 0)
    directory.set_modified(third, owner=1)
    assert directory.decode(first).sharers == {1}
    assert directory.decode(third) == (DirectoryState.MODIFIED, 1, frozenset({1}))
    assert directory.decode(second) == (DirectoryState.SHARED, None, frozenset({0, 1}))


@pytest.mark.parametrize("cores_per_socket", [1, 2])
def test_prewarm_keeps_broadcast_filter_coherent(cores_per_socket):
    """Prewarmed pages are shared: a private classification must not skip
    the broadcast that invalidates another socket's prewarmed copy."""
    for seed in range(6):
        config = SystemConfig.quad_socket(
            protocol="c3d", num_sockets=2, cores_per_socket=cores_per_socket,
            broadcast_filter=True,
        ).scaled(1024)
        system = NumaSystem(config)
        workload = make_workload("facesim", scale=1024, accesses_per_thread=700,
                                 num_threads=config.total_cores, seed=seed)
        Simulator(system, workload, engine="compiled").run(
            warmup_accesses_per_core=100, prewarm=True
        )
        assert system.check_invariants() == [], seed


def test_prewarm_classifies_filled_pages_shared():
    workload = make_workload("facesim", scale=4096, accesses_per_thread=5, num_threads=2)
    system = NumaSystem(tiny_config("c3d", num_sockets=2, cores_per_socket=1,
                                    broadcast_filter=True))
    EngineContext(system, workload).prewarm_dram_caches()
    layout = system.layout
    pages = {layout.page_of_block(block)
             for blocks in prewarm_fill(system, workload) for block in blocks}
    page_table = system.page_classifier.page_table
    assert {entry.page for entry in page_table} == pages
    assert all(entry.classification is PageClassification.SHARED for entry in page_table)


def test_prewarmed_pages_count_as_touched_only_once_a_thread_touches_them():
    """Page owners cover the touched pages, not the untouched ones the
    prewarm marked shared."""
    workload = make_workload("facesim", scale=4096, accesses_per_thread=40, num_threads=2)
    system = NumaSystem(tiny_config("c3d", num_sockets=2, cores_per_socket=1,
                                    broadcast_filter=True))
    Simulator(system, workload).run(prewarm=True)
    touched = {system.layout.page_of(access.addr)
               for thread in range(2) for access in workload.stream(thread)}
    classifier = system.page_classifier
    assert len(classifier.page_table) > len(touched)
    assert {entry.page for entry in classifier.page_table
            if entry.owner_thread is not None} == touched


def test_ft2_pins_private_pages_to_owner_socket():
    spec = WorkloadSpec(
        name="unit", num_threads=2,
        private_bytes_per_thread=4096, hot_shared_bytes=4096,
        warm_shared_bytes=8192, cold_shared_bytes=0,
        p_private=0.5, p_hot=0.2, p_warm=0.3, p_cold=0.0,
    )
    workload = SyntheticWorkload(spec, accesses_per_thread=5)
    system = NumaSystem(
        tiny_config("c3d", num_sockets=2, cores_per_socket=1, allocation_policy="ft2")
    )
    simulator = Simulator(system, workload)
    simulator.run(max_accesses_per_core=1)
    layout = system.layout
    regions = workload.memory_regions()
    for region in regions:
        page = layout.page_of(region["base"])
        home = system.policy.home_of_page(page)
        if region["owner_thread"] is not None:
            expected = system.config.socket_of_core(region["owner_thread"])
            assert home == expected


def test_ft1_pins_shared_pages_to_socket_zero():
    workload = make_workload("streamcluster", scale=4096, accesses_per_thread=5, num_threads=2)
    system = NumaSystem(
        tiny_config("c3d", num_sockets=2, cores_per_socket=1, allocation_policy="ft1")
    )
    Simulator(system, workload).run(max_accesses_per_core=1)
    pages = workload.serial_init_pages()
    assert pages
    assert all(system.policy.home_of_page(page) == 0 for page in pages[:16])


def test_invariants_hold_after_a_synthetic_run():
    workload = make_workload("facesim", scale=4096, accesses_per_thread=150, num_threads=4)
    for protocol in ("baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir"):
        system = NumaSystem(tiny_config(protocol, num_sockets=2, cores_per_socket=2))
        Simulator(system, workload).run()
        assert system.check_invariants() == [], protocol
