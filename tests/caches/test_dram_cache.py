"""Tests for the direct-mapped DRAM cache (clean and dirty modes)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caches.dram_cache import DRAMCache
from repro.caches.miss_predictor import RegionMissPredictor


def make_cache(size=1024, clean=True, predictor=False):
    mp = RegionMissPredictor(entries=16, region_size=256) if predictor else None
    return DRAMCache(size, clean=clean, miss_predictor=mp)


def test_direct_mapped_geometry():
    cache = make_cache(size=1024)
    assert cache.num_sets == 16
    assert cache.set_index(0) == 0
    assert cache.set_index(16) == 0


def test_probe_miss_then_hit():
    cache = make_cache()
    probe = cache.probe(3)
    assert not probe.hit
    cache.insert(3)
    probe = cache.probe(3)
    assert probe.hit and probe.array_accessed


def test_direct_mapped_conflict_eviction():
    cache = make_cache(size=1024)
    cache.insert(0)
    victim = cache.insert(16)  # same set
    assert victim is not None and victim.block == 0
    assert not cache.contains(0)
    assert cache.contains(16)


def test_clean_mode_never_stores_dirty():
    cache = make_cache(clean=True)
    cache.insert(5, dirty=True)
    assert not cache.peek(5).dirty
    # Clean victims never require a write-back.
    victim = cache.insert(5 + cache.num_sets, dirty=True)
    assert victim is not None and not victim.needs_writeback


def test_dirty_mode_stores_and_reports_dirty_victims():
    cache = make_cache(clean=False)
    cache.insert(5, dirty=True)
    assert cache.peek(5).dirty
    victim = cache.insert(5 + cache.num_sets)
    assert victim.needs_writeback
    assert cache.dirty_evictions == 1


def test_reinsert_same_block_keeps_dirty_bit():
    cache = make_cache(clean=False)
    cache.insert(5, dirty=True)
    cache.insert(5, dirty=False)
    assert cache.peek(5).dirty


def test_invalidate():
    cache = make_cache()
    cache.insert(9)
    line = cache.invalidate(9)
    assert line is not None
    assert not cache.contains(9)
    assert cache.invalidations == 1
    assert cache.invalidate(9) is None


def test_mark_clean():
    cache = make_cache(clean=False)
    cache.insert(4, dirty=True)
    cache.mark_clean(4)
    assert not cache.peek(4).dirty


def test_predictor_skips_array_on_confident_miss():
    cache = make_cache(predictor=True)
    probe = cache.probe(7)
    assert not probe.hit and not probe.array_accessed
    assert cache.predictor_bypasses == 1


def test_predictor_mispredict_still_finds_resident_block():
    # Thrash the predictor's region table so it forgets a resident block.
    predictor = RegionMissPredictor(entries=1, region_size=64)
    cache = DRAMCache(64 * 64, miss_predictor=predictor)
    cache.insert(0)
    cache.insert(50)   # displaces region 0 from the 1-entry table
    probe = cache.probe(0)
    assert probe.hit
    assert probe.array_accessed


def test_hit_rate_and_occupancy():
    cache = make_cache()
    cache.insert(1)
    cache.probe(1)
    cache.probe(2)
    assert cache.hit_rate() == pytest.approx(0.5)
    assert cache.occupancy() == 1
    assert list(cache.resident_blocks()) == [1]
    cache.clear()
    assert cache.occupancy() == 0


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        DRAMCache(0)
    with pytest.raises(ValueError):
        DRAMCache(32, block_size=64)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=300),
       st.booleans())
def test_clean_cache_invariant_holds_under_any_insertion_sequence(blocks, dirty):
    cache = DRAMCache(1024, clean=True)
    for block in blocks:
        cache.insert(block, dirty=dirty)
    assert all(not cache.peek(b).dirty for b in cache.resident_blocks())
    assert cache.occupancy() <= cache.num_sets


def cache_state(cache):
    """Tags (in storage order), eviction counters and predictor LRU table."""
    predictor = cache.miss_predictor
    return (
        [(index, line.block, line.state, line.dirty) for index, line in cache._lines.items()],
        [(index, [(block, line.dirty) for block, line in lines.items()])
         for index, lines in cache._sets.items()],
        cache.evictions,
        cache.dirty_evictions,
        None if predictor is None else (list(predictor._table.items()),
                                        predictor.region_displacements),
    )


def build_cache(num_sets, associativity, predictor_entries, region_blocks):
    predictor = (
        RegionMissPredictor(entries=predictor_entries, region_size=64 * region_blocks)
        if predictor_entries else None
    )
    return DRAMCache(64 * num_sets * associativity, associativity=associativity,
                     clean=False, miss_predictor=predictor)


fill_inputs = st.one_of(
    # Contiguous: the vectorised path when it fits, wrap-around otherwise.
    st.builds(lambda start, length: range(start, start + length),
              st.integers(0, 300), st.integers(1, 80)),
    # Non-contiguous (and possibly repeating) blocks: the per-block loop.
    st.lists(st.integers(0, 300), min_size=1, max_size=80),
)


@settings(max_examples=300, deadline=None)
@given(
    # Set counts that are not a multiple of the region size let one
    # predictor region straddle the wrap-around of a contiguous fill.
    num_sets=st.sampled_from([4, 6, 16, 24, 64]),
    associativity=st.sampled_from([1, 1, 2]),
    predictor_entries=st.sampled_from([0, 1, 2, 4, 64]),
    region_blocks=st.sampled_from([1, 4, 16]),
    before=st.lists(st.tuples(st.integers(0, 300), st.booleans()), max_size=60),
    fills=st.lists(fill_inputs, min_size=1, max_size=3),
)
# A wrapped fill whose straddling region evicts lines of four other regions:
# the victims must reach the predictor in block order, not set order.
@example(num_sets=6, associativity=1, predictor_entries=64, region_blocks=4,
         before=[(100, False), (107, False), (108, False), (115, False)],
         fills=[range(4, 10)])
def test_bulk_insert_clean_matches_per_block_insert(
    num_sets, associativity, predictor_entries, region_blocks, before, fills
):
    """Randomized bulk-fill equivalence: ``bulk_insert_clean`` leaves the same
    tags, predictor table (in LRU order) and counters as ``insert`` per block,
    on empty and pre-populated (partly dirty) caches and tiny predictor tables."""
    bulk = build_cache(num_sets, associativity, predictor_entries, region_blocks)
    loop = build_cache(num_sets, associativity, predictor_entries, region_blocks)
    for cache in (bulk, loop):
        for block, dirty in before:
            cache.insert(block, dirty=dirty)
    for blocks in fills:
        assert bulk.bulk_insert_clean(blocks) == len(blocks)
        for block in blocks:
            loop.insert(block, dirty=False)
        assert cache_state(bulk) == cache_state(loop)


@pytest.mark.parametrize("associativity", [1, 2])
def test_shared_fill_equals_a_replayed_fill(associativity):
    def build():
        predictor = RegionMissPredictor(entries=4, region_size=256)
        return DRAMCache(64 * 32, associativity=associativity, clean=False,
                         miss_predictor=predictor)

    source, shared, replayed = build(), build(), build()
    before = source.fill_counts()
    fill = [range(0, 40), range(64, 90), range(8, 12)]
    for blocks in fill:
        source.bulk_insert_clean(blocks)
        replayed.bulk_insert_clean(blocks)
    assert shared.is_empty()
    shared.share_fill(source, before)
    assert cache_state(shared) == cache_state(replayed) == cache_state(source)
    assert shared.evictions > 0 and shared.miss_predictor.region_displacements > 0
    with pytest.raises(ValueError):
        shared.share_fill(source, before)  # no longer empty
    with pytest.raises(ValueError):
        DRAMCache(64 * 64).share_fill(source, before)  # other geometry


@pytest.mark.parametrize("associativity", [1, 2])
def test_shared_line_is_unchanged_by_the_other_cache(associativity):
    """Two sockets' caches hold one line object after ``share_fill``: an
    ``insert``, ``mark_clean`` or ``invalidate`` of that block through one
    cache leaves the other's line as it was."""
    source = DRAMCache(64 * 16 * associativity, associativity=associativity, clean=False)
    source.insert(5, dirty=True)
    source.insert(6)
    copy = DRAMCache(64 * 16 * associativity, associativity=associativity, clean=False)
    copy.share_fill(source, source.fill_counts())
    dirty_line, clean_line = source.peek(5), source.peek(6)
    assert copy.peek(5) is dirty_line and copy.peek(6) is clean_line

    copy.mark_clean(5)
    copy.insert(6, dirty=True)
    assert not copy.peek(5).dirty and copy.peek(6).dirty
    copy.invalidate(5)
    copy.insert(6 + copy.num_sets * associativity)  # conflict in 6's set
    copy.insert(6 + 2 * copy.num_sets * associativity)
    assert source.peek(5) is dirty_line and dirty_line.dirty
    assert source.peek(6) is clean_line and not clean_line.dirty


def test_mark_clean_keeps_the_lru_position():
    cache = DRAMCache(64 * 2, associativity=2, clean=False)
    cache.insert(0, dirty=True)
    cache.insert(1)
    cache.mark_clean(0)
    victim = cache.insert(2)
    assert victim.block == 0 and not victim.dirty


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 200), st.booleans()), min_size=1, max_size=200))
def test_predictor_and_cache_agree_on_absence(ops):
    """If the predictor says "absent" for an untracked/cleared block and the
    table has not displaced the region, the block really is absent."""
    predictor = RegionMissPredictor(entries=1024, region_size=256)
    cache = DRAMCache(4096, miss_predictor=predictor)
    for block, invalidate in ops:
        if invalidate:
            cache.invalidate(block)
        else:
            cache.insert(block)
    for block, _ in ops:
        if predictor.predicts_miss(block):
            assert not cache.contains(block)
