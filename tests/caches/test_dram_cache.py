"""Tests for the direct-mapped DRAM cache (clean and dirty modes)."""

import gc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caches.dram_cache import DRAMCache

from ..conftest import predicts_miss


def make_cache(size=1024, clean=True):
    return DRAMCache(size, clean=clean, predictor_entries=16, region_size=256)


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
    assert victim == (0, False)
    assert not cache.contains(0)
    assert cache.contains(16)


def test_clean_mode_never_stores_dirty():
    cache = make_cache(clean=True)
    cache.insert(5, dirty=True)
    assert cache.dirty_of(5) is False
    # Clean victims never require a write-back.
    victim = cache.insert(5 + cache.num_sets, dirty=True)
    assert victim == (5, False)


def test_dirty_mode_stores_and_reports_dirty_victims():
    cache = make_cache(clean=False)
    cache.insert(5, dirty=True)
    assert cache.dirty_of(5) is True
    victim = cache.insert(5 + cache.num_sets)
    assert victim == (5, True)


def test_reinsert_same_block_keeps_dirty_bit():
    cache = make_cache(clean=False)
    cache.insert(5, dirty=True)
    assert cache.insert(5, dirty=False) is None
    assert cache.dirty_of(5) is True


def test_invalidate():
    cache = make_cache()
    cache.insert(9)
    assert cache.invalidate(9) is True
    assert not cache.contains(9)
    assert cache.dirty_of(9) is None
    assert cache.invalidate(9) is False
    assert cache.invalidate(9 + cache.num_sets) is False  # same set, other block


def test_mark_clean():
    cache = make_cache(clean=False)
    cache.insert(4, dirty=True)
    cache.mark_clean(4)
    assert cache.dirty_of(4) is False
    cache.mark_clean(4 + cache.num_sets)  # not resident: no effect
    assert cache.dirty_of(4) is False and cache.dirty_of(4 + cache.num_sets) is None


def test_dirty_of_and_dirty_blocks():
    cache = DRAMCache(64 * 8, clean=False)
    assert cache.dirty_of(3) is None
    cache.insert(3, dirty=True)
    cache.insert(4)
    cache.insert(13, dirty=True)
    assert cache.dirty_of(3) is True and cache.dirty_of(4) is False
    assert cache.dirty_of(3 + 8 * 16) is None  # same set, not resident
    assert sorted(cache.dirty_blocks()) == [3, 13]
    assert sorted(cache.resident_blocks()) == [3, 4, 13]
    cache.mark_clean(13)
    assert list(cache.dirty_blocks()) == [3]


def test_direct_mapped_tag_store_is_not_tracked_by_the_collector():
    """A prewarm-sized fill and its shared copy hold no object the cyclic
    garbage collector tracks."""
    source = DRAMCache(64 * 1024, clean=False, predictor_entries=64)
    source.bulk_insert_clean(range(100, 900))
    source.insert(5, dirty=True)
    copy = DRAMCache(64 * 1024, clean=False, predictor_entries=64)
    copy.share_fill(source)
    for cache in (source, copy):
        assert len(list(cache.resident_blocks())) == 801
        assert not gc.is_tracked(cache._lines)


def test_predictor_skips_array_on_confident_miss():
    cache = make_cache()
    probe = cache.probe(7)
    assert not probe.hit and not probe.array_accessed


def test_predictor_mispredict_still_finds_resident_block():
    # Thrash the predictor's region table so it forgets a resident block.
    cache = DRAMCache(64 * 64, predictor_entries=1, region_size=64)
    cache.insert(0)
    cache.insert(50)   # displaces region 0 from the 1-entry table
    probe = cache.probe(0)
    assert probe.hit
    assert probe.array_accessed


def test_hit_rate_and_occupancy():
    cache = make_cache()
    cache.insert(1)
    assert cache.probe(1).hit
    assert not cache.probe(2).hit
    assert list(cache.resident_blocks()) == [1]
    cache.clear()
    assert list(cache.resident_blocks()) == []


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
    assert all(cache.dirty_of(b) is False for b in cache.resident_blocks())
    assert list(cache.dirty_blocks()) == []
    assert len(list(cache.resident_blocks())) <= cache.num_sets


def tag_snapshot(cache):
    """``(set index, block, dirty)`` of every resident line, in tag-store
    order, read through the public queries so it does not depend on how
    tags are stored."""
    return [(cache.set_index(block), block, cache.dirty_of(block))
            for block in cache.resident_blocks()]


def cache_state(cache):
    """Tags (in storage order) and the region table (in LRU order)."""
    return tag_snapshot(cache), list(cache._regions.items())


def build_cache(num_sets, predictor_entries, region_blocks):
    return DRAMCache(64 * num_sets, clean=False, predictor_entries=predictor_entries,
                     region_size=64 * region_blocks)


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
    predictor_entries=st.sampled_from([1, 2, 4, 64]),
    region_blocks=st.sampled_from([1, 4, 16]),
    before=st.lists(st.tuples(st.integers(0, 300), st.booleans()), max_size=60),
    fills=st.lists(fill_inputs, min_size=1, max_size=3),
)
# A wrapped fill whose straddling region evicts lines of four other regions:
# the victims must reach the predictor in block order, not set order.
@example(num_sets=6, predictor_entries=64, region_blocks=4,
         before=[(100, False), (107, False), (108, False), (115, False)],
         fills=[range(4, 10)])
def test_bulk_insert_clean_matches_per_block_insert(
    num_sets, predictor_entries, region_blocks, before, fills
):
    """Randomized bulk-fill equivalence: ``bulk_insert_clean`` leaves the same
    tags and predictor table (in LRU order) as ``insert`` per block,
    on empty and pre-populated (partly dirty) caches and tiny predictor tables."""
    bulk = build_cache(num_sets, predictor_entries, region_blocks)
    loop = build_cache(num_sets, predictor_entries, region_blocks)
    for cache in (bulk, loop):
        for block, dirty in before:
            cache.insert(block, dirty=dirty)
    for blocks in fills:
        assert bulk.bulk_insert_clean(blocks) == len(blocks)
        for block in blocks:
            loop.insert(block, dirty=False)
        assert cache_state(bulk) == cache_state(loop)


def test_shared_fill_equals_a_replayed_fill():
    def build():
        return DRAMCache(64 * 32, clean=False, predictor_entries=4, region_size=256)

    source, shared, replayed = build(), build(), build()
    fill = [range(0, 40), range(64, 90), range(8, 12)]
    for blocks in fill:
        source.bulk_insert_clean(blocks)
        replayed.bulk_insert_clean(blocks)
    assert shared.is_empty()
    shared.share_fill(source)
    assert cache_state(shared) == cache_state(replayed) == cache_state(source)
    # The fill displaced lines, and predictor regions with their presence bits.
    resident = len(list(shared.resident_blocks()))
    assert resident < sum(len(blocks) for blocks in fill)
    presence_bits = sum(bin(bits).count("1") for bits in shared._regions.values())
    assert presence_bits < resident
    with pytest.raises(ValueError):
        shared.share_fill(source)  # no longer empty
    with pytest.raises(ValueError):
        DRAMCache(64 * 64).share_fill(source)  # other geometry


def test_shared_line_is_unchanged_by_the_other_cache():
    """After ``share_fill`` two sockets' caches hold the same lines: an
    ``insert``, ``mark_clean`` or ``invalidate`` of a block through one
    cache leaves the other's blocks and dirty bits as they were."""
    source = DRAMCache(64 * 16, clean=False)
    source.insert(5, dirty=True)
    source.insert(6)
    copy = DRAMCache(64 * 16, clean=False)
    copy.share_fill(source)
    before = tag_snapshot(source)
    assert tag_snapshot(copy) == before
    assert (source.dirty_of(5), source.dirty_of(6)) == (True, False)

    copy.mark_clean(5)
    copy.insert(6, dirty=True)
    assert copy.dirty_of(5) is False and copy.dirty_of(6) is True
    assert tag_snapshot(source) == before
    copy.invalidate(5)
    copy.insert(6 + copy.num_sets)  # conflict in 6's set
    copy.insert(6 + 2 * copy.num_sets)
    assert not copy.contains(5) and not copy.contains(6)
    assert tag_snapshot(source) == before
    assert (source.dirty_of(5), source.dirty_of(6)) == (True, False)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 200), st.booleans()), min_size=1, max_size=200))
def test_predictor_and_cache_agree_on_absence(ops):
    """If the predictor says "absent" for an untracked/cleared block and the
    table has not displaced the region, the block really is absent."""
    cache = DRAMCache(4096, predictor_entries=1024, region_size=256)
    for block, invalidate in ops:
        if invalidate:
            cache.invalidate(block)
        else:
            cache.insert(block)
    for block, _ in ops:
        if predicts_miss(cache, block):
            assert not cache.contains(block)
