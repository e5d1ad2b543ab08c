"""Tests for the DRAM cache's region-based (MissMap-style) miss predictor,
driven through ``DRAMCache.insert``, ``invalidate`` and ``probe``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.dram_cache import DRAMCache

from ..conftest import predicts_miss


def make_cache(entries=8, region_size=256):
    # region_size=256 -> 4 blocks per region with 64-byte blocks; 256 sets,
    # so no two blocks below 256 share a set.
    return DRAMCache(64 * 256, predictor_entries=entries, region_size=region_size)


def test_untracked_region_predicts_miss():
    cache = make_cache()
    assert predicts_miss(cache, 0)
    assert not cache.probe(0).array_accessed
    assert not cache._regions  # a lookup allocates nothing


def test_inserted_block_predicts_present():
    cache = make_cache()
    cache.insert(5)
    assert not predicts_miss(cache, 5)


def test_sibling_block_in_same_region_still_predicts_miss():
    cache = make_cache()
    cache.insert(4)       # region 1 (blocks 4-7)
    assert not predicts_miss(cache, 4)
    assert predicts_miss(cache, 5)
    assert not cache.probe(5).array_accessed


def test_evicted_block_predicts_miss_again():
    cache = make_cache()
    cache.insert(5)
    cache.invalidate(5)
    assert predicts_miss(cache, 5)
    # A conflict victim's bit clears too.
    cache.insert(6)
    cache.insert(6 + cache.num_sets)
    assert predicts_miss(cache, 6)
    assert not predicts_miss(cache, 6 + cache.num_sets)


def test_evict_of_untracked_block_is_noop():
    cache = make_cache(entries=2)
    cache.invalidate(99)  # not resident
    assert not cache._regions
    cache.insert(0)       # region 0
    cache.insert(8)       # region 2
    cache.insert(16)      # region 4 displaces region 0
    # Block 0 is still resident, but its region is untracked: its removal
    # leaves the table, and its LRU order, as they were.
    assert cache.invalidate(0)
    assert list(cache._regions.items()) == [(2, 0b0001), (4, 0b0001)]


def test_region_displacement_is_lru():
    cache = make_cache(entries=2)
    cache.insert(0)    # region 0
    cache.insert(4)    # region 1
    cache.probe(1)     # touches region 0 (makes region 1 the LRU)
    cache.insert(8)    # region 2 displaces region 1
    assert list(cache._regions) == [0, 2]
    # Region 1's presence information is lost: block 4 now predicts miss,
    # though a probe still finds it resident.
    assert predicts_miss(cache, 4)
    assert cache.probe(4).hit
    # Region 0 survived.
    assert not predicts_miss(cache, 0)


def test_region_geometry():
    cache = make_cache(region_size=256)
    for block in (0, 3, 4):
        cache.insert(block)
    # Blocks 0-3 share region 0 (one presence bit each); block 4 opens region 1.
    assert list(cache._regions.items()) == [(0, 0b1001), (1, 0b0001)]


def test_counters_and_coverage():
    cache = make_cache()
    cache.insert(0)
    assert not predicts_miss(cache, 0)
    assert predicts_miss(cache, 100)  # untracked region
    assert list(cache._regions.items()) == [(0, 0b1)]  # one region, one bit


def test_invalid_parameters():
    with pytest.raises(ValueError):
        DRAMCache(4096, predictor_entries=0)
    with pytest.raises(ValueError):
        DRAMCache(4096, region_size=100)
    with pytest.raises(ValueError):
        DRAMCache(4096, region_size=0)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=200))
def test_predictor_tracks_residency_exactly_without_displacement(ops):
    """With a table large enough to never displace, the predictor's answer is
    exactly the set of currently inserted blocks."""
    cache = DRAMCache(64 * 64, predictor_entries=64, region_size=256)
    resident = set()
    for block, remove in ops:
        if remove:
            cache.invalidate(block)
            resident.discard(block)
        else:
            cache.insert(block)
            resident.add(block)
    for block in range(64):
        assert predicts_miss(cache, block) == (block not in resident)
