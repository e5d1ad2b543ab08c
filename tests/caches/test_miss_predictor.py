"""Tests for the region-based (MissMap-style) miss predictor."""

from hypothesis import given, settings, strategies as st

from repro.caches.miss_predictor import RegionMissPredictor

from ..conftest import predicts_miss


def make_predictor(entries=8, region_size=256):
    # region_size=256 -> 4 blocks per region with 64-byte blocks.
    return RegionMissPredictor(entries=entries, region_size=region_size)


def test_untracked_region_predicts_miss():
    predictor = make_predictor()
    assert predicts_miss(predictor, 0)
    assert not predictor._table  # a lookup allocates nothing


def test_inserted_block_predicts_present():
    predictor = make_predictor()
    predictor.note_insert(5)
    assert not predicts_miss(predictor, 5)


def test_sibling_block_in_same_region_still_predicts_miss():
    predictor = make_predictor()
    predictor.note_insert(4)       # region 1 (blocks 4-7)
    assert not predicts_miss(predictor, 4)
    assert predicts_miss(predictor, 5)


def test_evicted_block_predicts_miss_again():
    predictor = make_predictor()
    predictor.note_insert(5)
    predictor.note_evict(5)
    assert predicts_miss(predictor, 5)


def test_evict_of_untracked_block_is_noop():
    predictor = make_predictor()
    predictor.note_evict(99)
    assert not predictor._table


def test_region_displacement_is_lru():
    predictor = make_predictor(entries=2)
    predictor.note_insert(0)    # region 0
    predictor.note_insert(4)    # region 1
    predicts_miss(predictor, 1)  # touches region 0 (makes region 1 the LRU)
    predictor.note_insert(8)    # region 2 displaces region 1
    assert list(predictor._table) == [0, 2]
    # Region 1's presence information is lost: block 4 now predicts miss.
    assert predicts_miss(predictor, 4)
    # Region 0 survived.
    assert not predicts_miss(predictor, 0)


def test_region_geometry():
    predictor = make_predictor(region_size=256)
    for block in (0, 3, 4):
        predictor.note_insert(block)
    # Blocks 0-3 share region 0 (one presence bit each); block 4 opens region 1.
    assert list(predictor._table.items()) == [(0, 0b1001), (1, 0b0001)]


def test_counters_and_coverage():
    predictor = make_predictor()
    predictor.note_insert(0)
    assert not predicts_miss(predictor, 0)
    assert predicts_miss(predictor, 100)  # untracked region
    assert list(predictor._table.items()) == [(0, 0b1)]  # one region, one bit


def test_invalid_parameters():
    import pytest

    with pytest.raises(ValueError):
        RegionMissPredictor(entries=0)
    with pytest.raises(ValueError):
        RegionMissPredictor(region_size=100)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=200))
def test_predictor_tracks_residency_exactly_without_displacement(ops):
    """With a table large enough to never displace, the predictor's answer is
    exactly the set of currently 'inserted' blocks."""
    predictor = RegionMissPredictor(entries=64, region_size=256)
    resident = set()
    for block, remove in ops:
        if remove:
            predictor.note_evict(block)
            resident.discard(block)
        else:
            predictor.note_insert(block)
            resident.add(block)
    for block in range(64):
        assert predicts_miss(predictor, block) == (block not in resident)
