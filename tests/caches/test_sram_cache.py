"""Tests for the set-associative SRAM cache model (L1 / LLC)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caches.sram_cache import DIRTY, MODIFIED, VICTIM_SHIFT, SetAssociativeCache


def make_cache(size=1024, ways=2, name="test"):
    return SetAssociativeCache(size, ways, block_size=64, name=name)


def test_geometry():
    cache = make_cache(size=1024, ways=2)
    assert cache.num_sets == 8
    assert cache.set_index(0) == 0
    assert cache.set_index(8) == 0
    assert cache.set_index(9) == 1


def test_miss_then_hit():
    cache = make_cache()
    assert cache.lookup(5) is None
    cache.insert(5)
    line = cache.lookup(5)
    # A clean Shared line is 0: residency is "is not None", not truthiness.
    assert line == 0 and line is not None


def test_insert_existing_upgrades_state_without_victim():
    cache = make_cache()
    cache.insert(5)
    victim = cache.insert(5, MODIFIED | DIRTY)
    assert victim is None
    assert cache.peek(5) == MODIFIED | DIRTY


def test_reinsert_keeps_the_dirty_bit_and_moves_to_mru():
    cache = make_cache(size=256, ways=2)  # 2 sets, 2 ways
    cache.insert(0, MODIFIED | DIRTY)
    cache.insert(2)
    assert cache.insert(0) is None  # Shared again, still dirty, now MRU
    assert cache.peek(0) == DIRTY
    victim = cache.insert(4)
    assert victim == 2 << VICTIM_SHIFT


def test_write_to_resident_line_keeps_its_lru_position():
    cache = make_cache(size=256, ways=2)
    cache.insert(0)
    cache.insert(2)
    cache.mark_dirty(0)
    cache.set_state(0, MODIFIED | DIRTY)
    assert cache.insert(4) == 0 << VICTIM_SHIFT | MODIFIED | DIRTY


def test_lru_eviction_order():
    cache = make_cache(size=256, ways=2)  # 2 sets, 2 ways
    # Set 0 holds blocks 0 and 2; touching 0 makes 2 the LRU victim.
    cache.insert(0)
    cache.insert(2)
    cache.lookup(0)
    victim = cache.insert(4)  # maps to set 0
    assert victim is not None and victim >> VICTIM_SHIFT == 2


def test_dirty_eviction_reported():
    cache = make_cache(size=256, ways=2)
    cache.insert(0, MODIFIED | DIRTY)
    cache.insert(2)
    cache.lookup(2)
    victim = cache.insert(4)
    assert victim >> VICTIM_SHIFT == 0
    assert victim & DIRTY


def test_invalidate_removes_line():
    cache = make_cache()
    cache.insert(7)
    line = cache.invalidate(7)
    assert line == 0
    assert not cache.contains(7)
    assert cache.invalidate(7) is None


def test_downgrade_clears_modified_and_dirty():
    cache = make_cache()
    cache.insert(3, MODIFIED | DIRTY)
    assert cache.downgrade(3) == MODIFIED | DIRTY
    assert cache.peek(3) == 0
    assert cache.downgrade(4) is None


def test_set_state_requires_residency():
    cache = make_cache()
    with pytest.raises(KeyError):
        cache.set_state(1, MODIFIED)


def test_occupancy_and_resident_blocks():
    cache = make_cache()
    for block in range(5):
        cache.insert(block)
    assert sorted(cache.resident_blocks()) == list(range(5))
    cache.clear()
    assert list(cache.resident_blocks()) == []


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(0, 1)
    with pytest.raises(ValueError):
        SetAssociativeCache(32, 1, block_size=64)
    with pytest.raises(ValueError):
        SetAssociativeCache(192, 4, block_size=64)  # 3 blocks not divisible by 4 ways


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(blocks):
    cache = SetAssociativeCache(1024, 2, block_size=64)
    capacity = 1024 // 64
    for block in blocks:
        cache.insert(block)
        assert len(list(cache.resident_blocks())) <= capacity
    # Every set respects its associativity.
    for block in blocks:
        resident_in_set = [
            b for b in cache.resident_blocks() if cache.set_index(b) == cache.set_index(block)
        ]
        assert len(resident_in_set) <= 2


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200))
def test_most_recently_inserted_block_is_always_resident(blocks):
    cache = SetAssociativeCache(512, 2, block_size=64)
    for block in blocks:
        cache.insert(block)
        assert cache.contains(block)


# ----------------------------------------------------------------------
# Differential test: the int encoding against a reference model of tuples
# ----------------------------------------------------------------------


class ReferenceCache:
    """LRU sets as lists of ``(block, modified, dirty)``, front = LRU."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = {}

    def _find(self, block):
        lines = self.sets.setdefault(block % self.num_sets, [])
        for position, line in enumerate(lines):
            if line[0] == block:
                return lines, position
        return lines, None

    def lookup(self, block):
        lines, position = self._find(block)
        if position is None:
            return None
        line = lines.pop(position)
        lines.append(line)
        return line[1:]

    def insert(self, block, modified, dirty):
        lines, position = self._find(block)
        if position is not None:
            _, _, old_dirty = lines.pop(position)
            lines.append((block, modified, old_dirty or dirty))
            return None
        victim = None
        if len(lines) >= self.ways:
            victim = lines.pop(0)
        lines.append((block, modified, dirty))
        return victim

    def invalidate(self, block):
        lines, position = self._find(block)
        if position is None:
            return None
        return lines.pop(position)[1:]

    def rewrite(self, block, modified=None, dirty=None):
        """Change a resident line in place; returns its old bits (or None)."""
        lines, position = self._find(block)
        if position is None:
            return None
        _, old_modified, old_dirty = lines[position]
        lines[position] = (
            block,
            old_modified if modified is None else modified,
            old_dirty if dirty is None else dirty,
        )
        return old_modified, old_dirty

    def state(self):
        return {index: list(lines) for index, lines in self.sets.items() if lines}


def _bits(modified, dirty):
    return (MODIFIED if modified else 0) | (DIRTY if dirty else 0)


def _unbits(bits):
    return None if bits is None else (bool(bits & MODIFIED), bool(bits & DIRTY))


def _cache_state(cache):
    state = {}
    for block, bits in cache.lines():
        state.setdefault(cache.set_index(block), []).append((block, *_unbits(bits)))
    return state


_blocks = st.integers(0, 7)
_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _blocks),
        st.tuples(st.just("insert"), _blocks, st.booleans(), st.booleans()),
        st.tuples(st.just("invalidate"), _blocks),
        st.tuples(st.just("downgrade"), _blocks),
        st.tuples(st.just("set_state"), _blocks, st.booleans(), st.booleans()),
        st.tuples(st.just("mark_dirty"), _blocks),
    ),
    # Long enough that re-inserts and evictions meet in most examples.
    min_size=20,
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(_cache_ops)
# Re-inserting a resident block keeps its dirty bit and makes it MRU.
@example([("insert", 0, True, True), ("insert", 2, False, False),
          ("insert", 0, False, False), ("insert", 4, False, False)])
def test_int_lines_match_a_reference_model(ops):
    """Residency in LRU order, Modified/dirty bits, victims and returned bits
    equal a model written with tuples, after every operation."""
    cache = SetAssociativeCache(4 * 64, 2, block_size=64)  # 2 sets x 2 ways
    ref = ReferenceCache(cache.num_sets, 2)
    for op, block, *args in ops:
        if op == "lookup":
            assert _unbits(cache.lookup(block)) == ref.lookup(block)
        elif op == "insert":
            modified, dirty = args
            victim = cache.insert(block, _bits(modified, dirty))
            expected = ref.insert(block, modified, dirty)
            got = None if victim is None else (
                victim >> VICTIM_SHIFT, *_unbits(victim & (MODIFIED | DIRTY)))
            assert got == expected
        elif op == "invalidate":
            assert _unbits(cache.invalidate(block)) == ref.invalidate(block)
        elif op == "downgrade":
            assert _unbits(cache.downgrade(block)) == ref.rewrite(block, False, False)
        elif op == "set_state":
            modified, dirty = args
            if ref.rewrite(block, modified, dirty) is None:
                with pytest.raises(KeyError):
                    cache.set_state(block, _bits(modified, dirty))
            else:
                cache.set_state(block, _bits(modified, dirty))
        else:
            cache.mark_dirty(block)
            ref.rewrite(block, dirty=True)
        assert _cache_state(cache) == ref.state()
