"""Block-based DRAM cache (Table II: 1 GB, direct-mapped, 64-byte blocks,
40 ns access, region-based miss predictor).

Two operating modes are supported, selected by ``clean``:

* ``clean=True`` (C3D): the cache never holds dirty data.  Modified LLC
  victims are inserted *clean*; the owning socket is responsible for writing
  the data through to memory.  ``insert`` therefore never produces a victim
  that needs a writeback.
* ``clean=False`` (snoopy / full-dir designs): modified LLC victims are
  absorbed dirty, and evicting a dirty line produces a writeback to memory.

The paper's configuration is direct-mapped (``associativity=1``), stored as
one flat ``set index -> line`` dict.  For sensitivity sweeps the cache can
also be built set-associative, in which case each set is an insertion-ordered
dict managed as an intrusive O(1) LRU (hits move the line to the back, the
front line is the victim) -- no victim-list allocation, mirroring
:class:`~repro.caches.sram_cache.SetAssociativeCache`.

The DRAM cache is *non-inclusive* with respect to the on-chip hierarchy in
all designs (section IV-C): it never forces LLC invalidations, and LLC fills
do not have to allocate here.

Resident lines are never mutated in place: a change of a line's dirty bit
replaces the line object.  That is what lets :meth:`DRAMCache.share_fill`
hand one prewarm fill to several sockets' caches without copying the lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .block import CacheBlockState, CacheLine
from .miss_predictor import RegionMissPredictor

__all__ = ["DRAMCache", "DRAMCacheProbe"]


@dataclass
class DRAMCacheProbe:
    """Result of a DRAM-cache probe.

    ``hit`` tells whether the block was found; ``array_accessed`` tells
    whether the DRAM array had to be accessed (False when the miss predictor
    confidently predicted a miss, in which case the array latency is saved).
    """

    hit: bool
    array_accessed: bool
    dirty: bool = False


# Probe outcomes are immutable to callers, so the hot path returns shared
# instances instead of allocating one per probe.
_PROBE_MISS_BYPASS = DRAMCacheProbe(hit=False, array_accessed=False)
_PROBE_MISS_ARRAY = DRAMCacheProbe(hit=False, array_accessed=True)
_PROBE_HIT_CLEAN = DRAMCacheProbe(hit=True, array_accessed=True, dirty=False)
_PROBE_HIT_DIRTY = DRAMCacheProbe(hit=True, array_accessed=True, dirty=True)

#: Every DRAM-cache line is coherence-wise Shared; only its dirty bit varies.
_SHARED = CacheBlockState.SHARED


class DRAMCache:
    """Direct-mapped (or optionally set-associative) DRAM cache of 64-byte blocks."""

    def __init__(
        self,
        size_bytes: int,
        *,
        block_size: int = 64,
        associativity: int = 1,
        clean: bool = True,
        name: str = "dram_cache",
        miss_predictor: Optional[RegionMissPredictor] = None,
    ) -> None:
        if size_bytes <= 0 or block_size <= 0 or associativity <= 0:
            raise ValueError("cache geometry parameters must be positive")
        total_blocks = size_bytes // block_size
        if total_blocks == 0:
            raise ValueError(f"{name}: size {size_bytes} smaller than one block")
        if total_blocks % associativity:
            raise ValueError(
                f"{name}: {total_blocks} blocks not divisible by associativity {associativity}"
            )
        self.num_sets = total_blocks // associativity
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.clean = clean
        self.miss_predictor = miss_predictor
        # Direct-mapped storage: set index -> line.  Associative storage:
        # set index -> insertion-ordered {block: line} (front = LRU victim).
        self._lines: Dict[int, CacheLine] = {}
        self._sets: Dict[int, Dict[int, CacheLine]] = {}

        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.invalidations = 0
        self.predictor_bypasses = 0

    # -- geometry -----------------------------------------------------------

    def set_index(self, block: int) -> int:
        """Set index of block number ``block``."""
        return block % self.num_sets

    # -- queries ------------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (no statistics update)."""
        if self.associativity == 1:
            line = self._lines.get(block % self.num_sets)
            return line is not None and line.block == block
        cache_set = self._sets.get(block % self.num_sets)
        return cache_set is not None and block in cache_set

    def peek(self, block: int) -> Optional[CacheLine]:
        """Return the resident line for ``block`` without side effects."""
        if self.associativity == 1:
            line = self._lines.get(block % self.num_sets)
            if line is not None and line.block == block:
                return line
            return None
        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None:
            return None
        return cache_set.get(block)

    def probe(self, block: int) -> DRAMCacheProbe:
        """Look up ``block``, consulting the miss predictor first.

        Updates hit/miss statistics.  When the predictor predicts a miss the
        DRAM array is not accessed; the caller should charge only the
        predictor latency in that case.
        """
        # The tag is read once; the predictor's bookkeeping below neither
        # depends on nor changes it.
        line = self.peek(block)
        predictor = self.miss_predictor
        if predictor is not None:
            # Inlined RegionMissPredictor.predicts_miss.
            predictor.lookups += 1
            table = predictor._table
            region = (block * predictor._block_size) // predictor.region_size
            bits = table.get(region)
            if bits is None:
                predictor.untracked_lookups += 1
                predictor.predicted_miss += 1
                predicted_miss = True
            else:
                table.move_to_end(region)
                if bits & (1 << (block % predictor._blocks_per_region)):
                    predictor.predicted_present += 1
                    predicted_miss = False
                else:
                    predictor.predicted_miss += 1
                    predicted_miss = True
            if predicted_miss and line is None:
                self.predictor_bypasses += 1
                self.misses += 1
                return _PROBE_MISS_BYPASS
            # A predicted miss on a resident line is a mis-prediction (the
            # predictor lost this region's residency information): fall
            # through to the array access so that a resident -- possibly
            # dirty -- line is never silently ignored.
        if line is None:
            self.misses += 1
            return _PROBE_MISS_ARRAY
        self.hits += 1
        if self.associativity > 1:
            # Intrusive LRU touch: move the line to the back of its set.
            cache_set = self._sets[block % self.num_sets]
            del cache_set[block]
            cache_set[block] = line
        return _PROBE_HIT_DIRTY if line.dirty else _PROBE_HIT_CLEAN

    # -- mutations ------------------------------------------------------------

    def insert(self, block: int, *, dirty: bool = False) -> Optional[CacheLine]:
        """Insert ``block``, returning the displaced victim line if any.

        In clean mode the inserted line is always stored clean regardless of
        the ``dirty`` argument (the caller performs the memory write-through),
        and victims never require a writeback.  The returned victim is the
        displaced :class:`CacheLine` itself (exposing ``block``, ``state``,
        ``dirty`` and ``needs_writeback``), avoiding a per-eviction record
        allocation; callers only read it.  Re-inserting a resident block
        dirty replaces its line rather than setting the bit in place.
        """
        stored_dirty = dirty and not self.clean
        predictor = self.miss_predictor
        if self.associativity == 1:
            index = block % self.num_sets
            lines = self._lines
            existing = lines.get(index)

            victim: Optional[CacheLine] = None
            if existing is not None:
                if existing.block == block:
                    if stored_dirty and not existing.dirty:
                        lines[index] = CacheLine(block, _SHARED, True)
                    return None
                # The displaced line itself is the victim record (it is no
                # longer referenced by this cache, so handing it out is safe).
                victim = existing
                self.evictions += 1
                if existing.dirty:
                    self.dirty_evictions += 1
                if predictor is not None:
                    predictor.note_evict(existing.block)

            lines[index] = CacheLine(block, _SHARED, stored_dirty)
            if predictor is not None:
                predictor.note_insert(block)
            return victim

        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None:
            cache_set = self._sets[block % self.num_sets] = {}
        existing = cache_set.pop(block, None)
        if existing is not None:
            # Re-append: the block becomes the most recently used of its set.
            if stored_dirty and not existing.dirty:
                existing = CacheLine(block, _SHARED, True)
            cache_set[block] = existing
            return None
        victim = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.pop(next(iter(cache_set)))
            self.evictions += 1
            if victim.dirty:
                self.dirty_evictions += 1
            if predictor is not None:
                predictor.note_evict(victim.block)
        cache_set[block] = CacheLine(block, _SHARED, stored_dirty)
        if predictor is not None:
            predictor.note_insert(block)
        return victim

    def bulk_insert_clean(self, blocks) -> int:
        """Insert an iterable of block numbers clean (prewarm fast path).

        Semantically identical to calling ``insert(block, dirty=False)`` for
        each block in order -- same eviction counters, same final cache and
        predictor state -- but vectorised: contiguous ranges build their
        lines with a C-level ``map`` and fill the tag store with one
        ``dict.update``, and predictor presence bits are OR-ed per *region*
        instead of per block.  Falls back to a faithful per-block loop for
        non-contiguous inputs, associative organisations, wrap-around ranges
        and predictor-displacement corner cases.  Returns the number of
        blocks processed.
        """
        if (
            self.associativity == 1
            and isinstance(blocks, range)
            and blocks.step == 1
            and 0 < len(blocks) <= self.num_sets
        ):
            predictor = self.miss_predictor
            if predictor is None:
                return self._bulk_fill_range(blocks)
            first_region = (blocks.start * predictor._block_size) // predictor.region_size
            last_region = ((blocks.stop - 1) * predictor._block_size) // predictor.region_size
            # The batched path cannot reproduce mid-stream table displacement
            # order, so require headroom for every region it may allocate.
            if len(predictor._table) + (last_region - first_region + 1) < predictor.entries:
                return self._bulk_fill_range(blocks)
        return self._bulk_insert_clean_loop(blocks)

    def _bulk_fill_range(self, blocks: range) -> int:
        """Vectorised clean fill of a contiguous block range (see above).

        Requires ``len(blocks) <= num_sets`` (so all set indices are
        distinct) and predictor-table headroom (no displacements possible).
        """
        lines = self._lines
        num_sets = self.num_sets
        start, stop = blocks.start, blocks.stop
        n = stop - start

        if start % num_sets + n <= num_sets:
            idx_list = range(start % num_sets, start % num_sets + n)
        else:
            idx_list = [b % num_sets for b in blocks]

        # Eviction accounting for set conflicts with already-resident lines,
        # in block order (rare relative to n).  ``same_block`` entries keep
        # their existing line object (dirty bit preserved).
        victims_by_region = {}
        same_block = []
        predictor = self.miss_predictor
        if lines:
            evicted = []  # (inserting block, victim block), later sorted to
            # recover the per-block processing order the loop path would use.
            for index in lines.keys() & set(idx_list):
                existing = lines[index]
                block = start + (index - start) % num_sets
                if existing.block == block:
                    same_block.append((index, existing, block))
                    continue
                self.evictions += 1
                if existing.dirty:
                    self.dirty_evictions += 1
                evicted.append((block, existing.block))
            if predictor is not None and evicted:
                evicted.sort()
                for block, victim_block in evicted:
                    region = (block * predictor._block_size) // predictor.region_size
                    victims_by_region.setdefault(region, []).append(victim_block)

        lines.update(zip(idx_list, map(CacheLine, blocks)))
        for index, existing, _block in same_block:
            lines[index] = existing

        if predictor is not None:
            # Blocks already resident as themselves are *not* re-inserted by
            # the per-block path, so they contribute no presence bit and no
            # region touch.
            skipped_by_region = {}
            if same_block:
                bs = predictor._block_size
                rs = predictor.region_size
                bpr_bits = predictor._blocks_per_region
                for _index, _existing, block in same_block:
                    region = (block * bs) // rs
                    skipped_by_region[region] = skipped_by_region.get(region, 0) | (
                        1 << (block % bpr_bits)
                    )
            # Region-batched predictor update, preserving the exact LRU order
            # of the per-block path: within each region's chunk the evicted
            # victims are noted first (in block order), then the region's
            # presence bits are OR-ed in and the region moves to the back.
            table = predictor._table
            table_get = table.get
            move_to_end = table.move_to_end
            block_size = predictor._block_size
            region_size = predictor.region_size
            bpr = predictor._blocks_per_region
            first_region = (start * block_size) // region_size
            last_region = ((stop - 1) * block_size) // region_size
            for region in range(first_region, last_region + 1):
                for victim_block in victims_by_region.get(region, ()):
                    victim_region = (victim_block * block_size) // region_size
                    bits = table_get(victim_region)
                    if bits is not None:
                        table[victim_region] = bits & ~(1 << (victim_block % bpr))
                        move_to_end(victim_region)
                region_first = max(start, (region * region_size) // block_size)
                region_stop = min(stop, ((region + 1) * region_size) // block_size)
                mask = ((1 << (region_stop - region_first)) - 1) << (region_first % bpr)
                mask &= ~skipped_by_region.get(region, 0)
                if not mask:
                    # Every block of this chunk was already resident: the
                    # per-block path performs no insert and no region touch.
                    continue
                bits = table_get(region)
                if bits is None:
                    table[region] = mask
                else:
                    move_to_end(region)
                    table[region] = bits | mask
        return n

    def _bulk_insert_clean_loop(self, blocks) -> int:
        """Faithful per-block loop behind :meth:`bulk_insert_clean`."""
        if self.associativity != 1:
            count = 0
            for block in blocks:
                self.insert(block, dirty=False)
                count += 1
            return count

        lines = self._lines
        num_sets = self.num_sets
        make_line = CacheLine
        predictor = self.miss_predictor
        if predictor is not None:
            table = predictor._table
            table_get = table.get
            move_to_end = table.move_to_end
            entries = predictor.entries
            block_size = predictor._block_size
            region_size = predictor.region_size
            blocks_per_region = predictor._blocks_per_region
        evictions = 0
        dirty_evictions = 0
        count = 0
        for block in blocks:
            count += 1
            existing = lines.get(block % num_sets)
            if existing is not None:
                if existing.block == block:
                    continue
                evictions += 1
                if existing.dirty:
                    dirty_evictions += 1
                if predictor is not None:
                    # Inlined RegionMissPredictor.note_evict(existing.block).
                    victim_block = existing.block
                    region = (victim_block * block_size) // region_size
                    bits = table_get(region)
                    if bits is not None:
                        table[region] = bits & ~(1 << (victim_block % blocks_per_region))
                        move_to_end(region)
            lines[block % num_sets] = make_line(block, _SHARED, False)
            if predictor is not None:
                # Inlined RegionMissPredictor.note_insert(block).
                region = (block * block_size) // region_size
                bits = table_get(region)
                if bits is None:
                    if len(table) >= entries:
                        _victim, victim_bits = table.popitem(last=False)
                        if victim_bits:
                            predictor.region_displacements += 1
                    bits = 0
                else:
                    move_to_end(region)
                table[region] = bits | (1 << (block % blocks_per_region))
        self.evictions += evictions
        self.dirty_evictions += dirty_evictions
        return count

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Remove ``block`` (e.g. on a broadcast invalidation); return the line."""
        if self.associativity == 1:
            index = block % self.num_sets
            line = self._lines.get(index)
            if line is None or line.block != block:
                return None
            del self._lines[index]
        else:
            cache_set = self._sets.get(block % self.num_sets)
            line = cache_set.pop(block, None) if cache_set is not None else None
            if line is None:
                return None
        self.invalidations += 1
        if self.miss_predictor is not None:
            self.miss_predictor.note_evict(block)
        return line

    def mark_clean(self, block: int) -> None:
        """Clear the dirty bit of a resident block (after a writeback).

        The dirty line is replaced by a clean one in the same slot (and, when
        associative, the same LRU position).
        """
        line = self.peek(block)
        if line is None or not line.dirty:
            return
        if self.associativity == 1:
            self._lines[block % self.num_sets] = CacheLine(block, _SHARED, False)
        else:
            self._sets[block % self.num_sets][block] = CacheLine(block, _SHARED, False)

    def clear(self) -> None:
        """Drop all contents."""
        self._lines.clear()
        self._sets.clear()

    # -- prewarm fill sharing ----------------------------------------------------

    def is_empty(self) -> bool:
        """True when no set holds a line and the predictor tracks no region."""
        predictor = self.miss_predictor
        return not self._lines and not self._sets and (
            predictor is None or not predictor._table
        )

    def fill_counts(self) -> Tuple[int, int]:
        """``(evictions, predictor region displacements)``: what a clean fill adds to."""
        predictor = self.miss_predictor
        displaced = predictor.region_displacements if predictor is not None else 0
        return self.evictions, displaced

    def _geometry(self) -> Tuple:
        predictor = self.miss_predictor
        return (
            self.num_sets,
            self.associativity,
            self.block_size,
            None if predictor is None else (
                predictor.entries, predictor.region_size, predictor._block_size
            ),
        )

    def share_fill(self, source: "DRAMCache", counts_before: Tuple[int, int]) -> None:
        """Adopt the clean fill ``source`` received, instead of repeating it.

        This cache must be empty (:meth:`is_empty`) and share ``source``'s
        geometry; ``source`` must have been empty before its fill, and
        ``counts_before`` is its :meth:`fill_counts` from then.  Afterwards
        the tag store and predictor table equal ``source``'s, in the same
        order, and the eviction and region-displacement counters have
        advanced by what the fill cost ``source``: the state a replay of the
        same inserts would leave.  The line objects themselves are shared
        between the two caches, which is safe because no cache mutates a
        resident line in place.
        """
        if not self.is_empty():
            raise ValueError(f"{self.name}: share_fill needs an empty cache")
        if self._geometry() != source._geometry():
            raise ValueError(f"{self.name}: geometry differs from {source.name}")
        evictions, displaced = source.fill_counts()
        self.evictions += evictions - counts_before[0]
        self._lines = source._lines.copy()
        self._sets = {index: lines.copy() for index, lines in source._sets.items()}
        predictor = self.miss_predictor
        if predictor is not None:
            predictor._table = source.miss_predictor._table.copy()
            predictor.region_displacements += displaced - counts_before[1]

    # -- statistics -----------------------------------------------------------

    def occupancy(self) -> int:
        """Number of valid resident blocks."""
        if self.associativity == 1:
            return sum(1 for line in self._lines.values() if line.valid)
        return sum(len(cache_set) for cache_set in self._sets.values())

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over resident block numbers."""
        if self.associativity == 1:
            for line in self._lines.values():
                if line.valid:
                    yield line.block
        else:
            for cache_set in self._sets.values():
                yield from cache_set.keys()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Hit fraction over all probes (0.0 when never probed)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DRAMCache(name={self.name!r}, size={self.size_bytes}, "
            f"clean={self.clean}, occupancy={self.occupancy()})"
        )
