"""Block-based DRAM cache (Table II: 1 GB, direct-mapped, 64-byte blocks,
40 ns access, region-based miss predictor).

Two operating modes are supported, selected by ``clean``:

* ``clean=True`` (C3D): the cache never holds dirty data.  Modified LLC
  victims are inserted *clean*; the owning socket is responsible for writing
  the data through to memory.  ``insert`` therefore never produces a victim
  that needs a writeback.
* ``clean=False`` (snoopy / full-dir designs): modified LLC victims are
  absorbed dirty, and evicting a dirty line produces a writeback to memory.

A DRAM-cache line is only a block number and a dirty bit: coherence-wise it
is always Shared, and no replacement decision reads a use time.  So the tag
store holds plain ints, never line objects: the cache is direct-mapped, as
in the paper, and stored as one flat dict ``set index -> block << 1 | dirty``.
A dict of ints is not tracked by the cyclic garbage collector, however many
lines a prewarm fills, and :meth:`DRAMCache.share_fill` hands one fill to
several sockets' caches by copying it: no line is shared between two caches.  The encoding stays inside
this class; callers read :meth:`DRAMCache.dirty_of`,
:meth:`DRAMCache.resident_blocks` and :meth:`DRAMCache.dirty_blocks`.

The DRAM cache is *non-inclusive* with respect to the on-chip hierarchy in
all designs (section IV-C): it never forces LLC invalidations, and LLC fills
do not have to allocate here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

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


# Probe outcomes are immutable to callers, so the hot path returns shared
# instances instead of allocating one per probe.
_PROBE_MISS_BYPASS = DRAMCacheProbe(hit=False, array_accessed=False)
_PROBE_MISS_ARRAY = DRAMCacheProbe(hit=False, array_accessed=True)
_PROBE_HIT = DRAMCacheProbe(hit=True, array_accessed=True)


class DRAMCache:
    """Direct-mapped DRAM cache of 64-byte blocks."""

    def __init__(
        self,
        size_bytes: int,
        *,
        block_size: int = 64,
        clean: bool = True,
        name: str = "dram_cache",
        miss_predictor: Optional[RegionMissPredictor] = None,
    ) -> None:
        if size_bytes <= 0 or block_size <= 0:
            raise ValueError("cache geometry parameters must be positive")
        self.num_sets = size_bytes // block_size
        if self.num_sets == 0:
            raise ValueError(f"{name}: size {size_bytes} smaller than one block")
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.clean = clean
        self.miss_predictor = miss_predictor
        #: set index -> block << 1 | dirty.
        self._lines: Dict[int, int] = {}

    # -- geometry -----------------------------------------------------------

    def set_index(self, block: int) -> int:
        """Set index of block number ``block``."""
        return block % self.num_sets

    # -- queries ------------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (no side effects)."""
        tag = self._lines.get(block % self.num_sets)
        return tag is not None and tag >> 1 == block

    def dirty_of(self, block: int) -> Optional[bool]:
        """Dirty bit of resident ``block``, or ``None`` when it is not
        resident (no side effects)."""
        tag = self._lines.get(block % self.num_sets)
        if tag is not None and tag >> 1 == block:
            return (tag & 1) == 1
        return None

    def probe(self, block: int) -> DRAMCacheProbe:
        """Look up ``block``, consulting the miss predictor first.

        When the predictor predicts a miss the DRAM array is not accessed;
        the caller should charge only the predictor latency in that case.
        The cache counts nothing: callers record the outcome in
        ``SimulationStats``.
        """
        # The tag is read once, inline; the predictor's bookkeeping below
        # neither depends on nor changes it.
        tag = self._lines.get(block % self.num_sets)
        hit = tag is not None and tag >> 1 == block
        predictor = self.miss_predictor
        if predictor is not None:
            # The predictor's lookup (miss_predictor's module docstring).
            table = predictor._table
            region = (block * predictor._block_size) // predictor.region_size
            bits = table.get(region)
            if bits is not None:
                table.move_to_end(region)
            if not hit and (
                bits is None or not bits & (1 << (block % predictor._blocks_per_region))
            ):
                return _PROBE_MISS_BYPASS
            # A predicted miss on a resident line is a mis-prediction (the
            # predictor lost this region's residency information): fall
            # through to the array access so that a resident -- possibly
            # dirty -- line is never silently ignored.
        return _PROBE_HIT if hit else _PROBE_MISS_ARRAY

    # -- mutations ------------------------------------------------------------

    def insert(self, block: int, *, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``block``; return the displaced victim as
        ``(victim_block, victim_dirty)``, or ``None`` when nothing was
        displaced.

        In clean mode the inserted line is always stored clean regardless of
        the ``dirty`` argument (the caller performs the memory write-through),
        and victims are never dirty.  Re-inserting a resident block keeps its
        dirty bit and sets it when ``dirty`` is stored.
        """
        stored_dirty = dirty and not self.clean
        predictor = self.miss_predictor
        index = block % self.num_sets
        lines = self._lines
        tag = lines.get(index)

        victim: Optional[Tuple[int, bool]] = None
        if tag is not None:
            victim_block = tag >> 1
            if victim_block == block:
                if stored_dirty:
                    lines[index] = tag | 1
                return None
            victim = (victim_block, (tag & 1) == 1)
            if predictor is not None:
                predictor.note_evict(victim_block)

        lines[index] = block << 1 | stored_dirty
        if predictor is not None:
            predictor.note_insert(block)
        return victim

    def bulk_insert_clean(self, blocks) -> int:
        """Insert an iterable of block numbers clean (prewarm fast path).

        Semantically identical to calling ``insert(block, dirty=False)`` for
        each block in order -- same final tags, same predictor table in the
        same LRU order -- but vectorised: contiguous ranges fill the tag
        store with one ``dict.update`` from a ``zip`` of set indices and
        clean tags (``range(2 * start, 2 * stop, 2)``, as each tag is
        ``block << 1``), and predictor presence bits are OR-ed per *region*
        instead of per block.  Falls back to a faithful per-block loop for
        non-contiguous inputs, ranges longer than the cache and
        predictor-displacement corner cases.  Returns the number of
        blocks processed.
        """
        if isinstance(blocks, range) and blocks.step == 1 and 0 < len(blocks) <= self.num_sets:
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

        # Set conflicts with already-resident lines (rare relative to n).
        # ``same_block`` entries keep their existing tag (dirty bit
        # preserved); the displaced victims are noted in the predictor below.
        victims_by_region = {}
        same_block = []
        predictor = self.miss_predictor
        if lines:
            evicted = []  # (inserting block, victim block), later sorted to
            # recover the per-block processing order the loop path would use.
            for index in lines.keys() & set(idx_list):
                tag = lines[index]
                block = start + (index - start) % num_sets
                if tag >> 1 == block:
                    same_block.append((index, tag, block))
                    continue
                evicted.append((block, tag >> 1))
            if predictor is not None and evicted:
                evicted.sort()
                for block, victim_block in evicted:
                    region = (block * predictor._block_size) // predictor.region_size
                    victims_by_region.setdefault(region, []).append(victim_block)

        lines.update(zip(idx_list, range(2 * start, 2 * stop, 2)))
        for index, tag, _block in same_block:
            lines[index] = tag

        if predictor is not None:
            # Blocks already resident as themselves are *not* re-inserted by
            # the per-block path, so they contribute no presence bit and no
            # region touch.
            skipped_by_region = {}
            if same_block:
                bs = predictor._block_size
                rs = predictor.region_size
                bpr_bits = predictor._blocks_per_region
                for _index, _tag, block in same_block:
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
        lines = self._lines
        num_sets = self.num_sets
        predictor = self.miss_predictor
        if predictor is not None:
            table = predictor._table
            table_get = table.get
            move_to_end = table.move_to_end
            entries = predictor.entries
            block_size = predictor._block_size
            region_size = predictor.region_size
            blocks_per_region = predictor._blocks_per_region
        count = 0
        for block in blocks:
            count += 1
            tag = lines.get(block % num_sets)
            if tag is not None:
                victim_block = tag >> 1
                if victim_block == block:
                    continue
                if predictor is not None:
                    # Inlined RegionMissPredictor.note_evict(victim_block).
                    region = (victim_block * block_size) // region_size
                    bits = table_get(region)
                    if bits is not None:
                        table[region] = bits & ~(1 << (victim_block % blocks_per_region))
                        move_to_end(region)
            lines[block % num_sets] = block << 1
            if predictor is not None:
                # Inlined RegionMissPredictor.note_insert(block).
                region = (block * block_size) // region_size
                bits = table_get(region)
                if bits is None:
                    if len(table) >= entries:
                        table.popitem(last=False)
                    bits = 0
                else:
                    move_to_end(region)
                table[region] = bits | (1 << (block % blocks_per_region))
        return count

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` (e.g. on a broadcast invalidation); return whether
        it was resident."""
        index = block % self.num_sets
        tag = self._lines.get(index)
        if tag is None or tag >> 1 != block:
            return False
        del self._lines[index]
        if self.miss_predictor is not None:
            self.miss_predictor.note_evict(block)
        return True

    def mark_clean(self, block: int) -> None:
        """Clear the dirty bit of a resident block (after a writeback)."""
        index = block % self.num_sets
        if self._lines.get(index) == block << 1 | 1:
            self._lines[index] = block << 1

    def clear(self) -> None:
        """Drop all contents."""
        self._lines.clear()

    # -- prewarm fill sharing ----------------------------------------------------

    def is_empty(self) -> bool:
        """True when no set holds a line and the predictor tracks no region."""
        predictor = self.miss_predictor
        return not self._lines and (predictor is None or not predictor._table)

    def _geometry(self) -> Tuple:
        predictor = self.miss_predictor
        return (
            self.num_sets,
            self.block_size,
            None if predictor is None else (
                predictor.entries, predictor.region_size, predictor._block_size
            ),
        )

    def share_fill(self, source: "DRAMCache") -> None:
        """Adopt the clean fill ``source`` received, instead of repeating it.

        This cache must be empty (:meth:`is_empty`) and share ``source``'s
        geometry, and ``source`` must have been empty before its fill.
        Afterwards the tag store and predictor table equal ``source``'s, in
        the same order: the state a replay of the same inserts would leave.
        The tags are ints, so the copies share nothing a later change to
        either cache could reach.
        """
        if not self.is_empty():
            raise ValueError(f"{self.name}: share_fill needs an empty cache")
        if self._geometry() != source._geometry():
            raise ValueError(f"{self.name}: geometry differs from {source.name}")
        self._lines = source._lines.copy()
        predictor = self.miss_predictor
        if predictor is not None:
            predictor._table = source.miss_predictor._table.copy()

    # -- state queries --------------------------------------------------------

    def resident_blocks(self) -> Iterator[int]:
        """Resident block numbers, in tag-store order."""
        return (tag >> 1 for tag in self._lines.values())

    def dirty_blocks(self) -> Iterator[int]:
        """Resident dirty block numbers, in tag-store order."""
        return (tag >> 1 for tag in self._lines.values() if tag & 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DRAMCache(name={self.name!r}, size={self.size_bytes}, "
            f"clean={self.clean}, occupancy={len(self._lines)})"
        )
