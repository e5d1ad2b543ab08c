"""Block-based DRAM cache (Table II: 1 GB, direct-mapped, 64-byte blocks,
40 ns access, region-based miss predictor, 4K-entry, 2-cycle).

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

The cache owns its miss predictor: a small, LRU-managed table of recently
observed memory *regions* (4 KiB by default), region ``block //
blocks_per_region``.  Each entry stores a presence bit per block of the
region (MissMap semantics, as in the Loh & Hill design the paper cites): the
bit is set when the block is inserted and cleared when it is evicted or
invalidated.  :meth:`DRAMCache.probe` consults the table first:

* if the region is untracked, or tracked with the block's bit clear, the
  block is predicted absent and the slow DRAM-cache array access is skipped;
* otherwise the block is predicted present and the array is probed.

A tracked region a probe consults becomes the most recently used.
Displacing a region entry from the finite table loses its presence bits, so
a later lookup may predict "absent" for a block that is actually resident.
The probe double-checks such predictions against the tag store before
trusting them, so displacement can cost latency and hit rate but never
correctness.  :meth:`DRAMCache.insert`, :meth:`DRAMCache.invalidate` and
the bulk fills update the table inline; the encoding (``region ->
presence bitmask``, LRU first) stays in this module.

The DRAM cache is *non-inclusive* with respect to the on-chip hierarchy in
all designs (section IV-C): it never forces LLC invalidations, and LLC fills
do not have to allocate here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

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
    """Direct-mapped DRAM cache of 64-byte blocks with its region miss
    predictor (``predictor_entries`` regions of ``region_size`` bytes)."""

    def __init__(
        self,
        size_bytes: int,
        *,
        block_size: int = 64,
        clean: bool = True,
        name: str = "dram_cache",
        predictor_entries: int = 4096,
        region_size: int = 4096,
    ) -> None:
        if size_bytes <= 0 or block_size <= 0:
            raise ValueError("cache geometry parameters must be positive")
        self.num_sets = size_bytes // block_size
        if self.num_sets == 0:
            raise ValueError(f"{name}: size {size_bytes} smaller than one block")
        if predictor_entries <= 0:
            raise ValueError(f"{name}: predictor_entries must be positive")
        if region_size <= 0 or region_size % block_size:
            raise ValueError(
                f"{name}: region_size must be a positive multiple of the block size"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.clean = clean
        self.predictor_entries = predictor_entries
        self.region_size = region_size
        self._blocks_per_region = region_size // block_size
        #: set index -> block << 1 | dirty.
        self._lines: Dict[int, int] = {}
        #: The miss predictor's table: region -> presence bitmask, LRU first.
        self._regions: "OrderedDict[int, int]" = OrderedDict()

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
        # The tag is read once, inline; the region table's upkeep below
        # neither depends on nor changes it.
        tag = self._lines.get(block % self.num_sets)
        hit = tag is not None and tag >> 1 == block
        regions = self._regions
        blocks_per_region = self._blocks_per_region
        region = block // blocks_per_region
        bits = regions.get(region)
        if bits is not None:
            regions.move_to_end(region)
        if not hit and (bits is None or not bits & (1 << (block % blocks_per_region))):
            return _PROBE_MISS_BYPASS
        # A predicted miss on a resident line is a mis-prediction (the table
        # lost this region's residency information): fall through to the
        # array access so that a resident -- possibly dirty -- line is never
        # silently ignored.
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
        index = block % self.num_sets
        lines = self._lines
        tag = lines.get(index)
        regions = self._regions
        blocks_per_region = self._blocks_per_region

        victim: Optional[Tuple[int, bool]] = None
        if tag is not None:
            victim_block = tag >> 1
            if victim_block == block:
                if stored_dirty:
                    lines[index] = tag | 1
                return None
            victim = (victim_block, (tag & 1) == 1)
            # The victim's presence bit clears; a displaced region has none.
            region = victim_block // blocks_per_region
            bits = regions.get(region)
            if bits is not None:
                regions[region] = bits & ~(1 << (victim_block % blocks_per_region))
                regions.move_to_end(region)

        lines[index] = block << 1 | stored_dirty
        region = block // blocks_per_region
        bits = regions.get(region)
        if bits is None:
            if len(regions) >= self.predictor_entries:
                regions.popitem(last=False)
            bits = 0
        else:
            regions.move_to_end(region)
        regions[region] = bits | (1 << (block % blocks_per_region))
        return victim

    def bulk_insert_clean(self, blocks) -> int:
        """Insert an iterable of block numbers clean (prewarm fast path).

        Semantically identical to calling ``insert(block, dirty=False)`` for
        each block in order -- same final tags, same region table in the
        same LRU order -- but vectorised: contiguous ranges fill the tag
        store with one ``dict.update`` from a ``zip`` of set indices and
        clean tags (``range(2 * start, 2 * stop, 2)``, as each tag is
        ``block << 1``), and presence bits are OR-ed per *region* instead
        of per block.  Falls back to a faithful per-block loop for
        non-contiguous inputs, ranges longer than the cache and
        region-displacement corner cases.  Returns the number of blocks
        processed.
        """
        if isinstance(blocks, range) and blocks.step == 1 and 0 < len(blocks) <= self.num_sets:
            blocks_per_region = self._blocks_per_region
            spanned = (blocks.stop - 1) // blocks_per_region - blocks.start // blocks_per_region
            # The batched path cannot reproduce mid-stream table displacement
            # order, so require headroom for every region it may allocate.
            if len(self._regions) + spanned + 1 < self.predictor_entries:
                return self._bulk_fill_range(blocks)
        return self._bulk_insert_clean_loop(blocks)

    def _bulk_fill_range(self, blocks: range) -> int:
        """Vectorised clean fill of a contiguous block range (see above).

        Requires ``len(blocks) <= num_sets`` (so all set indices are
        distinct) and region-table headroom (no displacements possible).
        """
        lines = self._lines
        num_sets = self.num_sets
        bpr = self._blocks_per_region
        start, stop = blocks.start, blocks.stop
        n = stop - start

        if start % num_sets + n <= num_sets:
            idx_list = range(start % num_sets, start % num_sets + n)
        else:
            idx_list = [b % num_sets for b in blocks]

        # Set conflicts with already-resident lines (rare relative to n).
        # A block already resident as itself keeps its tag (dirty bit
        # preserved) and, as the per-block path does not re-insert it, sets
        # no presence bit and touches no region; the displaced victims'
        # bits clear below.
        victims_by_region = {}
        skipped_by_region = {}
        same_block = []
        if lines:
            evicted = []  # (inserting block, victim block), later sorted to
            # recover the per-block processing order the loop path would use.
            for index in lines.keys() & set(idx_list):
                tag = lines[index]
                block = start + (index - start) % num_sets
                if tag >> 1 == block:
                    same_block.append((index, tag))
                    region = block // bpr
                    skipped_by_region[region] = skipped_by_region.get(region, 0) | (
                        1 << (block % bpr)
                    )
                    continue
                evicted.append((block, tag >> 1))
            evicted.sort()
            for block, victim_block in evicted:
                victims_by_region.setdefault(block // bpr, []).append(victim_block)

        lines.update(zip(idx_list, range(2 * start, 2 * stop, 2)))
        for index, tag in same_block:
            lines[index] = tag

        # Region-batched table update, preserving the exact LRU order of the
        # per-block path: within each region's chunk the evicted victims
        # clear their bits first (in block order), then the region's
        # presence bits are OR-ed in and the region moves to the back.
        regions = self._regions
        regions_get = regions.get
        move_to_end = regions.move_to_end
        for region in range(start // bpr, (stop - 1) // bpr + 1):
            for victim_block in victims_by_region.get(region, ()):
                victim_region = victim_block // bpr
                bits = regions_get(victim_region)
                if bits is not None:
                    regions[victim_region] = bits & ~(1 << (victim_block % bpr))
                    move_to_end(victim_region)
            region_first = max(start, region * bpr)
            region_stop = min(stop, (region + 1) * bpr)
            mask = ((1 << (region_stop - region_first)) - 1) << (region_first % bpr)
            mask &= ~skipped_by_region.get(region, 0)
            if not mask:
                # Every block of this chunk was already resident: the
                # per-block path performs no insert and no region touch.
                continue
            bits = regions_get(region)
            if bits is None:
                regions[region] = mask
            else:
                move_to_end(region)
                regions[region] = bits | mask
        return n

    def _bulk_insert_clean_loop(self, blocks) -> int:
        """Faithful per-block loop behind :meth:`bulk_insert_clean`: the
        clean ``insert`` of each block, inlined."""
        lines = self._lines
        num_sets = self.num_sets
        regions = self._regions
        regions_get = regions.get
        move_to_end = regions.move_to_end
        entries = self.predictor_entries
        bpr = self._blocks_per_region
        count = 0
        for block in blocks:
            count += 1
            tag = lines.get(block % num_sets)
            if tag is not None:
                victim_block = tag >> 1
                if victim_block == block:
                    continue
                region = victim_block // bpr
                bits = regions_get(region)
                if bits is not None:
                    regions[region] = bits & ~(1 << (victim_block % bpr))
                    move_to_end(region)
            lines[block % num_sets] = block << 1
            region = block // bpr
            bits = regions_get(region)
            if bits is None:
                if len(regions) >= entries:
                    regions.popitem(last=False)
                bits = 0
            else:
                move_to_end(region)
            regions[region] = bits | (1 << (block % bpr))
        return count

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` (e.g. on a broadcast invalidation); return whether
        it was resident."""
        index = block % self.num_sets
        tag = self._lines.get(index)
        if tag is None or tag >> 1 != block:
            return False
        del self._lines[index]
        regions = self._regions
        region = block // self._blocks_per_region
        bits = regions.get(region)
        if bits is not None:
            regions[region] = bits & ~(1 << (block % self._blocks_per_region))
            regions.move_to_end(region)
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
        """True when no set holds a line and the region table tracks no
        region."""
        return not self._lines and not self._regions

    def _geometry(self) -> Tuple:
        return (self.num_sets, self.block_size, self.predictor_entries, self.region_size)

    def share_fill(self, source: "DRAMCache") -> None:
        """Adopt the clean fill ``source`` received, instead of repeating it.

        This cache must be empty (:meth:`is_empty`) and share ``source``'s
        geometry, and ``source`` must have been empty before its fill.
        Afterwards the tag store and region table equal ``source``'s, in
        the same order: the state a replay of the same inserts would leave.
        The tags are ints, so the copies share nothing a later change to
        either cache could reach.
        """
        if not self.is_empty():
            raise ValueError(f"{self.name}: share_fill needs an empty cache")
        if self._geometry() != source._geometry():
            raise ValueError(f"{self.name}: geometry differs from {source.name}")
        self._lines = source._lines.copy()
        self._regions = source._regions.copy()

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
