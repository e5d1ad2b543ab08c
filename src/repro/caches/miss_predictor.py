"""Region-based DRAM-cache miss predictor (Table II: "region-based miss
predictor, 4K-entry, 2-cycle").

The predictor keeps a small, LRU-managed table of recently observed memory
*regions* (4 KiB by default).  Each entry stores a presence bit per block of
the region (MissMap semantics, as in the Loh & Hill design the paper cites):
the bit is set when the block is inserted into the DRAM cache and cleared
when it is evicted or invalidated.  On a DRAM-cache lookup the predictor is
consulted first:

* if the region is untracked, or tracked with the block's bit clear, the
  block is predicted absent and the slow DRAM-cache array access is skipped;
* otherwise the block is predicted present and the array is probed.

:meth:`~repro.caches.dram_cache.DRAMCache.probe` performs that lookup
inline (a tracked region it consults becomes the most recently used);
this class owns the table and its maintenance.

Displacing a region entry from the finite table loses its presence bits, so
a subsequent lookup may predict "absent" for a block that is actually
resident.  The :class:`~repro.caches.dram_cache.DRAMCache` double-checks such
predictions against the tag array before trusting them, so displacement can
cost latency/hit-rate but never correctness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..memory.address import DEFAULT_LAYOUT, AddressLayout

__all__ = ["RegionMissPredictor"]


class RegionMissPredictor:
    """Region-granularity presence predictor (MissMap) for the DRAM cache."""

    def __init__(
        self,
        *,
        entries: int = 4096,
        region_size: int = 4096,
        layout: Optional[AddressLayout] = None,
    ) -> None:
        self.layout = layout or DEFAULT_LAYOUT
        if entries <= 0:
            raise ValueError("entries must be positive")
        if region_size <= 0 or region_size % self.layout.block_size:
            raise ValueError("region_size must be a positive multiple of the block size")
        self.entries = entries
        self.region_size = region_size
        self._blocks_per_region = region_size // self.layout.block_size
        self._block_size = self.layout.block_size
        # region number -> bitmask of resident blocks, in LRU order.
        self._table: "OrderedDict[int, int]" = OrderedDict()

    # -- maintenance ----------------------------------------------------------

    def note_insert(self, block: int) -> None:
        """Record that ``block`` was inserted into the DRAM cache."""
        table = self._table
        region = (block * self._block_size) // self.region_size
        bits = table.get(region)
        if bits is None:
            if len(table) >= self.entries:
                table.popitem(last=False)
            bits = 0
        else:
            table.move_to_end(region)
        table[region] = bits | (1 << (block % self._blocks_per_region))

    def note_evict(self, block: int) -> None:
        """Record that ``block`` left the DRAM cache (eviction or invalidation)."""
        table = self._table
        region = (block * self._block_size) // self.region_size
        bits = table.get(region)
        if bits is None:
            return
        table[region] = bits & ~(1 << (block % self._blocks_per_region))
        table.move_to_end(region)
