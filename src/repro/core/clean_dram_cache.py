"""Clean DRAM-cache write-through policy (section IV-A).

The first of C3D's two ideas is to keep DRAM caches *clean*: when the LLC
evicts a modified block, the data is written back to main memory *and* a
clean copy is retained in the local DRAM cache.  The consequences this module
captures:

* a remote socket's read miss never needs to consult another socket's DRAM
  cache -- memory is always up to date for any block whose only copies live
  in DRAM caches;
* the local DRAM cache's hit rate is unaffected by the write-through, because
  a subsequent local read still hits the retained clean copy;
* write *traffic* to memory equals the baseline's (every dirty LLC eviction
  reaches memory in both designs), which is why Fig. 8 reports no change in
  write traffic.

:class:`CleanWriteThroughPolicy` encapsulates the eviction-time decision so
it can be unit-tested and ablated (the ablation benchmarks compare it against
the dirty victim-cache policy used by full-dir/snoopy).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..caches.dram_cache import DRAMCache

__all__ = ["EvictionDecision", "CleanWriteThroughPolicy", "DirtyVictimCachePolicy"]


@dataclass(frozen=True)
class EvictionDecision:
    """What to do with an LLC victim.

    Attributes
    ----------
    insert_in_dram_cache:
        Whether a copy of the victim should be inserted into the local DRAM
        cache (as a victim cache entry).
    insert_dirty:
        Whether that copy carries the dirty bit (only meaningful when
        ``insert_in_dram_cache``).
    write_through_to_memory:
        Whether the victim's data must be written back to its home memory now.
    """

    insert_in_dram_cache: bool
    insert_dirty: bool
    write_through_to_memory: bool


class CleanWriteThroughPolicy:
    """C3D's policy: retain a clean copy locally, write dirty data to memory."""

    name = "clean-write-through"
    keeps_cache_clean = True

    def on_llc_eviction(self, *, dirty: bool, has_dram_cache: bool = True) -> EvictionDecision:
        """Decide how to handle an LLC victim under the clean-cache policy."""
        if not has_dram_cache:
            return EvictionDecision(
                insert_in_dram_cache=False,
                insert_dirty=False,
                write_through_to_memory=dirty,
            )
        return EvictionDecision(
            insert_in_dram_cache=True,
            insert_dirty=False,
            write_through_to_memory=dirty,
        )

    @staticmethod
    def validate_cache(cache: DRAMCache) -> bool:
        """Check the clean invariant: no resident line is dirty."""
        return next(cache.dirty_blocks(), None) is None


class DirtyVictimCachePolicy:
    """The conventional policy (full-dir / snoopy): absorb dirty victims as-is."""

    name = "dirty-victim-cache"
    keeps_cache_clean = False

    def on_llc_eviction(self, *, dirty: bool, has_dram_cache: bool = True) -> EvictionDecision:
        """Decide how to handle an LLC victim under the dirty-victim policy."""
        if not has_dram_cache:
            return EvictionDecision(
                insert_in_dram_cache=False,
                insert_dirty=False,
                write_through_to_memory=dirty,
            )
        return EvictionDecision(
            insert_in_dram_cache=True,
            insert_dirty=dirty,
            write_through_to_memory=False,
        )
