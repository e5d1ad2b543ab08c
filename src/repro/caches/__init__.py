"""Cache substrate: SRAM caches and the DRAM cache with its miss predictor."""

from .dram_cache import DRAMCache, DRAMCacheProbe
from .sram_cache import DIRTY, MODIFIED, SetAssociativeCache

__all__ = [
    "SetAssociativeCache",
    "MODIFIED",
    "DIRTY",
    "DRAMCache",
    "DRAMCacheProbe",
]
