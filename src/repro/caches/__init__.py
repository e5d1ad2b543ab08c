"""Cache substrate: SRAM caches, DRAM cache, miss predictor."""

from .dram_cache import DRAMCache, DRAMCacheProbe
from .miss_predictor import RegionMissPredictor
from .sram_cache import DIRTY, MODIFIED, SetAssociativeCache

__all__ = [
    "SetAssociativeCache",
    "MODIFIED",
    "DIRTY",
    "DRAMCache",
    "DRAMCacheProbe",
    "RegionMissPredictor",
]
