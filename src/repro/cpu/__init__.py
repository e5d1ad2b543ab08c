"""CPU substrate: timing cores and store buffers."""

from .processor import Core
from .store_buffer import StoreBuffer

__all__ = ["Core", "StoreBuffer"]
