"""Coherence vocabulary shared by all protocol implementations.

A protocol services an LLC miss by returning ``(latency, source)`` to the
socket; :class:`ServiceSource` names where the data (or write permission)
came from, for the AMAT and traffic breakdowns.
"""

from __future__ import annotations

import enum

__all__ = ["ServiceSource"]


class ServiceSource(enum.Enum):
    """Where a request was ultimately served from (for AMAT breakdowns)."""

    L1 = "l1"
    LOCAL_L1_PEER = "local_l1_peer"
    LLC = "llc"
    LOCAL_DRAM_CACHE = "local_dram_cache"
    LOCAL_MEMORY = "local_memory"
    REMOTE_LLC = "remote_llc"
    REMOTE_DRAM_CACHE = "remote_dram_cache"
    REMOTE_MEMORY = "remote_memory"
    STORE_BUFFER = "store_buffer"

    __hash__ = object.__hash__  # identity hashing, C-level
