"""C3D core: the paper's contribution (clean coherent DRAM caches).

This package contains the C3D protocol itself, the clean write-through
policy, the idealised C3D + full-directory variant, and the TLB-based
private/shared page classifier used to filter broadcasts.
"""

from .c3d_full_dir import C3DFullDirectoryProtocol
from .c3d_protocol import C3DProtocol
from .clean_dram_cache import (
    CleanWriteThroughPolicy,
    DirtyVictimCachePolicy,
    EvictionDecision,
)
from .page_classifier import PrivateSharedClassifier

__all__ = [
    "C3DProtocol",
    "C3DFullDirectoryProtocol",
    "CleanWriteThroughPolicy",
    "DirtyVictimCachePolicy",
    "EvictionDecision",
    "PrivateSharedClassifier",
]
