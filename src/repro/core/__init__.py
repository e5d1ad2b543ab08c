"""C3D core: the paper's contribution (clean coherent DRAM caches).

This package contains the C3D protocol itself (its ``llc_eviction`` is the
clean write-through policy of section IV-A), the idealised C3D +
full-directory variant, and the TLB-based private/shared page classifier
used to filter broadcasts.
"""

from .c3d_full_dir import C3DFullDirectoryProtocol
from .c3d_protocol import C3DProtocol
from .page_classifier import PrivateSharedClassifier

__all__ = [
    "C3DProtocol",
    "C3DFullDirectoryProtocol",
    "PrivateSharedClassifier",
]
