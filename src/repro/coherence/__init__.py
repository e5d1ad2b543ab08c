"""Coherence substrate: directories, messages, and the non-C3D protocols."""

from .baseline import BaselineProtocol
from .directory import DecodedEntry, DirectoryCostModel, DirectoryState, GlobalDirectory
from .full_directory import FullDirectoryProtocol
from .local_directory import LocalDirectory
from .messages import ServiceSource
from .protocol_base import GlobalCoherenceProtocol
from .snoopy import SnoopyProtocol

__all__ = [
    "GlobalCoherenceProtocol",
    "BaselineProtocol",
    "SnoopyProtocol",
    "FullDirectoryProtocol",
    "GlobalDirectory",
    "DecodedEntry",
    "DirectoryState",
    "DirectoryCostModel",
    "LocalDirectory",
    "ServiceSource",
]
