"""Coherence substrate: directories, messages, and the non-C3D protocols."""

from .baseline import BaselineProtocol
from .directory import DirectoryCostModel, DirectoryEntry, DirectoryState, GlobalDirectory
from .full_directory import FullDirectoryProtocol
from .local_directory import LocalDirectory, LocalDirectoryEntry
from .messages import ServiceSource
from .protocol_base import GlobalCoherenceProtocol
from .snoopy import SnoopyProtocol

__all__ = [
    "GlobalCoherenceProtocol",
    "BaselineProtocol",
    "SnoopyProtocol",
    "FullDirectoryProtocol",
    "GlobalDirectory",
    "DirectoryEntry",
    "DirectoryState",
    "DirectoryCostModel",
    "LocalDirectory",
    "LocalDirectoryEntry",
    "ServiceSource",
]
