"""Physical address arithmetic for the simulated NUMA machine.

Every component of the simulator (caches, directories, memory controllers,
allocation policies) reasons about addresses at one of three granularities:

* **block** -- the coherence and caching unit (64 bytes in the paper),
* **page** -- the OS allocation / NUMA placement unit (4 KiB),
* **region** -- the granularity of the DRAM-cache miss predictor (4 KiB by
  default, matching the region-based predictor of Qureshi & Loh cited by the
  paper).

An :class:`AddressLayout` instance bundles the block and page sizes and
provides the conversions.  Addresses are plain integers (byte addresses), so
the layout is stateless and cheap to share between components.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AddressLayout", "DEFAULT_LAYOUT"]


def _check_power_of_two(value: int, name: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class AddressLayout:
    """Byte-address arithmetic helpers.

    Parameters
    ----------
    block_size:
        Size of a cache block in bytes (the coherence unit).
    page_size:
        Size of an OS page in bytes (the NUMA placement unit).
    """

    block_size: int = 64
    page_size: int = 4096

    def __post_init__(self) -> None:
        _check_power_of_two(self.block_size, "block_size")
        _check_power_of_two(self.page_size, "page_size")
        if self.page_size < self.block_size:
            raise ValueError("page_size must be at least block_size")

    # -- block granularity -------------------------------------------------

    def block_of(self, addr: int) -> int:
        """Return the block *number* containing byte address ``addr``."""
        return addr // self.block_size

    # -- page granularity --------------------------------------------------

    def page_of(self, addr: int) -> int:
        """Return the page *number* containing byte address ``addr``."""
        return addr // self.page_size

    def page_of_block(self, block: int) -> int:
        """Return the page number containing block number ``block``."""
        return (block * self.block_size) // self.page_size

    def blocks_per_page(self) -> int:
        """Number of cache blocks per OS page."""
        return self.page_size // self.block_size


#: Layout matching the paper's Table II (64-byte blocks, 4 KiB pages).
DEFAULT_LAYOUT = AddressLayout()
