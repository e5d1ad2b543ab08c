"""NUMA memory-allocation policies (paper section V, "Memory Allocation Policy").

The paper evaluates three page-placement policies and, per workload, uses the
best performing one:

* **Interleave (INT)** -- adjacent pages are placed round-robin across the
  sockets' memory controllers.
* **First-touch-1 (FT1)** -- the *first* access to a page (counted from
  application start, i.e. including the serial initialisation phase)
  determines its home socket.  Because initialisation is usually performed by
  one thread, FT1 tends to concentrate memory on a single socket.
* **First-touch-2 (FT2)** -- first-touch counting only begins once the
  parallel region is entered, so pages are distributed according to which
  socket's thread actually uses them first in steady state.

A policy object answers a single question: *which socket is the home of this
page?*  First-touch policies are stateful (they remember the first toucher);
interleave is stateless.  The :class:`AddressMapper` wraps a policy and the
:class:`~repro.memory.address.AddressLayout` to provide block-level home
lookups used by the directories and memory controllers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

from .address import DEFAULT_LAYOUT, AddressLayout

__all__ = [
    "AllocationPolicy",
    "InterleavePolicy",
    "FirstTouchPolicy",
    "AddressMapper",
    "make_policy",
    "POLICY_NAMES",
]


class AllocationPolicy(ABC):
    """Decides the home socket of each page."""

    name: str = "abstract"

    def __init__(self, num_sockets: int) -> None:
        if num_sockets < 1:
            raise ValueError("num_sockets must be >= 1")
        self.num_sockets = num_sockets

    @abstractmethod
    def home_of_page(self, page: int, toucher_socket: Optional[int] = None) -> int:
        """Return the home socket for ``page``.

        ``toucher_socket`` identifies the socket performing the access; it is
        required the first time a first-touch policy sees a page and ignored
        by stateless policies.
        """


class InterleavePolicy(AllocationPolicy):
    """Round-robin page interleaving across sockets (policy ``INT``)."""

    name = "interleave"

    def home_of_page(self, page: int, toucher_socket: Optional[int] = None) -> int:
        return page % self.num_sockets


class FirstTouchPolicy(AllocationPolicy):
    """First-touch placement (policies ``FT1`` and ``FT2``).

    The distinction between FT1 and FT2 in the paper is *when* touches begin
    to count: FT1 counts from application start (so the serial initialisation
    phase performed by thread 0 claims most pages for socket 0), while FT2
    starts counting when the parallel region is entered.  The policy itself is
    identical; the workload generators model the difference by optionally
    pre-touching pages from socket 0 (see
    :meth:`repro.workloads.synthetic.SyntheticWorkload.pretouch_pages`).
    """

    name = "first_touch"

    def __init__(self, num_sockets: int) -> None:
        super().__init__(num_sockets)
        self._page_home: Dict[int, int] = {}

    def home_of_page(self, page: int, toucher_socket: Optional[int] = None) -> int:
        home = self._page_home.get(page)
        if home is None:
            if toucher_socket is None:
                # A lookup for a never-touched page (e.g. by a directory
                # probe) falls back to interleaving so that the answer is
                # deterministic; the page will be pinned on its first real
                # touch.
                return page % self.num_sockets
            home = toucher_socket % self.num_sockets
            self._page_home[page] = home
        return home

    def pin_page(self, page: int, socket: int) -> None:
        """Force the placement of ``page`` (used to model FT1 pre-touching)."""
        self._page_home[page] = socket % self.num_sockets


#: The policy names :func:`make_policy` accepts, matching the paper's
#: labels; there is one spelling of each.
POLICY_NAMES = ("interleave", "first_touch", "ft1", "ft2")


def make_policy(name: str, num_sockets: int) -> AllocationPolicy:
    """Create an allocation policy from its paper name (:data:`POLICY_NAMES`).

    ``first_touch``, ``ft1`` and ``ft2`` all map to
    :class:`FirstTouchPolicy`; the FT1/FT2 distinction is realised by the
    workload's pre-touch behaviour.
    """
    if name == "interleave":
        return InterleavePolicy(num_sockets)
    if name in POLICY_NAMES:
        return FirstTouchPolicy(num_sockets)
    raise ValueError(f"unknown allocation policy {name!r}; expected one of {POLICY_NAMES}")


@dataclass
class AddressMapper:
    """Maps byte/block addresses to their home socket via an allocation policy.

    The mapper also records which pages have been touched so far, which the
    statistics module uses to report footprint sizes.
    """

    policy: AllocationPolicy
    layout: AddressLayout = field(default_factory=lambda: DEFAULT_LAYOUT)

    def __post_init__(self) -> None:
        self._touched_pages: Dict[int, int] = {}
        self._blocks_per_page = self.layout.page_size // self.layout.block_size
        # Fast home lookups for the built-in policies (the page->home dict of
        # a first-touch policy is never reassigned, only mutated in place).
        self._ft_page_home = (
            self.policy._page_home if isinstance(self.policy, FirstTouchPolicy) else None
        )

    @property
    def num_sockets(self) -> int:
        return self.policy.num_sockets

    def touch(self, addr: int, socket: int) -> int:
        """Record an access to ``addr`` by ``socket`` and return the home socket."""
        return self.touch_page(self.layout.page_of(addr), socket)

    def touch_page(self, page: int, socket: int) -> int:
        """Record an access to ``page`` by ``socket`` and return the home socket.

        Hot-loop entry point used by the compiled engine, which has the page
        number precomputed and skips the byte-address division.
        """
        home = self.policy.home_of_page(page, toucher_socket=socket)
        if page not in self._touched_pages:
            self._touched_pages[page] = home
        return home

    def home_of_block(self, block: int) -> int:
        """Return the home socket of block number ``block``."""
        page = block // self._blocks_per_page
        page_home = self._ft_page_home
        if page_home is not None:
            # Inlined FirstTouchPolicy.home_of_page without a toucher: an
            # unplaced page falls back to interleaving (and is not pinned).
            home = page_home.get(page)
            return home if home is not None else page % self.policy.num_sockets
        return self.policy.home_of_page(page)
