"""Synthetic workload generators (the reproduction's substitute for Pin/Simics traces).

The paper drives its simulator with traces collected from PARSEC 3.0 and
CloudSuite running their native inputs.  Those traces are not available (and
could not be replayed at full length in Python anyway), so each benchmark is
modelled as a parameterised synthetic access-stream generator.  The model is
deliberately simple and is entirely described by the parameters of
:class:`WorkloadSpec`; what matters for the paper's evaluation is the
*statistics* of the stream, not instruction semantics:

* a per-thread **private** region (stack/heap-local data), small enough to be
  mostly cache-resident and homed locally by first touch;
* a **hot shared** region sized around the LLC, which models actively
  communicated data (producer/consumer, locks, shared counters).  Writes to
  it create inter-socket communication and expose the dirty-DRAM-cache
  pathologies of the naive designs;
* a **warm shared** region sized between the LLC and the DRAM cache -- the
  temporal locality "beyond the reach of on-chip caches" that DRAM caches
  exploit (Fig. 3);
* a **cold shared** region far larger than any cache, modelling streaming or
  truly random accesses that no cache can capture.

Because the shared regions are first-touched by whichever thread happens to
reach each page first, pages spread roughly uniformly across sockets, which
reproduces the ~75 % remote-access fractions of Table I under first-touch
placement.

All region sizes are expressed in *paper-scale* bytes and divided by the
experiment's scale factor together with the cache capacities
(docs/experiments.md, "Fidelity knobs"), which preserves hit rates and
therefore the normalised results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from ..memory.address import DEFAULT_LAYOUT, AddressLayout
from .trace import MemoryAccess

__all__ = ["WorkloadSpec", "SyntheticWorkload", "REGION_NAMES"]

#: Region identifiers in the order used by the mix vector.
REGION_NAMES = ("private", "hot", "warm", "cold")

# Base virtual addresses for the shared regions.  Private regions start at 0;
# the shared regions are placed at fixed high bases so that the regions never
# overlap for any realistic size/scale combination.
_PRIVATE_BASE = 0x0000_0000_0000
_HOT_BASE = 0x0100_0000_0000
_WARM_BASE = 0x0200_0000_0000
_COLD_BASE = 0x0400_0000_0000


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters describing one benchmark's synthetic access stream.

    Sizes are in bytes at paper scale; probabilities are per memory access.
    """

    name: str
    num_threads: int = 32

    # -- region sizes (paper scale, bytes) ----------------------------------
    private_bytes_per_thread: int = 4 * 2**20
    hot_shared_bytes: int = 32 * 2**20
    warm_shared_bytes: int = 768 * 2**20
    cold_shared_bytes: int = 0

    # -- access mix (must sum to 1.0) -----------------------------------------
    p_private: float = 0.30
    p_hot: float = 0.15
    p_warm: float = 0.50
    p_cold: float = 0.05

    # -- write fractions ---------------------------------------------------------
    write_fraction_private: float = 0.35
    write_fraction_hot: float = 0.30
    write_fraction_warm: float = 0.10
    write_fraction_cold: float = 0.05

    # -- stream shape -----------------------------------------------------------
    mean_gap: int = 2
    spatial_accesses_per_block: int = 2
    seed: int = 1234

    #: The allocation policy the paper found best for this workload.
    best_policy: str = "ft2"
    #: Free-form description used in reports.
    description: str = ""

    def __post_init__(self) -> None:
        total = self.p_private + self.p_hot + self.p_warm + self.p_cold
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"{self.name}: access mix must sum to 1.0 (got {total})")
        for name in ("p_private", "p_hot", "p_warm", "p_cold"):
            if getattr(self, name) < 0:
                raise ValueError(f"{self.name}: {name} must be non-negative")
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")

    def scaled(self, factor: int) -> "WorkloadSpec":
        """Divide every region size by ``factor`` (keeping at least one page)."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        if factor == 1:
            return self

        def scale(value: int) -> int:
            if value == 0:
                return 0
            return max(4096, value // factor)

        return dataclasses.replace(
            self,
            private_bytes_per_thread=scale(self.private_bytes_per_thread),
            hot_shared_bytes=scale(self.hot_shared_bytes),
            warm_shared_bytes=scale(self.warm_shared_bytes),
            cold_shared_bytes=scale(self.cold_shared_bytes),
        )

    def with_threads(self, num_threads: int) -> "WorkloadSpec":
        """Return a copy targeting a different thread count."""
        return dataclasses.replace(self, num_threads=num_threads)


class SyntheticWorkload:
    """Generates per-thread access streams from a :class:`WorkloadSpec`."""

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        accesses_per_thread: int = 20_000,
        layout: Optional[AddressLayout] = None,
    ) -> None:
        if accesses_per_thread < 1:
            raise ValueError("accesses_per_thread must be >= 1")
        self.spec = spec
        self.accesses_per_thread = accesses_per_thread
        self.layout = layout or DEFAULT_LAYOUT

    # -- identity -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_threads(self) -> int:
        return self.spec.num_threads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyntheticWorkload({self.spec.name!r}, threads={self.num_threads})"

    def trace_key(self) -> tuple:
        """Everything the access streams depend on: equal keys, equal traces.

        :meth:`~repro.engines.EngineContext.compile_streams` reuses the
        traces it compiled last only under an equal key, so two instances
        built from the same parameters (one per machine in a figure loop)
        share one compile.
        """
        return (type(self), self.spec, self.accesses_per_thread, self.layout)

    # -- region geometry ---------------------------------------------------------

    def _private_base(self, thread_id: int) -> int:
        return _PRIVATE_BASE + thread_id * max(self.spec.private_bytes_per_thread, 4096) * 2

    def region_blocks(self, region: str, thread_id: int = 0) -> int:
        """Number of blocks in a region (per thread for the private region)."""
        sizes = {
            "private": self.spec.private_bytes_per_thread,
            "hot": self.spec.hot_shared_bytes,
            "warm": self.spec.warm_shared_bytes,
            "cold": self.spec.cold_shared_bytes,
        }
        return max(1, sizes[region] // self.layout.block_size)

    def _region_base(self, region: str, thread_id: int) -> int:
        bases = {
            "private": self._private_base(thread_id),
            "hot": _HOT_BASE,
            "warm": _WARM_BASE,
            "cold": _COLD_BASE,
        }
        return bases[region]

    # -- stream generation ---------------------------------------------------------

    def _batches(self, thread_id: int):
        """Yield ``(addrs, writes, gaps)`` numpy array batches for one thread.

        This is the single source of randomness for a thread's trace: both
        :meth:`stream` (object-at-a-time, legacy) and :meth:`compiled_trace`
        (flat arrays, fast engine) consume it, so the two representations are
        bit-identical by construction.
        """
        if not 0 <= thread_id < self.spec.num_threads:
            raise ValueError(f"thread_id {thread_id} out of range")
        spec = self.spec
        rng = np.random.RandomState((spec.seed * 1_000_003 + thread_id) % (2**31 - 1))
        block_size = self.layout.block_size
        word_slots = block_size // 8

        probabilities = np.array([spec.p_private, spec.p_hot, spec.p_warm, spec.p_cold])
        write_fractions = np.array(
            [
                spec.write_fraction_private,
                spec.write_fraction_hot,
                spec.write_fraction_warm,
                spec.write_fraction_cold,
            ]
        )
        region_blocks = np.array(
            [self.region_blocks(region, thread_id) for region in REGION_NAMES], dtype=np.int64
        )
        region_bases = np.array(
            [self._region_base(region, thread_id) for region in REGION_NAMES], dtype=np.int64
        )

        spatial = max(1, spec.spatial_accesses_per_block)
        remaining = self.accesses_per_thread
        batch_blocks = 2048

        while remaining > 0:
            blocks_this_batch = min(batch_blocks, (remaining + spatial - 1) // spatial)
            regions = rng.choice(len(REGION_NAMES), size=blocks_this_batch, p=probabilities)
            block_indices = (rng.random_sample(blocks_this_batch) * region_blocks[regions]).astype(
                np.int64
            )
            block_addrs = region_bases[regions] + block_indices * block_size

            total_refs = blocks_this_batch * spatial
            offsets = rng.randint(0, word_slots, size=total_refs) * 8
            writes = rng.random_sample(total_refs) < np.repeat(write_fractions[regions], spatial)
            gaps = (
                rng.poisson(spec.mean_gap, size=total_refs)
                if spec.mean_gap > 0
                else np.zeros(total_refs, dtype=np.int64)
            )
            addrs = np.repeat(block_addrs, spatial) + offsets

            emit = min(remaining, total_refs)
            yield addrs[:emit], writes[:emit], gaps[:emit]
            remaining -= emit

    def stream(self, thread_id: int) -> Iterator[MemoryAccess]:
        """Yield ``accesses_per_thread`` accesses for one thread.

        The stream is deterministic given (spec.seed, thread_id).  Random
        choices are drawn in vectorised batches so that trace generation is a
        small fraction of the simulation cost.
        """
        for addrs, writes, gaps in self._batches(thread_id):
            for i in range(len(addrs)):
                yield MemoryAccess(
                    addr=int(addrs[i]), is_write=bool(writes[i]), gap=int(gaps[i])
                )

    def compiled_trace(self, thread_id: int) -> "CompiledTrace":
        """Materialise one thread's trace into a :class:`CompiledTrace`.

        The access sequence is identical to :meth:`stream`; only the
        representation differs (flat columns instead of per-access objects).
        """
        from .compiled import CompiledTrace

        chunks = list(self._batches(thread_id))
        if not chunks:
            return CompiledTrace.empty()
        addrs = np.concatenate([c[0] for c in chunks])
        writes = np.concatenate([c[1] for c in chunks])
        gaps = np.concatenate([c[2] for c in chunks])
        return CompiledTrace.from_arrays(addrs, writes, gaps, layout=self.layout)

    # -- hooks used by the simulator / allocation policies -----------------------------

    def memory_regions(self, thread_id: Optional[int] = None) -> List[dict]:
        """Describe the workload's memory regions.

        Returns a list of ``{"kind", "base", "size", "owner_thread"}`` records
        (``owner_thread`` is None for shared regions).  The simulation driver
        uses this to model *steady-state* first-touch placement: by the time
        the measured window starts, every page of the data set has long been
        allocated, private pages sit on their owning thread's socket and
        shared pages are spread across the sockets.  Without this hint, a
        short trace-driven run would classify the first (cold) touch of every
        page as local and understate the remote-access fractions of Table I.
        """
        regions: List[dict] = []
        threads = [thread_id] if thread_id is not None else range(self.spec.num_threads)
        for tid in threads:
            if self.spec.private_bytes_per_thread > 0:
                regions.append(
                    {
                        "kind": "private",
                        "base": self._private_base(tid),
                        "size": self.spec.private_bytes_per_thread,
                        "owner_thread": tid,
                    }
                )
        for kind, size in (
            ("hot", self.spec.hot_shared_bytes),
            ("warm", self.spec.warm_shared_bytes),
            ("cold", self.spec.cold_shared_bytes),
        ):
            if size > 0:
                regions.append(
                    {
                        "kind": kind,
                        "base": self._region_base(kind, 0),
                        "size": size,
                        "owner_thread": None,
                    }
                )
        return regions

    def serial_init_pages(self) -> List[int]:
        """Pages touched by the serial initialisation phase (for FT1 placement).

        The single-threaded initialisation touches the entire shared data set,
        which is why the paper found FT1 to perform poorly (everything lands
        on socket 0).  Private regions are initialised by their own threads
        and are not included.
        """
        pages: List[int] = []
        for region in ("hot", "warm", "cold"):
            size = {
                "hot": self.spec.hot_shared_bytes,
                "warm": self.spec.warm_shared_bytes,
                "cold": self.spec.cold_shared_bytes,
            }[region]
            if size == 0:
                continue
            base = self._region_base(region, 0)
            first_page = self.layout.page_of(base)
            num_pages = max(1, size // self.layout.page_size)
            pages.extend(range(first_page, first_page + num_pages))
        return pages

    # -- derived helpers -----------------------------------------------------------

    def total_footprint_bytes(self) -> int:
        """Approximate total data footprint of the workload."""
        return (
            self.spec.private_bytes_per_thread * self.spec.num_threads
            + self.spec.hot_shared_bytes
            + self.spec.warm_shared_bytes
            + self.spec.cold_shared_bytes
        )
