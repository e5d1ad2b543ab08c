"""Event counters collected during a simulation.

A single :class:`SimulationStats` object is shared by the CPU model, the
sockets and the coherence protocol.  It is deliberately a plain bag of
counters (no behaviour besides derived ratios) so that every experiment can
read exactly the quantities the paper reports:

* memory reads / writes split into local vs. remote (Table I, Fig. 8),
* inter-socket bytes by message class (Fig. 9, section VI-C),
* DRAM-cache hits/misses and where LLC misses were served from (Fig. 3),
* cycle counts per core for speedups (Figs. 2, 6, 7, 10, 11).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["SimulationStats", "LatencyAccumulator"]


@dataclass
class LatencyAccumulator:
    """Accumulates a latency distribution (sum + count + max)."""

    total: float = 0.0
    count: int = 0
    maximum: float = 0.0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "LatencyAccumulator") -> None:
        """Fold another accumulator's distribution into this one."""
        self.total += other.total
        self.count += other.count
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        """Mean of the accumulated values (0.0 when nothing was added)."""
        return self.total / self.count if self.count else 0.0

    def to_json_dict(self) -> Dict[str, float]:
        """Serialise to a JSON-safe dictionary (exact float round-trip)."""
        return {"total": self.total, "count": self.count, "maximum": self.maximum}

    @classmethod
    def from_json_dict(cls, payload: Dict[str, float]) -> "LatencyAccumulator":
        """Rebuild an accumulator written by :meth:`to_json_dict`."""
        return cls(
            total=payload["total"], count=payload["count"], maximum=payload["maximum"]
        )


@dataclass
class SimulationStats:
    """Counters shared across the simulated machine."""

    # ---- processor-side -------------------------------------------------
    instructions: int = 0
    reads: int = 0
    writes: int = 0
    store_buffer_stalls: int = 0
    store_buffer_stall_ns: float = 0.0
    store_forward_hits: int = 0

    # ---- cache-level hit accounting -------------------------------------
    l1_hits: int = 0
    l1_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    llc_peer_hits: int = 0           # served by another core's L1 within the socket
    dram_cache_hits: int = 0
    dram_cache_misses: int = 0

    # ---- where LLC misses were ultimately served ------------------------
    served_local_memory: int = 0
    served_remote_memory: int = 0
    served_remote_llc: int = 0
    served_remote_dram_cache: int = 0
    served_local_dram_cache: int = 0

    # ---- main-memory traffic --------------------------------------------
    memory_reads_local: int = 0
    memory_reads_remote: int = 0
    memory_writes_local: int = 0
    memory_writes_remote: int = 0

    # ---- coherence actions ------------------------------------------------
    directory_lookups: int = 0
    directory_recalls: int = 0
    invalidations_sent: int = 0
    broadcasts: int = 0
    broadcasts_elided: int = 0
    downgrades: int = 0
    writebacks: int = 0
    write_throughs: int = 0
    upgrades: int = 0

    # ---- latency decomposition ---------------------------------------------
    read_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    write_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    llc_miss_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)

    # ---- per-core completion times (ns) ----------------------------------
    core_finish_ns: Dict[int, float] = field(default_factory=dict)

    # ---- free-form extras (ablations, debug) ------------------------------
    extra: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    # -- derived quantities -------------------------------------------------

    @property
    def memory_accesses(self) -> int:
        """All main-memory accesses (reads + writes, local + remote)."""
        return (
            self.memory_reads_local
            + self.memory_reads_remote
            + self.memory_writes_local
            + self.memory_writes_remote
        )

    @property
    def memory_reads(self) -> int:
        return self.memory_reads_local + self.memory_reads_remote

    @property
    def memory_writes(self) -> int:
        return self.memory_writes_local + self.memory_writes_remote

    def remote_memory_fraction(self) -> float:
        """Fraction of main-memory accesses served by a remote socket (Table I)."""
        total = self.memory_accesses
        if not total:
            return 0.0
        return (self.memory_reads_remote + self.memory_writes_remote) / total

    def l1_hit_rate(self) -> float:
        accesses = self.l1_hits + self.l1_misses
        return self.l1_hits / accesses if accesses else 0.0

    def llc_hit_rate(self) -> float:
        accesses = self.llc_hits + self.llc_misses
        return self.llc_hits / accesses if accesses else 0.0

    def dram_cache_hit_rate(self) -> float:
        accesses = self.dram_cache_hits + self.dram_cache_misses
        return self.dram_cache_hits / accesses if accesses else 0.0

    def amat_ns(self) -> float:
        """Average latency of a demand read (ns)."""
        return self.read_latency.mean

    def total_time_ns(self) -> float:
        """Completion time of the slowest core (the run's makespan)."""
        if not self.core_finish_ns:
            return 0.0
        return max(self.core_finish_ns.values())

    #: Scalar integer/float counters folded by :meth:`merge` (kept explicit so
    #: new counters must make a conscious choice about merge semantics).
    _MERGE_SUM_FIELDS = (
        "instructions", "reads", "writes", "store_buffer_stalls",
        "store_buffer_stall_ns", "store_forward_hits",
        "l1_hits", "l1_misses", "llc_hits", "llc_misses", "llc_peer_hits",
        "dram_cache_hits", "dram_cache_misses",
        "served_local_memory", "served_remote_memory", "served_remote_llc",
        "served_remote_dram_cache", "served_local_dram_cache",
        "memory_reads_local", "memory_reads_remote",
        "memory_writes_local", "memory_writes_remote",
        "directory_lookups", "directory_recalls", "invalidations_sent",
        "broadcasts", "broadcasts_elided", "downgrades", "writebacks",
        "write_throughs", "upgrades",
    )

    def merge(self, other: "SimulationStats") -> "SimulationStats":
        """Fold another run's counters into this object (in place).

        Used by the parallel experiment runner to combine the statistics of
        simulations executed in different worker processes.  Scalar counters
        add, latency distributions merge, and per-core completion times are
        unioned (identical core ids keep the slower completion, so merging
        shards of one logical sweep stays meaningful).
        """
        for name in self._MERGE_SUM_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.read_latency.merge(other.read_latency)
        self.write_latency.merge(other.write_latency)
        self.llc_miss_latency.merge(other.llc_miss_latency)
        for core_id, finish in other.core_finish_ns.items():
            mine = self.core_finish_ns.get(core_id)
            if mine is None or finish > mine:
                self.core_finish_ns[core_id] = finish
        for key, value in other.extra.items():
            self.extra[key] += value
        return self

    #: The latency-distribution fields (each a :class:`LatencyAccumulator`).
    _LATENCY_FIELDS = ("read_latency", "write_latency", "llc_miss_latency")

    def to_json_dict(self) -> Dict[str, object]:
        """Serialise every counter to a JSON-safe dictionary.

        Unlike :meth:`as_dict` (a *lossy* flat view for reports), this is a
        complete round-trip format: :meth:`from_json_dict` rebuilds an object
        whose counters -- including the latency distributions, the per-core
        completion times and the free-form ``extra`` bag -- are bit-identical
        to the original.  JSON floats round-trip exactly (``repr`` is the
        shortest exact representation), so statistics loaded from the
        results store compare equal to freshly simulated ones.
        """
        payload: Dict[str, object] = {
            name: getattr(self, name) for name in self._MERGE_SUM_FIELDS
        }
        for name in self._LATENCY_FIELDS:
            payload[name] = getattr(self, name).to_json_dict()
        # JSON object keys must be strings; core ids are restored as ints.
        payload["core_finish_ns"] = {
            str(core_id): finish for core_id, finish in self.core_finish_ns.items()
        }
        payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "SimulationStats":
        """Rebuild a :class:`SimulationStats` written by :meth:`to_json_dict`."""
        stats = cls()
        for name in cls._MERGE_SUM_FIELDS:
            setattr(stats, name, payload[name])
        for name in cls._LATENCY_FIELDS:
            setattr(stats, name, LatencyAccumulator.from_json_dict(payload[name]))
        stats.core_finish_ns = {
            int(core_id): finish
            for core_id, finish in payload["core_finish_ns"].items()
        }
        stats.extra.update(payload["extra"])
        return stats

    def as_dict(self) -> Dict[str, float]:
        """Flatten the scalar counters into a dictionary (for reports/CSV)."""
        scalars = {
            name: getattr(self, name)
            for name in (
                "instructions", "reads", "writes", "store_buffer_stalls",
                "store_forward_hits", "l1_hits", "l1_misses", "llc_hits", "llc_misses",
                "llc_peer_hits", "dram_cache_hits", "dram_cache_misses",
                "served_local_memory", "served_remote_memory", "served_remote_llc",
                "served_remote_dram_cache", "served_local_dram_cache",
                "memory_reads_local", "memory_reads_remote",
                "memory_writes_local", "memory_writes_remote",
                "directory_lookups", "directory_recalls", "invalidations_sent",
                "broadcasts", "broadcasts_elided", "downgrades", "writebacks",
                "write_throughs", "upgrades",
            )
        }
        scalars["amat_ns"] = self.amat_ns()
        scalars["total_time_ns"] = self.total_time_ns()
        scalars["remote_memory_fraction"] = self.remote_memory_fraction()
        scalars.update({f"extra.{key}": value for key, value in self.extra.items()})
        return scalars
