"""Scenario composition: multi-program, multi-socket workload mixes.

A *scenario* assigns a workload source -- a registered synthetic benchmark or
a recorded trace directory -- to each group of cores of the simulated
machine, so a single simulation can run e.g. ``facesim`` on socket 0,
``cassandra`` on socket 1 and a hand-written trace on two cores of socket 2.
Scenarios are the reproduction's answer to the paper's consolidated-server
setting, where independent jobs share one NUMA machine.

Three layers:

* :class:`ScenarioEntry` / :class:`Scenario` -- the declarative description
  (also loadable from JSON via :func:`load_scenario`; see
  ``docs/workloads.md`` for the schema).  Core groups are given either as
  explicit global core ids (``cores``) or as whole sockets (``sockets``),
  resolved against the machine topology at build time and validated for
  range and overlap.
* :class:`ScenarioWorkload` -- the composed runtime object.  It implements
  the full workload protocol (``stream`` / ``compiled_trace`` /
  ``memory_regions`` / ``serial_init_pages``), delegating each global thread
  to its entry's sub-workload, so every simulation engine and the sweep
  runner accept scenarios like any other workload.
* the **registry** (:data:`SCENARIO_SPECS`) of built-in named scenarios,
  mirroring :data:`~repro.workloads.registry.WORKLOAD_SPECS` for single
  benchmarks.

Two composition knobs:

* **address isolation** -- each entry's addresses are rebased by a per-entry
  offset (``entry index * ADDRESS_STRIDE`` by default) so independent
  programs never share pages; pass an explicit ``base_offset`` (e.g. ``0``
  for every entry) to make entries share data instead.
* **rate skew** -- ``gap_scale`` multiplies an entry's instruction gaps,
  modelling cores that issue memory accesses at a fraction of the others'
  rate (the composed stream stays deterministic and engine-identical).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..memory.address import DEFAULT_LAYOUT, AddressLayout
from .clone import load_clone
from .compiled import CompiledTrace, compile_trace
from .registry import make_workload
from .trace import MemoryAccess
from .trace_io import TraceDirWorkload

__all__ = [
    "ADDRESS_STRIDE",
    "ScenarioEntry",
    "Scenario",
    "ScenarioWorkload",
    "SCENARIO_SPECS",
    "get_scenario",
    "load_scenario",
    "build_scenario_workload",
    "build_workload",
]

#: Default per-entry address-space stride (bytes).  Every synthetic region
#: base (the highest is the cold region at ``0x0400_0000_0000``) plus any
#: realistic region size fits well below it, so entry ``i`` shifted by
#: ``i * ADDRESS_STRIDE`` can never collide with entry ``j``'s pages.
ADDRESS_STRIDE = 1 << 44


@dataclass(frozen=True)
class ScenarioEntry:
    """One workload-to-cores assignment inside a :class:`Scenario`.

    Exactly one of ``workload`` (a registry benchmark name), ``trace_dir``
    (a recorded trace directory) or ``clone`` (a fitted clone-spec JSON)
    must be set, and exactly one of ``cores`` (explicit global core ids) or
    ``sockets`` (whole sockets, resolved against the topology at build
    time).

    Parameters
    ----------
    workload:
        Benchmark name from :data:`~repro.workloads.registry.WORKLOAD_SPECS`.
    trace_dir:
        Path of a trace directory written by
        :func:`~repro.workloads.trace_io.record_workload`.
    clone:
        Path of a clone-spec JSON written by ``repro analyze --clone-out``
        (:mod:`~repro.workloads.clone`); built like a synthetic entry, so
        ``scale``, ``seed`` and ``accesses_per_thread`` all apply.
    cores:
        Global core ids this entry drives (``socket * cores_per_socket + i``).
    sockets:
        Socket ids whose every core this entry drives.
    accesses_per_thread:
        Trace length override for synthetic entries (default: the scenario
        build's global value).
    seed:
        RNG seed override for synthetic entries.
    gap_scale:
        Multiply the entry's instruction gaps by this integer factor
        (``>= 1``); larger values model slower-issuing (rate-skewed) cores.
    base_offset:
        Address-space rebase for this entry in bytes (must be a multiple of
        the page size).  Default: ``entry index * ADDRESS_STRIDE``.
    """

    workload: Optional[str] = None
    trace_dir: Optional[str] = None
    clone: Optional[str] = None
    cores: Optional[Tuple[int, ...]] = None
    sockets: Optional[Tuple[int, ...]] = None
    accesses_per_thread: Optional[int] = None
    seed: Optional[int] = None
    gap_scale: int = 1
    base_offset: Optional[int] = None

    def __post_init__(self) -> None:
        sources = [
            s for s in (self.workload, self.trace_dir, self.clone) if s is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                "scenario entry needs exactly one of 'workload', 'trace_dir' "
                f"or 'clone' (got workload={self.workload!r}, "
                f"trace_dir={self.trace_dir!r}, clone={self.clone!r})"
            )
        if (self.cores is None) == (self.sockets is None):
            raise ValueError(
                "scenario entry needs exactly one of 'cores' or 'sockets' "
                f"(got cores={self.cores!r}, sockets={self.sockets!r})"
            )
        if self.cores is not None:
            object.__setattr__(self, "cores", tuple(int(c) for c in self.cores))
        if self.sockets is not None:
            object.__setattr__(self, "sockets", tuple(int(s) for s in self.sockets))
        if self.gap_scale < 1:
            raise ValueError(f"gap_scale must be >= 1, got {self.gap_scale}")

    def describe(self) -> str:
        """One-line human description (used by the CLI banner)."""
        source = self.workload or self.trace_dir or self.clone
        where = (
            f"cores {list(self.cores)}" if self.cores is not None
            else f"sockets {list(self.sockets)}"
        )
        extra = f", gap_scale={self.gap_scale}" if self.gap_scale != 1 else ""
        return f"{source} on {where}{extra}"


@dataclass(frozen=True)
class Scenario:
    """A named list of :class:`ScenarioEntry` assignments."""

    name: str
    entries: Tuple[ScenarioEntry, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"scenario {self.name!r} has no entries")
        object.__setattr__(self, "entries", tuple(self.entries))

    def resolve_cores(
        self, num_sockets: int, cores_per_socket: int
    ) -> List[Tuple[int, ...]]:
        """Resolve every entry to explicit core ids, validating the topology.

        Raises :class:`ValueError` when an entry names a socket or core
        outside the machine, or when two entries claim the same core.
        """
        total_cores = num_sockets * cores_per_socket
        resolved: List[Tuple[int, ...]] = []
        claimed: Dict[int, int] = {}
        for index, entry in enumerate(self.entries):
            if entry.cores is not None:
                cores = entry.cores
                for core in cores:
                    if not 0 <= core < total_cores:
                        raise ValueError(
                            f"scenario {self.name!r} entry {index}: core {core} out of "
                            f"range for {num_sockets}x{cores_per_socket} machine "
                            f"(cores 0..{total_cores - 1})"
                        )
            else:
                cores_list: List[int] = []
                for socket in entry.sockets:
                    if not 0 <= socket < num_sockets:
                        raise ValueError(
                            f"scenario {self.name!r} entry {index}: socket {socket} out "
                            f"of range (machine has {num_sockets} sockets)"
                        )
                    base = socket * cores_per_socket
                    cores_list.extend(range(base, base + cores_per_socket))
                cores = tuple(cores_list)
            for core in cores:
                if core in claimed:
                    raise ValueError(
                        f"scenario {self.name!r}: core {core} claimed by both "
                        f"entry {claimed[core]} and entry {index}"
                    )
                claimed[core] = index
            resolved.append(cores)
        return resolved

    def build(
        self,
        *,
        num_sockets: int,
        cores_per_socket: int,
        scale: int = 1,
        accesses_per_thread: int = 20_000,
        seed: Optional[int] = None,
        layout: Optional[AddressLayout] = None,
    ) -> "ScenarioWorkload":
        """Instantiate the scenario for a concrete machine topology.

        Parameters
        ----------
        num_sockets, cores_per_socket:
            The simulated machine's topology (entries are validated against
            it; see :meth:`resolve_cores`).
        scale:
            Working-set scale factor passed to every synthetic entry (use the
            same factor as :meth:`repro.system.config.SystemConfig.scaled`).
        accesses_per_thread:
            Default trace length for synthetic entries (per-entry
            ``accesses_per_thread`` overrides it).
        seed:
            Default RNG seed override for synthetic entries.
        layout:
            Address layout for compiled traces (default
            :data:`~repro.memory.address.DEFAULT_LAYOUT`).
        """
        layout = layout or DEFAULT_LAYOUT
        core_groups = self.resolve_cores(num_sockets, cores_per_socket)
        assignments: List[_Assignment] = []
        for index, (entry, cores) in enumerate(zip(self.entries, core_groups)):
            if entry.trace_dir is not None:
                sub = TraceDirWorkload(entry.trace_dir)
                if len(cores) > sub.num_threads:
                    raise ValueError(
                        f"scenario {self.name!r} entry {index}: {len(cores)} cores "
                        f"assigned but trace directory {entry.trace_dir!r} records "
                        f"only {sub.num_threads} threads"
                    )
            elif entry.clone is not None:
                sub = load_clone(
                    entry.clone,
                    scale=scale,
                    num_threads=len(cores),
                    seed=entry.seed if entry.seed is not None else seed,
                    accesses_per_thread=entry.accesses_per_thread or accesses_per_thread,
                )
            else:
                sub = make_workload(
                    entry.workload,
                    scale=scale,
                    accesses_per_thread=entry.accesses_per_thread or accesses_per_thread,
                    num_threads=len(cores),
                    seed=entry.seed if entry.seed is not None else seed,
                )
            offset = (
                entry.base_offset if entry.base_offset is not None
                else index * ADDRESS_STRIDE
            )
            if offset % layout.page_size:
                raise ValueError(
                    f"scenario {self.name!r} entry {index}: base_offset {offset:#x} "
                    f"must be a multiple of the page size ({layout.page_size})"
                )
            assignments.append(
                _Assignment(
                    entry=entry, cores=cores, workload=sub,
                    offset=offset, gap_scale=entry.gap_scale,
                )
            )
        return ScenarioWorkload(self, assignments, layout=layout)


@dataclass
class _Assignment:
    """A built entry: resolved cores, instantiated sub-workload, rebase."""

    entry: ScenarioEntry
    cores: Tuple[int, ...]
    workload: object
    offset: int
    gap_scale: int


class ScenarioWorkload:
    """The composed workload a :class:`Scenario` builds for one machine.

    Each global thread id (== core id) maps to one entry's sub-workload and a
    local thread index within it; cores no entry claims get empty streams.
    Implements the same protocol as
    :class:`~repro.workloads.synthetic.SyntheticWorkload`, and its
    ``stream``/``compiled_trace`` pair is bit-identical by construction (the
    rebase and gap scaling are applied identically on both paths).
    """

    def __init__(
        self, scenario: Scenario, assignments: Sequence[_Assignment], *,
        layout: Optional[AddressLayout] = None,
    ) -> None:
        self.scenario = scenario
        self.assignments = list(assignments)
        self.layout = layout or DEFAULT_LAYOUT
        self._by_core: Dict[int, Tuple[_Assignment, int]] = {}
        for assignment in self.assignments:
            for local, core in enumerate(assignment.cores):
                self._by_core[core] = (assignment, local)
        self.num_threads = max(self._by_core) + 1 if self._by_core else 0

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.scenario.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScenarioWorkload({self.scenario.name!r}, "
            f"entries={len(self.assignments)}, threads={self.num_threads})"
        )

    def describe(self) -> str:
        """Multi-line summary of the entry-to-core assignments."""
        lines = [f"scenario {self.scenario.name!r}:"]
        lines.extend(f"  - {a.entry.describe()}" for a in self.assignments)
        return "\n".join(lines)

    # -- workload protocol --------------------------------------------------

    def stream(self, thread_id: int) -> Iterator[MemoryAccess]:
        """Yield the composed access stream of global thread ``thread_id``."""
        mapping = self._by_core.get(thread_id)
        if mapping is None:
            return iter(())
        assignment, local = mapping
        offset, gap_scale = assignment.offset, assignment.gap_scale
        if offset == 0 and gap_scale == 1:
            return assignment.workload.stream(local)
        return (
            MemoryAccess(
                addr=access.addr + offset,
                is_write=access.is_write,
                gap=access.gap * gap_scale,
            )
            for access in assignment.workload.stream(local)
        )

    def compiled_trace(self, thread_id: int) -> CompiledTrace:
        """Compiled-engine view of :meth:`stream` (bit-identical sequence)."""
        mapping = self._by_core.get(thread_id)
        if mapping is None:
            return CompiledTrace.empty()
        assignment, local = mapping
        base = compile_trace(assignment.workload, local, layout=self.layout)
        offset, gap_scale = assignment.offset, assignment.gap_scale
        if (offset == 0 and gap_scale == 1) or base.length == 0:
            return base
        addrs = (np.asarray(base.addrs, dtype=np.int64) + offset).tolist()
        block_shift = offset // self.layout.block_size
        page_shift = offset // self.layout.page_size
        blocks = (np.asarray(base.blocks, dtype=np.int64) + block_shift).tolist()
        pages = (np.asarray(base.pages, dtype=np.int64) + page_shift).tolist()
        gaps = (
            (np.asarray(base.gaps, dtype=np.int64) * gap_scale).tolist()
            if gap_scale != 1 else base.gaps
        )
        return CompiledTrace(addrs, base.writes, gaps, blocks, pages)

    def memory_regions(self, thread_id: Optional[int] = None) -> List[dict]:
        """Union of the entries' region hints, rebased to the composed space.

        ``owner_thread`` is remapped from each entry's local thread index to
        the global core id, so first-touch pins private pages to the socket
        actually running that thread.
        """
        regions: List[dict] = []
        if thread_id is not None:
            mapping = self._by_core.get(thread_id)
            if mapping is None:
                return []
            assignment, local = mapping
            return self._entry_regions(assignment, local)
        for assignment in self.assignments:
            regions.extend(self._entry_regions(assignment, None))
        return regions

    def _entry_regions(self, assignment: _Assignment, local: Optional[int]) -> List[dict]:
        regions_fn = getattr(assignment.workload, "memory_regions", None)
        if regions_fn is None:
            return []
        out: List[dict] = []
        for region in regions_fn(local) if local is not None else regions_fn():
            rebased = dict(region)
            rebased["base"] = region["base"] + assignment.offset
            owner = region.get("owner_thread")
            if owner is not None:
                if owner >= len(assignment.cores):
                    # A trace directory may record more threads than this
                    # entry drives; the extra threads' private regions belong
                    # to streams that never run, so they place no pages.
                    continue
                rebased["owner_thread"] = assignment.cores[owner]
            out.append(rebased)
        return out

    def serial_init_pages(self) -> List[int]:
        """Concatenated FT1 init pages of every entry, rebased per entry."""
        pages: List[int] = []
        page_size = self.layout.page_size
        for assignment in self.assignments:
            pages_fn = getattr(assignment.workload, "serial_init_pages", None)
            if pages_fn is None:
                continue
            shift = assignment.offset // page_size
            pages.extend(page + shift for page in pages_fn())
        return pages


# ----------------------------------------------------------------------
# JSON loading and the built-in registry
# ----------------------------------------------------------------------

_ENTRY_KEYS = {
    "workload", "trace_dir", "clone", "cores", "sockets",
    "accesses_per_thread", "seed", "gap_scale", "base_offset",
}


def _entry_from_dict(data: Dict, *, where: str) -> ScenarioEntry:
    unknown = set(data) - _ENTRY_KEYS
    if unknown:
        raise ValueError(
            f"{where}: unknown scenario entry keys {sorted(unknown)} "
            f"(expected a subset of {sorted(_ENTRY_KEYS)})"
        )
    kwargs = dict(data)
    for key in ("cores", "sockets"):
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    return ScenarioEntry(**kwargs)


def scenario_from_dict(data: Dict, *, where: str = "<dict>") -> Scenario:
    """Build a :class:`Scenario` from a JSON-shaped dict (see docs/workloads.md)."""
    if "entries" not in data or not isinstance(data["entries"], list):
        raise ValueError(f"{where}: scenario needs an 'entries' list")
    entries = tuple(
        _entry_from_dict(entry, where=f"{where} entry {i}")
        for i, entry in enumerate(data["entries"])
    )
    return Scenario(
        name=data.get("name", "scenario"),
        entries=entries,
        description=data.get("description", ""),
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load a scenario description from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: invalid scenario JSON ({exc})") from None
    return scenario_from_dict(data, where=str(path))


#: Built-in named scenarios.  They address sockets (not cores) so they adapt
#: to any ``cores_per_socket``; ``het-quad`` and ``rate-skew-quad`` need the
#: 4-socket machine, ``het-dual`` the 2-socket one.
SCENARIO_SPECS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="het-quad",
            description=(
                "Consolidated 4-socket server: a different evaluated benchmark "
                "per socket (facesim / streamcluster / canneal / cassandra)."
            ),
            entries=(
                ScenarioEntry(workload="facesim", sockets=(0,)),
                ScenarioEntry(workload="streamcluster", sockets=(1,)),
                ScenarioEntry(workload="canneal", sockets=(2,)),
                ScenarioEntry(workload="cassandra", sockets=(3,)),
            ),
        ),
        Scenario(
            name="het-dual",
            description="2-socket consolidation: facesim beside cassandra.",
            entries=(
                ScenarioEntry(workload="facesim", sockets=(0,)),
                ScenarioEntry(workload="cassandra", sockets=(1,)),
            ),
        ),
        Scenario(
            name="rate-skew-quad",
            description=(
                "facesim on every socket, but sockets 1-3 issue memory accesses "
                "4x slower (gap_scale=4): a straggler/foreground-background mix."
            ),
            entries=(
                ScenarioEntry(workload="facesim", sockets=(0,)),
                ScenarioEntry(workload="facesim", sockets=(1, 2, 3), gap_scale=4, seed=97),
            ),
        ),
        Scenario(
            name="multiprogram-mcf-quad",
            description=(
                "Throughput mode: independent mcf-like instances on every core "
                "(one entry per socket, distinct seeds, no cross-socket sharing)."
            ),
            entries=(
                ScenarioEntry(workload="mcf", sockets=(0,), seed=11),
                ScenarioEntry(workload="mcf", sockets=(1,), seed=12),
                ScenarioEntry(workload="mcf", sockets=(2,), seed=13),
                ScenarioEntry(workload="mcf", sockets=(3,), seed=14),
            ),
        ),
    )
}


def get_scenario(name_or_path: Union[str, Path]) -> Scenario:
    """Resolve a scenario by registry name or JSON file path.

    A name found in :data:`SCENARIO_SPECS` wins; otherwise the argument is
    treated as a path to a scenario JSON file.
    """
    name = str(name_or_path)
    if name in SCENARIO_SPECS:
        return SCENARIO_SPECS[name]
    path = Path(name_or_path)
    if path.is_file():
        return load_scenario(path)
    raise KeyError(
        f"unknown scenario {name!r}: not a built-in "
        f"({sorted(SCENARIO_SPECS)}) and not an existing JSON file"
    )


def build_scenario_workload(
    scenario: Union[str, Path, Scenario],
    *,
    num_sockets: int,
    cores_per_socket: int,
    scale: int = 1,
    accesses_per_thread: int = 20_000,
    seed: Optional[int] = None,
    layout: Optional[AddressLayout] = None,
) -> ScenarioWorkload:
    """Resolve (if needed) and build a scenario for a concrete topology.

    Convenience wrapper over :func:`get_scenario` + :meth:`Scenario.build`;
    this is what ``repro --scenario`` and
    :class:`~repro.experiments.runner.SweepPoint` call.
    """
    if not isinstance(scenario, Scenario):
        scenario = get_scenario(scenario)
    return scenario.build(
        num_sockets=num_sockets,
        cores_per_socket=cores_per_socket,
        scale=scale,
        accesses_per_thread=accesses_per_thread,
        seed=seed,
        layout=layout,
    )


def build_workload(
    *,
    num_sockets: int,
    cores_per_socket: int,
    workload: Optional[str] = None,
    trace_dir: Optional[Union[str, Path]] = None,
    scenario: Union[str, Path, Scenario, None] = None,
    clone: Optional[Union[str, Path]] = None,
    scale: int = 1,
    accesses_per_thread: int = 20_000,
    seed: Optional[int] = None,
    layout: Optional[AddressLayout] = None,
):
    """Build a workload from whichever frontend is selected.

    The single dispatch point behind
    ``repro --workload/--trace-dir/--scenario/--clone`` and
    :class:`~repro.experiments.runner.SweepPoint`:
    ``trace_dir`` replays a recorded trace directory, ``scenario`` builds a
    composition (built-in name, JSON path or :class:`Scenario`), ``clone``
    instantiates a fitted clone-spec JSON (``repro analyze --clone-out``),
    and otherwise ``workload`` names a synthetic benchmark instantiated
    with one thread per core.  ``trace_dir``, ``scenario`` and ``clone``
    are mutually exclusive and each overrides ``workload``.
    """
    selected = [
        name
        for name, value in (
            ("trace_dir", trace_dir), ("scenario", scenario), ("clone", clone)
        )
        if value is not None
    ]
    if len(selected) > 1:
        raise ValueError(f"{' and '.join(selected)} are mutually exclusive")
    if trace_dir is not None:
        return TraceDirWorkload(trace_dir)
    if clone is not None:
        return load_clone(
            clone,
            scale=scale,
            num_threads=num_sockets * cores_per_socket,
            seed=seed,
            accesses_per_thread=accesses_per_thread,
        )
    if scenario is not None:
        return build_scenario_workload(
            scenario,
            num_sockets=num_sockets,
            cores_per_socket=cores_per_socket,
            scale=scale,
            accesses_per_thread=accesses_per_thread,
            seed=seed,
            layout=layout,
        )
    if workload is None:
        raise ValueError("one of workload, trace_dir or scenario is required")
    return make_workload(
        workload,
        scale=scale,
        accesses_per_thread=accesses_per_thread,
        num_threads=num_sockets * cores_per_socket,
        seed=seed,
    )
