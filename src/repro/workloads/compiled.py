"""Compiled (array-backed) trace representation: the engines' input.

The ``compiled`` engine (the default) and the sampled engines materialise
every per-thread access stream into a :class:`CompiledTrace` -- flat
parallel columns of byte address, write flag and instruction gap, plus
*precomputed* block and page numbers -- that
:meth:`EngineContext.run_phase_compiled` consumes by index.  The columns are
plain Python lists of ints/bools, the fastest indexed representation for a
pure-Python consumer; a trace built from numpy batches converts them once
and keeps no array.  The one-``MemoryAccess``-dataclass-at-a-time generator
path survives as the ``object`` engine, kept as the readable reference
implementation and for equivalence testing.

Every workload frontend can produce a :class:`CompiledTrace`:

* :class:`~repro.workloads.synthetic.SyntheticWorkload` builds one directly
  from its vectorised numpy batches (``compiled_trace``), never allocating
  per-access objects;
* trace files compile in bounded-memory chunks via
  :func:`~repro.workloads.trace_io.compile_trace_file`;
* any other object exposing ``stream(thread_id)`` goes through the generic
  :func:`compile_trace` fallback, which drains the stream once.

All paths produce bit-identical access sequences and therefore bit-identical
simulation statistics, which ``tests/system/test_engine_equivalence.py`` and
``tests/system/test_trace_replay.py`` lock in.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..memory.address import DEFAULT_LAYOUT, AddressLayout

__all__ = ["CompiledTrace", "compile_trace"]


class CompiledTrace:
    """One thread's access stream as flat parallel columns.

    Attributes
    ----------
    addrs, writes, gaps:
        The raw trace columns (byte address, store flag, instruction gap).
    blocks, pages:
        Precomputed ``addr // block_size`` and ``addr // page_size`` so the
        hot loop never performs address arithmetic.
    length:
        Number of accesses in the trace.

    Consumers only read the columns: one trace may serve many runs
    (:meth:`~repro.engines.EngineContext.compile_streams` memoises them).
    """

    __slots__ = ("addrs", "writes", "gaps", "blocks", "pages", "length", "__weakref__")

    def __init__(
        self,
        addrs: List[int],
        writes: List[bool],
        gaps: List[int],
        blocks: List[int],
        pages: List[int],
    ) -> None:
        self.addrs = addrs
        self.writes = writes
        self.gaps = gaps
        self.blocks = blocks
        self.pages = pages
        self.length = len(addrs)

    @classmethod
    def empty(cls) -> "CompiledTrace":
        """A zero-length trace (used for idle cores, e.g. scenario gaps)."""
        return cls([], [], [], [], [])

    @classmethod
    def from_arrays(
        cls,
        addrs: np.ndarray,
        writes: np.ndarray,
        gaps: np.ndarray,
        *,
        layout: Optional[AddressLayout] = None,
    ) -> "CompiledTrace":
        """Build a trace from numpy columns, precomputing block/page numbers.

        Parameters
        ----------
        addrs, writes, gaps:
            Equal-length 1-D arrays (or array-likes) of byte addresses,
            store flags and instruction gaps.
        layout:
            Address layout used for the block/page precomputation
            (:data:`~repro.memory.address.DEFAULT_LAYOUT` when omitted).
        """
        layout = layout or DEFAULT_LAYOUT
        addrs = np.asarray(addrs, dtype=np.int64)
        writes = np.asarray(writes, dtype=bool)
        gaps = np.asarray(gaps, dtype=np.int64)
        blocks = addrs // layout.block_size
        pages = addrs // layout.page_size
        return cls(
            addrs.tolist(),
            writes.tolist(),
            gaps.tolist(),
            blocks.tolist(),
            pages.tolist(),
        )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTrace(length={self.length})"


def compile_trace(
    workload, thread_id: int, *, layout: Optional[AddressLayout] = None
) -> CompiledTrace:
    """Compile one thread's access stream into a :class:`CompiledTrace`.

    Uses the workload's vectorised ``compiled_trace`` method when available
    (and its address layout matches the requested one); otherwise falls back
    to draining ``stream(thread_id)`` once (any iterable of
    :class:`~repro.workloads.trace.MemoryAccess` works).
    """
    vectorised = getattr(workload, "compiled_trace", None)
    if vectorised is not None and (
        layout is None or getattr(workload, "layout", None) == layout
    ):
        return vectorised(thread_id)

    layout = layout or getattr(workload, "layout", None) or DEFAULT_LAYOUT
    addrs: List[int] = []
    writes: List[bool] = []
    gaps: List[int] = []
    for access in workload.stream(thread_id):
        addrs.append(access.addr)
        writes.append(access.is_write)
        gaps.append(access.gap)
    if not addrs:
        return CompiledTrace.empty()
    block_size = layout.block_size
    page_size = layout.page_size
    blocks = [a // block_size for a in addrs]
    pages = [a // page_size for a in addrs]
    return CompiledTrace(addrs, writes, gaps, blocks, pages)
