"""The in-memory trace record every workload frontend produces.

A workload's ``stream(thread_id)`` yields :class:`MemoryAccess` records --
one per memory reference -- regardless of where the trace comes from: the
synthetic generators (:mod:`repro.workloads.synthetic`), a trace file on
disk (:mod:`repro.workloads.trace_io`, whose CSV/binary records map
field-for-field onto :class:`MemoryAccess`), or a scenario composition
(:mod:`repro.workloads.scenario`).  The compiled engine stores the same
three fields as flat columns instead (:mod:`repro.workloads.compiled`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryAccess"]


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference from a core's trace.

    Attributes
    ----------
    addr:
        Byte address referenced.
    is_write:
        True for stores, False for loads.
    gap:
        Number of non-memory instructions executed since the previous memory
        reference (the 1-IPC core charges one cycle per such instruction).
    """

    addr: int
    is_write: bool = False
    gap: int = 0
