"""On-disk trace formats and the file-backed (trace-driven) workload frontend.

The synthetic generators in :mod:`repro.workloads.synthetic` are the
reproduction's substitute for the paper's Pin/Simics traces; this module adds
the complementary *file* frontend so the simulator can also be driven by
traces that live on disk -- recorded from a synthetic workload for exact
replay, produced by an external tool, or written by hand.

Two formats are supported, both holding one
:class:`~repro.workloads.trace.MemoryAccess` per record and both optionally
gzip-compressed (selected by a trailing ``.gz`` on the file name):

* **CSV** (``.csv`` / ``.csv.gz``) -- a human-editable text format:
  ``addr,is_write,gap`` per line, decimal or ``0x``-hex addresses, ``#``
  comments and blank lines ignored, optional header line.
* **Binary** (``.bin`` / ``.bin.gz``) -- a compact fixed-width format: an
  8-byte magic (``C3DTRC01``) followed by 13-byte little-endian records
  (``int64`` address, ``uint8`` flags with bit 0 = write, ``int32`` gap).

A *trace directory* bundles one trace file per core plus a ``manifest.json``
that records the thread count, the address layout and the workload's
``memory_regions`` hint, so a recorded workload replays with the same NUMA
page placement and DRAM-cache pre-warm content as the original run --
:class:`TraceDirWorkload` implements the full workload protocol and produces
**bit-identical** :class:`~repro.stats.counters.SimulationStats` on both
simulation engines (``tests/system/test_trace_replay.py`` locks this in).

See ``docs/workloads.md`` for the field-by-field format specification.
"""

from __future__ import annotations

import gzip
import json
import struct
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from ..memory.address import DEFAULT_LAYOUT, AddressLayout
from .compiled import CompiledTrace
from .trace import MemoryAccess

__all__ = [
    "TraceFormatError",
    "TRACE_FORMATS",
    "trace_format_of",
    "read_trace",
    "write_trace",
    "read_trace_csv",
    "write_trace_csv",
    "read_trace_bin",
    "write_trace_bin",
    "compile_trace_file",
    "record_workload",
    "TraceDirWorkload",
]

#: Recognised trace-file format tokens (doubling as file extensions).
TRACE_FORMATS = ("csv", "csv.gz", "bin", "bin.gz")

#: Magic bytes opening every binary trace file (name + format version).
BINARY_MAGIC = b"C3DTRC01"

#: One binary record: int64 address, uint8 flags (bit 0 = write), int32 gap.
_RECORD = struct.Struct("<qBi")

#: Optional CSV header line (written by :func:`write_trace_csv`, skipped on read).
_CSV_HEADER = "addr,is_write,gap"

#: Records per buffered chunk in the streaming readers/writers and in
#: :func:`compile_trace_file` (bounds peak memory independent of trace length).
_CHUNK_RECORDS = 16384

_MANIFEST_NAME = "manifest.json"
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_INT32_MAX = 2**31 - 1


class TraceFormatError(ValueError):
    """A trace file (or trace directory manifest) could not be parsed.

    The message always names the offending file, and for text formats the
    1-based line number, so a malformed hand-edited trace is easy to locate.
    """


def trace_format_of(path: Union[str, Path]) -> str:
    """Return the format token (``csv``/``csv.gz``/``bin``/``bin.gz``) of ``path``.

    The format is determined purely by the file-name suffix; an unrecognised
    suffix raises :class:`TraceFormatError`.
    """
    name = str(path)
    for token in sorted(TRACE_FORMATS, key=len, reverse=True):
        if name.endswith("." + token):
            return token
    raise TraceFormatError(
        f"{path}: unrecognised trace extension (expected one of "
        + ", ".join("." + t for t in TRACE_FORMATS)
        + ")"
    )


def _open(path: Path, mode: str) -> IO:
    """Open ``path`` for text/binary read/write, transparently gzipping ``.gz``."""
    if str(path).endswith(".gz"):
        if "b" in mode:
            return gzip.open(path, mode)
        return gzip.open(path, mode + "t", encoding="ascii", newline="")
    if "b" in mode:
        return open(path, mode)
    return open(path, mode, encoding="ascii", newline="")


# ----------------------------------------------------------------------
# CSV (human-editable text) format
# ----------------------------------------------------------------------


def _parse_csv_line(path: Path, lineno: int, line: str) -> Optional[MemoryAccess]:
    """Parse one CSV trace line; returns None for blanks/comments/header."""
    text = line.strip()
    if not text or text.startswith("#") or text == _CSV_HEADER:
        return None
    fields = [f.strip() for f in text.split(",")]
    if len(fields) != 3:
        raise TraceFormatError(
            f"{path}:{lineno}: expected 3 comma-separated fields "
            f"(addr,is_write,gap), got {len(fields)}: {text!r}"
        )
    addr_text, write_text, gap_text = fields
    try:
        addr = int(addr_text, 0)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: invalid address {addr_text!r} "
            f"(expected a decimal or 0x-prefixed integer)"
        ) from None
    if write_text not in ("0", "1"):
        raise TraceFormatError(
            f"{path}:{lineno}: invalid is_write flag {write_text!r} (expected 0 or 1)"
        )
    try:
        gap = int(gap_text, 0)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: invalid gap {gap_text!r} (expected a non-negative integer)"
        ) from None
    if addr < 0:
        raise TraceFormatError(f"{path}:{lineno}: address must be non-negative, got {addr}")
    if gap < 0:
        raise TraceFormatError(f"{path}:{lineno}: gap must be non-negative, got {gap}")
    return MemoryAccess(addr=addr, is_write=write_text == "1", gap=gap)


def read_trace_csv(path: Union[str, Path]) -> Iterator[MemoryAccess]:
    """Stream :class:`MemoryAccess` records from a CSV trace file.

    Parameters
    ----------
    path:
        File to read; a ``.gz`` suffix selects transparent decompression.

    Yields records in file order; blank lines, ``#`` comments and the
    optional ``addr,is_write,gap`` header are skipped.  Malformed lines raise
    :class:`TraceFormatError` naming the file and line number.
    """
    path = Path(path)
    with _open(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            access = _parse_csv_line(path, lineno, line)
            if access is not None:
                yield access


def write_trace_csv(
    path: Union[str, Path], accesses: Iterable[MemoryAccess], *, header: bool = True
) -> int:
    """Write an access stream to a CSV trace file; returns the record count.

    Parameters
    ----------
    path:
        Destination file; a ``.gz`` suffix selects gzip compression.
    accesses:
        Any iterable of :class:`MemoryAccess` (or objects with ``addr`` /
        ``is_write`` / ``gap`` attributes).
    header:
        Write the ``addr,is_write,gap`` header line first (readers skip it).
    """
    path = Path(path)
    count = 0
    with _open(path, "w") as handle:
        if header:
            handle.write(_CSV_HEADER + "\n")
        buffer: List[str] = []
        for access in accesses:
            buffer.append(f"{access.addr},{1 if access.is_write else 0},{access.gap}\n")
            count += 1
            if len(buffer) >= _CHUNK_RECORDS:
                handle.write("".join(buffer))
                buffer.clear()
        if buffer:
            handle.write("".join(buffer))
    return count


# ----------------------------------------------------------------------
# Binary (compact) format
# ----------------------------------------------------------------------


def read_trace_bin(path: Union[str, Path]) -> Iterator[MemoryAccess]:
    """Stream :class:`MemoryAccess` records from a binary trace file.

    The file must start with the ``C3DTRC01`` magic; a wrong magic or a
    truncated trailing record raises :class:`TraceFormatError`.  Records are
    read in bounded-size chunks, so arbitrarily long traces stream in
    constant memory.
    """
    path = Path(path)
    record_size = _RECORD.size
    with _open(path, "rb") as handle:
        magic = handle.read(len(BINARY_MAGIC))
        if magic != BINARY_MAGIC:
            raise TraceFormatError(
                f"{path}: not a C3D binary trace (bad magic {magic!r}; "
                f"expected {BINARY_MAGIC!r})"
            )
        carry = b""
        index = 0
        while True:
            chunk = handle.read(record_size * _CHUNK_RECORDS)
            if not chunk:
                break
            data = carry + chunk
            usable = len(data) - (len(data) % record_size)
            for addr, flags, gap in _RECORD.iter_unpack(data[:usable]):
                yield MemoryAccess(addr=addr, is_write=bool(flags & 1), gap=gap)
                index += 1
            carry = data[usable:]
        if carry:
            raise TraceFormatError(
                f"{path}: truncated record after {index} records "
                f"({len(carry)} trailing bytes; records are {record_size} bytes)"
            )


def write_trace_bin(path: Union[str, Path], accesses: Iterable[MemoryAccess]) -> int:
    """Write an access stream to a binary trace file; returns the record count.

    Addresses must fit a signed 64-bit integer and gaps a signed 32-bit
    integer (both are checked; violations raise :class:`TraceFormatError`).
    """
    path = Path(path)
    pack = _RECORD.pack
    count = 0
    with _open(path, "wb") as handle:
        handle.write(BINARY_MAGIC)
        buffer = bytearray()
        for access in accesses:
            addr, gap = access.addr, access.gap
            if not _INT64_MIN <= addr <= _INT64_MAX:
                raise TraceFormatError(
                    f"{path}: record {count}: address {addr} does not fit int64"
                )
            if not 0 <= gap <= _INT32_MAX:
                raise TraceFormatError(
                    f"{path}: record {count}: gap {gap} out of range [0, 2**31)"
                )
            buffer += pack(addr, 1 if access.is_write else 0, gap)
            count += 1
            if len(buffer) >= _RECORD.size * _CHUNK_RECORDS:
                handle.write(buffer)
                buffer.clear()
        if buffer:
            handle.write(buffer)
    return count


# ----------------------------------------------------------------------
# Format dispatch
# ----------------------------------------------------------------------


def read_trace(path: Union[str, Path]) -> Iterator[MemoryAccess]:
    """Stream records from a trace file, dispatching on the file extension."""
    token = trace_format_of(path)
    if token.startswith("csv"):
        return read_trace_csv(path)
    return read_trace_bin(path)


def write_trace(path: Union[str, Path], accesses: Iterable[MemoryAccess]) -> int:
    """Write an access stream to ``path``, dispatching on the file extension.

    Returns the number of records written.
    """
    token = trace_format_of(path)
    if token.startswith("csv"):
        return write_trace_csv(path, accesses)
    return write_trace_bin(path, accesses)


# ----------------------------------------------------------------------
# Chunked compilation straight into the fast engine's representation
# ----------------------------------------------------------------------


def compile_trace_file(
    path: Union[str, Path],
    *,
    layout: Optional[AddressLayout] = None,
    chunk_records: int = _CHUNK_RECORDS,
) -> CompiledTrace:
    """Materialise a trace file into a :class:`CompiledTrace` in bounded chunks.

    Parameters
    ----------
    path:
        Trace file in any supported format (see :data:`TRACE_FORMATS`).
    layout:
        Address layout used to precompute the block/page columns
        (:data:`~repro.memory.address.DEFAULT_LAYOUT` when omitted).
    chunk_records:
        Records per vectorised conversion batch; only the chunk (not the
        whole file) is ever held as intermediate numpy arrays, so peak
        overhead is bounded regardless of trace length.

    The produced columns are exactly those :func:`~repro.workloads.compiled.compile_trace`
    would build from the equivalent in-memory stream, so file-backed and
    generator-backed workloads are interchangeable to both engines.
    """
    layout = layout or DEFAULT_LAYOUT
    block_size, page_size = layout.block_size, layout.page_size
    addrs: List[int] = []
    writes: List[bool] = []
    gaps: List[int] = []
    blocks: List[int] = []
    pages: List[int] = []

    chunk_addrs: List[int] = []
    chunk_writes: List[bool] = []
    chunk_gaps: List[int] = []

    def flush() -> None:
        arr = np.asarray(chunk_addrs, dtype=np.int64)
        addrs.extend(chunk_addrs)
        writes.extend(chunk_writes)
        gaps.extend(chunk_gaps)
        blocks.extend((arr // block_size).tolist())
        pages.extend((arr // page_size).tolist())
        chunk_addrs.clear()
        chunk_writes.clear()
        chunk_gaps.clear()

    for access in read_trace(path):
        chunk_addrs.append(access.addr)
        chunk_writes.append(access.is_write)
        chunk_gaps.append(access.gap)
        if len(chunk_addrs) >= chunk_records:
            flush()
    if chunk_addrs:
        flush()
    if not addrs:
        return CompiledTrace.empty()
    return CompiledTrace(addrs, writes, gaps, blocks, pages)


# ----------------------------------------------------------------------
# Trace directories: record + replay
# ----------------------------------------------------------------------


def _trace_file_name(thread_id: int, trace_format: str) -> str:
    return f"core-{thread_id:04d}.{trace_format}"


def record_workload(
    workload,
    directory: Union[str, Path],
    *,
    num_threads: Optional[int] = None,
    trace_format: str = "csv",
) -> Path:
    """Capture a workload's per-thread streams into a replayable trace directory.

    Parameters
    ----------
    workload:
        Any workload object with ``num_threads`` and ``stream(thread_id)``
        (e.g. a :class:`~repro.workloads.synthetic.SyntheticWorkload` or a
        :class:`~repro.workloads.scenario.ScenarioWorkload`).  Its optional
        ``memory_regions()`` hint and address layout are captured in the
        manifest so replay reproduces the same first-touch page placement and
        DRAM-cache pre-warm content -- the ingredients of bit-identical
        replay statistics.
    directory:
        Destination directory (created if missing).  One trace file per
        thread (``core-NNNN.<format>``) plus ``manifest.json`` is written.
    num_threads:
        Record only the first ``num_threads`` threads (default: all).
    trace_format:
        One of :data:`TRACE_FORMATS` (``csv`` is the human-editable default;
        use ``bin.gz`` for the most compact files).

    Returns the directory path.
    """
    if trace_format not in TRACE_FORMATS:
        raise TraceFormatError(
            f"unknown trace format {trace_format!r}; expected one of {TRACE_FORMATS}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    threads = workload.num_threads if num_threads is None else num_threads

    lengths: List[int] = []
    for thread_id in range(threads):
        path = directory / _trace_file_name(thread_id, trace_format)
        lengths.append(write_trace(path, workload.stream(thread_id)))

    layout = getattr(workload, "layout", None) or DEFAULT_LAYOUT
    regions_fn = getattr(workload, "memory_regions", None)
    regions = list(regions_fn()) if regions_fn is not None else []
    manifest = {
        "format_version": 1,
        "name": getattr(workload, "name", "trace"),
        "num_threads": threads,
        "trace_format": trace_format,
        "block_size": layout.block_size,
        "page_size": layout.page_size,
        "accesses_per_thread": lengths,
        "memory_regions": regions,
    }
    (directory / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return directory


class TraceDirWorkload:
    """A workload whose per-core access streams are trace files on disk.

    Implements the same protocol as
    :class:`~repro.workloads.synthetic.SyntheticWorkload` -- ``num_threads``,
    ``stream``, ``compiled_trace``, ``memory_regions``, ``serial_init_pages``
    -- so it is a drop-in workload for :class:`~repro.system.simulator.Simulator`
    on every engine and for :class:`~repro.experiments.runner.SweepPoint`
    sweeps.

    The directory must contain the ``manifest.json`` written by
    :func:`record_workload` (see ``docs/workloads.md`` for authoring one by
    hand) plus one ``core-NNNN.<format>`` file per thread.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise TraceFormatError(
                f"{self.directory}: not a trace directory (missing {_MANIFEST_NAME}; "
                f"record one with record_workload() or `repro --record-trace`)"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise TraceFormatError(f"{manifest_path}: invalid JSON ({exc})") from None
        for key in ("num_threads", "trace_format"):
            if key not in manifest:
                raise TraceFormatError(f"{manifest_path}: missing required key {key!r}")
        self.manifest = manifest
        self.name: str = manifest.get("name", self.directory.name)
        self.num_threads: int = int(manifest["num_threads"])
        self.trace_format: str = manifest["trace_format"]
        if self.trace_format not in TRACE_FORMATS:
            raise TraceFormatError(
                f"{manifest_path}: unknown trace_format {self.trace_format!r}; "
                f"expected one of {TRACE_FORMATS}"
            )
        self.layout = AddressLayout(
            block_size=int(manifest.get("block_size", DEFAULT_LAYOUT.block_size)),
            page_size=int(manifest.get("page_size", DEFAULT_LAYOUT.page_size)),
        )
        self._regions: List[Dict] = list(manifest.get("memory_regions", []))

    # -- identity -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceDirWorkload({str(self.directory)!r}, threads={self.num_threads})"

    def trace_path(self, thread_id: int) -> Path:
        """Path of the trace file backing ``thread_id``'s stream."""
        if not 0 <= thread_id < self.num_threads:
            raise ValueError(f"thread_id {thread_id} out of range")
        return self.directory / _trace_file_name(thread_id, self.trace_format)

    # -- workload protocol --------------------------------------------------

    def stream(self, thread_id: int) -> Iterator[MemoryAccess]:
        """Stream ``thread_id``'s recorded accesses from its trace file."""
        path = self.trace_path(thread_id)
        if not path.is_file():
            raise TraceFormatError(
                f"{self.directory}: missing trace file {path.name} "
                f"(manifest declares {self.num_threads} threads)"
            )
        return read_trace(path)

    def compiled_trace(self, thread_id: int) -> CompiledTrace:
        """Materialise ``thread_id``'s trace file for the compiled engine."""
        path = self.trace_path(thread_id)
        if not path.is_file():
            raise TraceFormatError(
                f"{self.directory}: missing trace file {path.name} "
                f"(manifest declares {self.num_threads} threads)"
            )
        return compile_trace_file(path, layout=self.layout)

    def memory_regions(self, thread_id: Optional[int] = None) -> List[Dict]:
        """The recorded ``memory_regions`` hint (same semantics as synthetic).

        With ``thread_id`` the result is restricted to that thread's private
        regions plus every shared region, preserving manifest order.
        """
        if thread_id is None:
            return [dict(region) for region in self._regions]
        return [
            dict(region)
            for region in self._regions
            if region.get("owner_thread") in (None, thread_id)
        ]

    def serial_init_pages(self) -> List[int]:
        """Pages the serial init phase touches (for FT1), from shared regions.

        Derived from the manifest's shared regions exactly the way
        :meth:`SyntheticWorkload.serial_init_pages` derives them from its
        spec, so FT1 placement matches between a recording and its replay.
        """
        pages: List[int] = []
        page_size = self.layout.page_size
        for region in self._regions:
            if region.get("owner_thread") is not None:
                continue
            size = region["size"]
            if size <= 0:
                continue
            first_page = region["base"] // page_size
            num_pages = max(1, size // page_size)
            pages.extend(range(first_page, first_page + num_pages))
        return pages
