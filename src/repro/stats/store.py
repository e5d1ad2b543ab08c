"""Persistent, sharded, append-only store of simulation results.

Every completed simulation -- a :class:`~repro.experiments.runner.SweepPoint`
of a campaign grid or an :class:`~repro.experiments.common.ExperimentContext`
run behind a figure module -- can be written to a :class:`ResultsStore`,
keyed by a content hash of everything that determines the simulation's
outcome (workload, machine configuration, engine, settings, schema
version).  Because records are appended as soon as each point completes:

* re-running a campaign **skips** every point already in the store,
* a campaign interrupted mid-run **resumes** from the completed points
  (at worst the in-flight point is lost -- a torn trailing line is ignored),
* and independent invocations/processes **share** results through the files.

Layout (docs/serving.md documents it field by field).  A store directory
holds a ``store.json`` meta file and a ``shards/`` directory with one JSONL
file per key prefix -- 16 shards on ``key[:1]`` for the hex content keys,
plus an ``x`` overflow shard for non-hex keys::

    <store-dir>/store.json          {"layout": "sharded/v1", ...}
    <store-dir>/shards/0.jsonl ... f.jsonl   (one record per line)
    <store-dir>/shards/<name>.lock  (per-shard advisory writer locks)
    <store-dir>/failures.jsonl      (quarantine sidecar, docs/robustness.md)

Appends take a per-shard advisory ``flock``, so several writer *processes*
-- campaign workers, ``repro serve`` jobs, concurrent invocations -- can
append to one store safely; readers never block.  Lookups load one shard's
in-memory index at a time (built once per open), so a ``get`` touches 1/16
of the store and :meth:`ResultsStore.known_keys` answers *is this point
done?* from a raw key scan without parsing any record body.

Statistics round-trip bit-identically (``SimulationStats.to_json_dict``),
so results loaded from the store compare equal to freshly simulated ones.
``docs/campaigns.md`` documents the record format and the hash-key
semantics (exactly what invalidates a cached point).  Engine *names* (from
the :mod:`repro.engines` registry) are part of every key payload, which
makes them part of the persistence contract: the built-in names are stable
and ``tests/engines/test_store_keys.py`` pins representative keys
byte-for-byte.

The store is also *verifiable and repairable* (docs/robustness.md): every
appended line carries a checksum over its canonical JSON body (a line
without one is corrupt), loading counts (and warns about) corrupt/torn lines
instead of silently dropping them (:attr:`ResultsStore.corrupt_records`),
:meth:`ResultsStore.verify` locates corrupt, torn and duplicate records
without touching the files, and :meth:`ResultsStore.compact` rewrites each
shard to a clean, fully checksummed file (atomic replace, fsync'd, last-wins
preserved).  Quarantined sweep points live next to the results in a
``failures.jsonl`` sidecar (:class:`FailureLog`), one JSON record per
failed point with its key, payload, attempt count and captured traceback.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from ..testing import faults
from .counters import SimulationStats
from .sampling import SampledSimulationStats

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STORE_LAYOUT",
    "NUM_SHARDS",
    "MissingRunError",
    "StoreCorruptionWarning",
    "StoredRun",
    "ResultsStore",
    "FailureRecord",
    "FailureLog",
    "StoreIssue",
    "StoreVerifyReport",
    "StoreRepairReport",
    "shard_of",
    "content_key",
    "main",
]

PathLike = Union[str, Path]

#: Bumped whenever the simulator's semantics change in a way that makes old
#: stored results incomparable with fresh ones (every key embeds it, so a
#: bump invalidates the whole store without touching any file).
STORE_SCHEMA_VERSION = 1

#: File name of the poison-point quarantine sidecar (docs/robustness.md).
FAILURES_FILE = "failures.jsonl"

#: Meta file marking a store directory.
META_FILE = "store.json"

#: Directory of per-prefix shard files inside a sharded store.
SHARDS_DIR = "shards"

#: Layout tag written to the meta file.
STORE_LAYOUT = "sharded/v1"

#: Hex content keys spread over 16 shards on their first character;
#: anything else (tests, hand-made keys) lands in the ``x`` overflow shard.
NUM_SHARDS = 16
_HEX_SHARDS = frozenset("0123456789abcdef")
OVERFLOW_SHARD = "x"

#: Raw-line key extraction for the no-parse index path: matches the ``key``
#: field of a (canonical or hand-written) record line without decoding the
#: record body, so an index scan survives bodies that are torn or corrupt.
_KEY_RE = re.compile(r'"key"\s*:\s*"([^"]*)"')


def shard_of(key: str) -> str:
    """The shard name a key lives in: ``key[:1]`` for hex keys, else ``x``."""
    prefix = key[:1].lower()
    return prefix if prefix in _HEX_SHARDS else OVERFLOW_SHARD


class StoreCorruptionWarning(UserWarning):
    """Corrupt or torn record lines were skipped while loading a store."""


def _canonical(payload: Mapping) -> str:
    """The canonical JSON form (sorted keys, no whitespace) of a payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(body: str) -> str:
    """Per-record integrity checksum: 16 hex chars of SHA-256 of the body."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


class _ChecksumMismatch(ValueError):
    """A record line parsed as JSON but lacks its checksum or fails it."""


def _decode_record_payload(line: str) -> Dict:
    """Parse one record line into its payload dict, validating the checksum.

    Raises ``ValueError`` (including :class:`_ChecksumMismatch`) on any
    corruption, a line without a ``check`` field included.
    """
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("record line is not a JSON object")
    check = payload.pop("check", None)
    if check is None:
        raise _ChecksumMismatch("record line has no checksum")
    if _checksum(_canonical(payload)) != check:
        raise _ChecksumMismatch("checksum mismatch (record bytes were altered)")
    return payload


def _ends_mid_line(path: Path) -> bool:
    """True when ``path`` exists, is non-empty and lacks a final newline."""
    try:
        with path.open("rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except (OSError, ValueError):
        return False


def _append_line(path: Path, line: str, *, data_override: Optional[str] = None) -> None:
    """Durably append one line: O_APPEND, newline-guarded, fsync'd.

    ``data_override`` replaces the written bytes (fault injection uses it to
    model torn/corrupted appends); the newline guard still applies, so a
    previous writer's torn fragment stays isolated on its own line.
    """
    data = data_override if data_override is not None else line + "\n"
    if _ends_mid_line(path):
        data = "\n" + data
    with path.open("a", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


@contextmanager
def _file_lock(path: Path):
    """Advisory exclusive lock on ``path`` (created on demand).

    Serialises concurrent *writers* of one shard across processes; readers
    never take it.  On platforms without ``fcntl`` the lock degrades to a
    no-op -- appends are still O_APPEND-atomic for these record sizes, only
    the newline guard loses its cross-process exclusivity.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class MissingRunError(KeyError):
    """An offline (store-only) lookup found no record for the requested run."""

    def __init__(self, key: str, payload: Optional[Mapping] = None) -> None:
        self.key = key
        self.payload = dict(payload) if payload is not None else None
        described = ""
        if self.payload:
            interesting = {
                name: self.payload[name]
                for name in ("kind", "workload", "protocol", "scenario", "trace_dir")
                if self.payload.get(name) is not None
            }
            described = f" ({interesting})"
        super().__init__(
            f"no stored result for key {key[:12]}...{described}; "
            "run the campaign first (repro campaign run) or drop offline mode"
        )


def content_key(payload: Mapping) -> str:
    """Hash a JSON-serialisable payload into a stable hex content key.

    The payload is canonicalised (sorted keys, no whitespace) before hashing
    so logically identical payloads -- regardless of insertion order -- map
    to the same key.  Floats use ``repr`` (exact shortest form), so keys are
    stable across processes and Python invocations.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class StoredRun:
    """One completed simulation as persisted in the results store."""

    key: str                       #: content hash of ``params``
    params: Dict                   #: the hashed, outcome-determining payload
    stats: SimulationStats         #: full counters (bit-identical round-trip)
    total_time_ns: float
    inter_socket_bytes: int
    accesses_executed: int
    wall_clock_s: float = 0.0
    #: How many execution attempts produced this result (1 = first try).
    attempts: int = 1

    def to_json_dict(self) -> Dict:
        payload = {
            "key": self.key,
            "params": self.params,
            "stats": self.stats.to_json_dict(),
            "total_time_ns": self.total_time_ns,
            "inter_socket_bytes": self.inter_socket_bytes,
            "accesses_executed": self.accesses_executed,
            "wall_clock_s": self.wall_clock_s,
        }
        # The reliability stamp is serialised only when informative, keeping
        # first-try records byte-identical across runs (duplicate appends of
        # the same key stay bit-identical by construction).
        if self.attempts != 1:
            payload["attempts"] = self.attempts
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "StoredRun":
        stats_payload = payload["stats"]
        # Sampled runs carry their per-metric confidence intervals in a
        # "sampling" section; rebuild them as SampledSimulationStats so the
        # estimates survive the store round trip.
        stats_cls = (
            SampledSimulationStats if "sampling" in stats_payload else SimulationStats
        )
        return cls(
            key=payload["key"],
            params=dict(payload["params"]),
            stats=stats_cls.from_json_dict(stats_payload),
            total_time_ns=payload["total_time_ns"],
            inter_socket_bytes=payload["inter_socket_bytes"],
            accesses_executed=payload["accesses_executed"],
            wall_clock_s=payload.get("wall_clock_s", 0.0),
            attempts=payload.get("attempts", 1),
        )


class ResultsStore:
    """Sharded, append-only JSONL store of :class:`StoredRun` records.

    ``ResultsStore(path)`` opens (or lazily creates) the store directory
    (layout in the module docstring).

    Lookups are served from per-shard in-memory indexes built on first
    access to each shard; :meth:`put` appends one line under the shard's
    advisory writer lock and flushes immediately, so a concurrent reader
    (or a crashed writer's next invocation) sees every completed record.
    Duplicate keys are tolerated -- the last record wins, and because keys
    hash the complete simulation input, duplicates are bit-identical by
    construction.
    """

    def __init__(self, path: PathLike) -> None:
        self.directory = Path(path)
        #: Per-shard parsed indexes.
        self._shard_index: Dict[str, Dict[str, StoredRun]] = {}
        #: Lookup accounting for cache-hit reporting (`repro campaign`/CI).
        self.hits = 0
        self.misses = 0
        #: Corrupt/torn record lines skipped by loads since open (never
        #: silent: each affected file emits one :class:`StoreCorruptionWarning`).
        self.corrupt_records = 0
        #: ``(line_number, reason)`` per skipped line, per loaded file.
        self.corrupt_locations: List[Tuple[int, str]] = []
        self._failure_log: Optional[FailureLog] = None

    # ------------------------------------------------------------------
    # Layout and paths
    # ------------------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.directory / META_FILE

    @property
    def shards_path(self) -> Path:
        return self.directory / SHARDS_DIR

    def shard_path(self, key: str) -> Path:
        """The shard file holding ``key``."""
        return self.shards_path / f"{shard_of(key)}.jsonl"

    def _shard_file(self, name: str) -> Path:
        return self.shards_path / f"{name}.jsonl"

    def _shard_lock(self, name: str) -> Path:
        return self.shards_path / f"{name}.lock"

    def shard_paths(self) -> List[Path]:
        """Existing shard files, in deterministic (shard-name) order."""
        if not self.shards_path.is_dir():
            return []
        return sorted(self.shards_path.glob("*.jsonl"))

    def _ensure_sharded(self) -> None:
        """Create the directory skeleton + meta file of a writable store."""
        self.shards_path.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            self._write_meta()

    def _write_meta(self) -> None:
        """Atomically (re)write the layout meta file."""
        meta = {
            "layout": STORE_LAYOUT,
            "shards": NUM_SHARDS,
            "shard_by": "key[:1]",
            "schema": STORE_SCHEMA_VERSION,
        }
        # Per-process tmp name: concurrent writers may all create the meta
        # file on first put; each renames its own tmp (identical content),
        # so whichever replace lands last is still correct.
        tmp = self.meta_path.with_name(f"{META_FILE}.{os.getpid()}.tmp")
        tmp.write_text(_canonical(meta) + "\n", encoding="utf-8")
        os.replace(tmp, self.meta_path)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _load_file(self, path: Path) -> Dict[str, StoredRun]:
        """Parse one record file into a last-wins index, counting corruption."""
        index: Dict[str, StoredRun] = {}
        corrupt = 0
        first_issue: Optional[Tuple[int, str]] = None
        if path.exists():
            # errors="replace": invalid UTF-8 bytes (bit rot, partial
            # multi-byte writes) must surface as corrupt *lines* below,
            # not abort the whole load with a UnicodeDecodeError.
            with path.open("r", encoding="utf-8", errors="replace") as handle:
                for lineno, raw in enumerate(handle, start=1):
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        record = StoredRun.from_json_dict(
                            _decode_record_payload(line)
                        )
                    except (ValueError, KeyError, TypeError) as exc:
                        # A torn line from an interrupted writer, hand
                        # editing, or bit rot caught by the checksum; the
                        # point simply reruns -- but never silently.
                        corrupt += 1
                        reason = f"{type(exc).__name__}: {exc}"
                        self.corrupt_locations.append((lineno, reason))
                        if first_issue is None:
                            first_issue = (lineno, reason)
                        continue
                    index[record.key] = record
        if corrupt:
            self.corrupt_records += corrupt
            first_line, reason = first_issue
            warnings.warn(
                f"{path}:{first_line}: skipped {corrupt} corrupt/torn "
                f"record line(s) (first: {reason}); the affected points "
                f"will re-run -- inspect with `repro store verify "
                f"--store {self.directory}`, compact with `repro store "
                f"compact --store {self.directory}`",
                StoreCorruptionWarning,
                stacklevel=4,
            )
        return index

    def _index_for(self, shard: str) -> Dict[str, StoredRun]:
        """The parsed index of one shard."""
        index = self._shard_index.get(shard)
        if index is None:
            index = self._load_file(self._shard_file(shard))
            self._shard_index[shard] = index
        return index

    def _load_all(self) -> Dict[str, StoredRun]:
        """Every shard's index folded into one mapping (loads all shards)."""
        merged: Dict[str, StoredRun] = {}
        for path in self.shard_paths():
            merged.update(self._index_for(path.stem))
        return merged

    def reload(self) -> None:
        """Drop the in-memory indexes; the next lookup re-reads the files."""
        self._shard_index = {}
        self.corrupt_records = 0
        self.corrupt_locations = []

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[StoredRun]:
        """Return the stored record for ``key``, counting hits and misses.

        Only the shard holding ``key`` is read and indexed, so a lookup
        touches ~1/16 of a sharded store.
        """
        record = self._index_for(shard_of(key)).get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def __contains__(self, key: str) -> bool:
        return key in self._index_for(shard_of(key))

    def __len__(self) -> int:
        return len(self._load_all())

    def keys(self) -> List[str]:
        return list(self._load_all())

    def records(self) -> Iterator[StoredRun]:
        """Iterate over the stored records (last-wins deduplicated).

        Shards are indexed (and cached) one at a time, in shard order.
        """
        for path in self.shard_paths():
            yield from self._index_for(path.stem).values()

    def iter_records(self) -> Iterator[StoredRun]:
        """Stream the stored records without caching any shard index.

        Peak memory is one shard's records (plus the record being yielded),
        so thin clients (``repro report``, the serving daemon's NDJSON
        endpoint) can walk stores far larger than RAM-per-shard would
        otherwise allow.  Last-wins semantics match :meth:`records`.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StoreCorruptionWarning)
            scratch = ResultsStore(self.directory)
            for path in scratch.shard_paths():
                yield from scratch._index_for(path.stem).values()
                scratch._shard_index.pop(path.stem, None)

    def known_keys(self) -> Set[str]:
        """Every key present in the store, from a raw scan -- no body parse.

        This is the shard *index* view: a record whose body is torn or
        corrupt but whose ``"key"`` field survives still counts (the point
        shows as done in ``repro campaign status``; an actual :meth:`get`
        of it would miss and the point would re-run).  Built by a regex
        scan over the raw lines, so it never constructs a
        :class:`StoredRun` -- ``tests/experiments/test_status_index.py``
        pins that.
        """
        keys: Set[str] = set()
        for path in self.shard_paths():
            try:
                with path.open("r", encoding="utf-8", errors="replace") as handle:
                    for line in handle:
                        match = _KEY_RE.search(line)
                        if match is not None:
                            keys.add(match.group(1))
            except OSError:
                continue
        return keys

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @staticmethod
    def encode_record(record: StoredRun) -> str:
        """Serialise one record to its canonical, checksummed line (no newline).

        The ``check`` field is the checksum of the canonical JSON body
        *without* it, so any altered byte in the stored line -- even one
        that still parses as valid JSON -- is detected on load and by
        :meth:`verify`.
        """
        payload = record.to_json_dict()
        payload["check"] = _checksum(_canonical(payload))
        return _canonical(payload)

    def put(self, record: StoredRun) -> StoredRun:
        """Append ``record`` to its shard and index it (durable immediately).

        The append holds the shard's advisory writer lock, so concurrent
        writer processes interleave whole lines, never bytes.
        """
        self._ensure_sharded()
        shard = shard_of(record.key)
        line = self.encode_record(record)
        plan = faults.active()
        data_override = None
        if plan is not None:
            # Chaos hooks (docs/robustness.md): an injected OSError models a
            # full disk / revoked handle; a mangled line models a torn or
            # bit-rotted append that verify/compact must catch.
            plan.inject_store_append_fault(record.key)
            mangled = plan.mangle_append(record.key, line + "\n")
            if mangled != line + "\n":
                data_override = mangled
        with _file_lock(self._shard_lock(shard)):
            _append_line(self._shard_file(shard), line, data_override=data_override)
        cached = self._shard_index.get(shard)
        if cached is not None:
            cached[record.key] = record
        return record

    def clean(self) -> int:
        """Delete every stored record (and the quarantine sidecar).

        Returns how many stored results were removed.
        """
        removed = len(self._load_all())
        for path in self.shard_paths():
            path.unlink()
        self.failure_log.clear()
        self._shard_index = {}
        self.hits = 0
        self.misses = 0
        self.corrupt_records = 0
        self.corrupt_locations = []
        return removed

    # ------------------------------------------------------------------
    # Quarantine sidecar
    # ------------------------------------------------------------------

    @property
    def failures_path(self) -> Path:
        """The quarantine sidecar next to the record files."""
        return self.directory / FAILURES_FILE

    @property
    def failure_log(self) -> "FailureLog":
        """The poison-point quarantine (``failures.jsonl``) of this store."""
        if self._failure_log is None:
            self._failure_log = FailureLog(self.failures_path)
        return self._failure_log

    # ------------------------------------------------------------------
    # Integrity: verify, compact
    # ------------------------------------------------------------------

    def _scan_file(
        self, path: Path, report: "StoreVerifyReport",
        key_counts: Dict[str, int],
    ) -> Dict[str, StoredRun]:
        """One pass over one raw log file: fold into ``report``, return records."""
        records: Dict[str, StoredRun] = {}
        if not path.exists():
            return records
        text = path.read_text(encoding="utf-8", errors="replace")
        ends_with_newline = text.endswith("\n")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            report.total_lines += 1
            try:
                record = StoredRun.from_json_dict(_decode_record_payload(line))
            except (ValueError, KeyError, TypeError) as exc:
                if lineno == len(lines) and not ends_with_newline:
                    kind = "torn"       # an interrupted writer's final line
                elif isinstance(exc, _ChecksumMismatch):
                    kind = "checksum"   # parses, but the bytes were altered
                else:
                    kind = "unparsable"
                report.issues.append(
                    StoreIssue(lineno, kind, f"{type(exc).__name__}: {exc}",
                               path=path)
                )
                continue
            report.valid_records += 1
            key_counts[record.key] = key_counts.get(record.key, 0) + 1
            records[record.key] = record    # later lines win, as in loads
        return records

    def _scan(self) -> Tuple["StoreVerifyReport", Dict[Path, Dict[str, StoredRun]]]:
        """Scan every record file: integrity report + per-file salvage."""
        report = StoreVerifyReport(path=self.directory)
        key_counts: Dict[str, int] = {}
        per_file: Dict[Path, Dict[str, StoredRun]] = {}
        for path in self.shard_paths():
            per_file[path] = self._scan_file(path, report, key_counts)
        report.files = len(per_file)
        report.unique_keys = len(key_counts)
        report.duplicate_keys = {
            key: count for key, count in key_counts.items() if count > 1
        }
        return report, per_file

    def verify(self) -> "StoreVerifyReport":
        """Scan the record files and report corrupt, torn and duplicates.

        Pure read: the files, the in-memory indexes and the lookup counters
        are all left untouched.  ``repro store verify`` prints the report
        and exits non-zero unless :attr:`StoreVerifyReport.clean`.
        """
        report, _per_file = self._scan()
        return report

    def _rewrite_file(self, path: Path, records: Dict[str, StoredRun]) -> None:
        """Atomically replace ``path`` with the clean encoding of ``records``."""
        tmp_path = path.with_name(path.name + ".tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            for record in records.values():
                handle.write(self.encode_record(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        try:
            directory_fd = os.open(path.parent, os.O_RDONLY)
            os.fsync(directory_fd)
            os.close(directory_fd)
        except OSError:  # pragma: no cover - directory fsync is best-effort
            pass

    def compact(self) -> "StoreRepairReport":
        """Compact every record file to a clean, fully-checksummed state.

        Per file (shard by shard, each under its writer lock), every
        salvageable record is rewritten in file order with duplicates
        collapsed to their last occurrence (exactly the last-wins view
        reads already had) and corrupt/torn lines are dropped.  Each file
        is written to a temp path, fsync'd and atomically renamed, so a
        crash mid-compaction leaves every shard either old or new -- never
        a mix.
        """
        report, per_file = self._scan()
        out = StoreRepairReport(
            path=self.directory,
            dropped_corrupt=len(report.issues),
            collapsed_duplicates=sum(
                count - 1 for count in report.duplicate_keys.values()
            ),
        )
        for path, records in per_file.items():
            out.kept += len(records)
            with _file_lock(self._shard_lock(path.stem)):
                self._rewrite_file(path, records)
        self._shard_index = {}      # the next lookup re-reads the clean files
        self.corrupt_records = 0
        self.corrupt_locations = []
        return out


# ----------------------------------------------------------------------
# Integrity reports
# ----------------------------------------------------------------------


@dataclass
class StoreIssue:
    """One bad line found by :meth:`ResultsStore.verify`."""

    lineno: int
    #: ``torn`` (interrupted final write), ``checksum`` (altered bytes that
    #: still parse) or ``unparsable`` (anything else).
    kind: str
    detail: str
    #: The shard file the line lives in.
    path: Optional[Path] = None


@dataclass
class StoreVerifyReport:
    """What :meth:`ResultsStore.verify` found in one scan of the store."""

    path: Path
    #: Shard files scanned.
    files: int = 0
    total_lines: int = 0
    valid_records: int = 0
    unique_keys: int = 0
    issues: List[StoreIssue] = field(default_factory=list)
    #: ``key -> occurrence count`` for keys appearing more than once.
    duplicate_keys: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no corrupt/torn lines were found (duplicates are
        normal operation: concurrent writers, last record wins)."""
        return not self.issues

    def to_json_dict(self) -> Dict:
        """Machine-readable form (``repro store verify --json``)."""
        return {
            "path": str(self.path),
            "files": self.files,
            "total_lines": self.total_lines,
            "valid_records": self.valid_records,
            "unique_keys": self.unique_keys,
            "duplicate_keys": dict(self.duplicate_keys),
            "issues": [
                {"file": str(issue.path) if issue.path else None,
                 "line": issue.lineno, "kind": issue.kind,
                 "detail": issue.detail}
                for issue in self.issues
            ],
            "clean": self.clean,
        }

    def format(self) -> str:
        lines = [
            f"store {self.path}: {self.files} file(s), "
            f"{self.total_lines} record line(s), "
            f"{self.valid_records} valid, {self.unique_keys} unique key(s)"
        ]
        if self.duplicate_keys:
            duplicates = ", ".join(
                f"{key[:12]}... x{count}"
                for key, count in sorted(self.duplicate_keys.items())
            )
            lines.append(
                f"  {len(self.duplicate_keys)} duplicated key(s) "
                f"(last record wins): {duplicates}"
            )
        for issue in self.issues:
            where = f"{issue.path.name}:" if issue.path is not None else "line "
            lines.append(f"  {where}{issue.lineno}: {issue.kind}: {issue.detail}")
        lines.append(
            "verdict: clean" if self.clean
            else f"verdict: CORRUPT ({len(self.issues)} bad line(s); "
                 f"run `repro store compact`)"
        )
        return "\n".join(lines)


@dataclass
class StoreRepairReport:
    """What :meth:`ResultsStore.compact` rewrote."""

    path: Path
    kept: int = 0
    dropped_corrupt: int = 0
    collapsed_duplicates: int = 0

    def to_json_dict(self) -> Dict:
        return {
            "path": str(self.path),
            "kept": self.kept,
            "dropped_corrupt": self.dropped_corrupt,
            "collapsed_duplicates": self.collapsed_duplicates,
        }

    def format(self) -> str:
        return (
            f"repaired {self.path}: kept {self.kept} record(s), dropped "
            f"{self.dropped_corrupt} corrupt/torn line(s), collapsed "
            f"{self.collapsed_duplicates} duplicate(s)"
        )


# ----------------------------------------------------------------------
# Quarantine sidecar (failures.jsonl)
# ----------------------------------------------------------------------


@dataclass
class FailureRecord:
    """One quarantined sweep point (docs/robustness.md documents the schema)."""

    key: str                #: store content key of the failed point
    params: Dict            #: the point's outcome-determining payload
    attempts: int           #: how many attempts were made before giving up
    error: str              #: one-line description of the final failure
    traceback: str = ""     #: captured worker traceback of the final attempt
    engine: str = ""        #: engine of the final attempt
    timestamp: float = 0.0  #: quarantine wall-clock time (time.time())

    def to_json_dict(self) -> Dict:
        return {
            "key": self.key,
            "params": self.params,
            "attempts": self.attempts,
            "error": self.error,
            "traceback": self.traceback,
            "engine": self.engine,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "FailureRecord":
        return cls(
            key=payload["key"],
            params=dict(payload.get("params") or {}),
            attempts=int(payload.get("attempts", 1)),
            error=payload.get("error", ""),
            traceback=payload.get("traceback", ""),
            engine=payload.get("engine", ""),
            timestamp=payload.get("timestamp", 0.0),
        )


class FailureLog:
    """Append-only JSONL sidecar of quarantined points.

    Same durability discipline as the record files (O_APPEND, newline
    guard, fsync per record), but *advisory* semantics: a quarantined point
    is a report, not a skip-list entry -- the next campaign invocation
    retries it, because the faults the quarantine exists for are transient.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)

    def append(self, record: FailureRecord) -> FailureRecord:
        if not record.timestamp:
            record.timestamp = time.time()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _append_line(self.path, _canonical(record.to_json_dict()))
        return record

    def records(self) -> List[FailureRecord]:
        """Every parseable quarantine record, in append order."""
        if not self.path.exists():
            return []
        records = []
        # errors="replace", as in keys(): an invalid UTF-8 byte must not
        # abort the read; a line it leaves unparsable is skipped below.
        with self.path.open("r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(FailureRecord.from_json_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError):
                    continue        # torn final line from a killed writer
        return records

    def keys(self) -> Set[str]:
        """The quarantined point keys, from a raw scan (no body parse)."""
        keys: Set[str] = set()
        if not self.path.exists():
            return keys
        with self.path.open("r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                match = _KEY_RE.search(line)
                if match is not None:
                    keys.add(match.group(1))
        return keys

    def __len__(self) -> int:
        return len(self.records())

    def clear(self) -> int:
        """Delete the sidecar; returns how many records it held."""
        removed = len(self.records())
        if self.path.exists():
            self.path.unlink()
        return removed


# ----------------------------------------------------------------------
# CLI (`repro store verify|compact --store PATH`)
# ----------------------------------------------------------------------


def build_parser():
    import argparse

    from ..cli_common import store_options

    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Verify or compact a results store "
                    "(docs/robustness.md, docs/serving.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("verify", "scan for corrupt/torn/duplicate records (read-only)"),
        ("compact", "rewrite every shard to a clean, checksummed file "
                    "(atomic per shard)"),
    ):
        sub.add_parser(name, help=text, parents=[store_options()])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.store:
        raise SystemExit("repro store: a store directory is required (pass --store PATH)")
    store = ResultsStore(Path(args.store))

    def emit(report) -> None:
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(report.format())

    if args.command == "verify":
        report = store.verify()
        emit(report)
        return 0 if report.clean else 1
    if args.command == "compact":
        emit(store.compact())
        after = store.verify()
        emit(after)
        return 0 if after.clean else 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via `repro store`
    import sys

    sys.exit(main(sys.argv[1:]))
