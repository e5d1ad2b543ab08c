"""Tests for the persistent results store and the stats JSON round-trip."""

import dataclasses
import hashlib
import json


from repro.stats.counters import LatencyAccumulator, SimulationStats
from repro.stats.store import (
    STORE_SCHEMA_VERSION,
    FailureRecord,
    MissingRunError,
    ResultsStore,
    StoredRun,
    content_key,
)


def _sample_stats() -> SimulationStats:
    stats = SimulationStats()
    stats.reads = 123
    stats.writes = 45
    stats.l1_hits = 100
    stats.memory_reads_remote = 7
    stats.store_buffer_stall_ns = 1.0 / 3.0          # non-trivial mantissa
    stats.read_latency.add(13.333333333333334)
    stats.read_latency.add(97.1)
    stats.llc_miss_latency.add(250.00000000000003)
    stats.core_finish_ns = {0: 1234.5, 7: 6.02e23}
    stats.extra["ablation.x"] = 0.1 + 0.2            # classic float dust
    return stats


# ----------------------------------------------------------------------
# SimulationStats <-> JSON
# ----------------------------------------------------------------------


def test_stats_round_trip_is_bit_identical():
    stats = _sample_stats()
    # Through an actual JSON string, as the store does.
    restored = SimulationStats.from_json_dict(
        json.loads(json.dumps(stats.to_json_dict()))
    )
    assert restored.to_json_dict() == stats.to_json_dict()
    assert restored.as_dict() == stats.as_dict()
    assert restored.store_buffer_stall_ns == stats.store_buffer_stall_ns
    assert restored.read_latency.total == stats.read_latency.total
    assert restored.read_latency.maximum == stats.read_latency.maximum
    assert restored.core_finish_ns == stats.core_finish_ns     # int keys restored
    assert restored.extra == stats.extra


def test_stats_serialisation_covers_every_field():
    # A newly added counter must make a conscious serialisation choice; this
    # guards against silently dropping it from the store round-trip.
    covered = (
        set(SimulationStats._MERGE_SUM_FIELDS)
        | set(SimulationStats._LATENCY_FIELDS)
        | {"core_finish_ns", "extra"}
    )
    all_fields = {f.name for f in dataclasses.fields(SimulationStats)}
    assert covered == all_fields


def test_latency_accumulator_round_trip():
    acc = LatencyAccumulator()
    acc.add(0.30000000000000004)
    acc.add(7.0)
    restored = LatencyAccumulator.from_json_dict(acc.to_json_dict())
    assert restored == acc


# ----------------------------------------------------------------------
# content_key
# ----------------------------------------------------------------------


def test_content_key_is_order_independent_and_value_sensitive():
    a = {"workload": "facesim", "protocol": "c3d", "scale": 512}
    b = {"scale": 512, "protocol": "c3d", "workload": "facesim"}
    assert content_key(a) == content_key(b)
    assert content_key(a) != content_key({**a, "scale": 1024})
    assert content_key(a) != content_key({**a, "protocol": "baseline"})
    # 64 hex chars of SHA-256.
    assert len(content_key(a)) == 64


def test_content_key_distinguishes_nested_payloads():
    payload = {"config": {"llc": {"size_bytes": 65536}}, "schema": STORE_SCHEMA_VERSION}
    changed = {"config": {"llc": {"size_bytes": 131072}}, "schema": STORE_SCHEMA_VERSION}
    assert content_key(payload) != content_key(changed)


# ----------------------------------------------------------------------
# ResultsStore
# ----------------------------------------------------------------------


def _record(key: str, reads: int = 5) -> StoredRun:
    stats = SimulationStats()
    stats.reads = reads
    stats.read_latency.add(42.5)
    return StoredRun(
        key=key,
        params={"kind": "test", "reads": reads},
        stats=stats,
        total_time_ns=321.5,
        inter_socket_bytes=64,
        accesses_executed=reads,
        wall_clock_s=0.01,
    )


def test_store_put_get_round_trip(tmp_path):
    store = ResultsStore(tmp_path / "store")
    key = content_key({"p": 1})
    assert store.get(key) is None and store.misses == 1
    store.put(_record(key))
    loaded = store.get(key)
    assert loaded is not None and store.hits == 1
    assert loaded.stats.to_json_dict() == _record(key).stats.to_json_dict()
    assert loaded.total_time_ns == 321.5
    assert loaded.inter_socket_bytes == 64
    assert key in store and len(store) == 1


def test_store_persists_across_instances(tmp_path):
    path = tmp_path / "store"
    ResultsStore(path).put(_record("k1"))
    reopened = ResultsStore(path)
    assert reopened.get("k1") is not None
    assert reopened.keys() == ["k1"]


def test_store_skips_torn_trailing_line(tmp_path):
    path = tmp_path / "store"
    store = ResultsStore(path)
    store.put(_record("k1"))
    store.put(_record("k2"))
    # Simulate a writer killed mid-append: a torn, unparsable final line.
    # (Non-hex test keys all live in the overflow shard file.)
    with store.shard_path("k1").open("a", encoding="utf-8") as handle:
        handle.write('{"key": "k3", "params": {"tr')
    reopened = ResultsStore(path)
    assert set(reopened.keys()) == {"k1", "k2"}
    # The store stays appendable after the torn line.
    reopened.put(_record("k4"))
    assert set(ResultsStore(path).keys()) == {"k1", "k2", "k4"}


def test_a_record_stamped_engine_used_loads_verifies_and_compacts(tmp_path):
    """Stores written while a point could fall back to another engine hold
    records with an ``engine_used`` stamp.  Such a line is read by its named
    keys, its checksum covers it as written, and compaction rewrites it
    without the stamp."""
    path = tmp_path / "store"
    store = ResultsStore(path)
    store.put(_record("k1"))
    payload = dataclasses.replace(_record("k2"), attempts=2).to_json_dict()
    payload["engine_used"] = "compiled"
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["check"] = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    with store.shard_path("k2").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    reopened = ResultsStore(path)
    loaded = reopened.get("k2")
    assert loaded is not None and loaded.attempts == 2
    assert loaded.stats.to_json_dict() == _record("k2").stats.to_json_dict()
    report = reopened.verify()
    assert report.clean and report.valid_records == 2
    assert reopened.compact().kept == 2
    assert "engine_used" not in reopened.shard_path("k2").read_text()
    compacted = ResultsStore(path)
    assert compacted.verify().clean
    assert compacted.get("k2").attempts == 2


def test_store_duplicate_keys_last_wins(tmp_path):
    store = ResultsStore(tmp_path / "store")
    store.put(_record("k1", reads=5))
    store.put(_record("k1", reads=9))
    assert len(store) == 1
    assert ResultsStore(tmp_path / "store").get("k1").stats.reads == 9


def test_store_clean_removes_everything(tmp_path):
    store = ResultsStore(tmp_path / "store")
    store.put(_record("k1"))
    store.put(_record("k2"))
    assert store.clean() == 2
    assert len(store) == 0
    assert store.shard_paths() == []
    assert ResultsStore(tmp_path / "store").get("k1") is None


def test_failure_log_skips_a_line_with_invalid_utf8(tmp_path):
    """One invalid UTF-8 byte in failures.jsonl spoils only its own line: the
    records, the count and clean() (`repro campaign clean`) still work."""
    store = ResultsStore(tmp_path / "store")
    store.put(_record("k1"))
    store.failure_log.append(FailureRecord(key="f1", params={}, attempts=3, error="boom"))
    with store.failures_path.open("ab") as handle:
        handle.write(b"\xff\xfe\n")
    store.failure_log.append(FailureRecord(key="f2", params={}, attempts=1, error="bang"))

    reopened = ResultsStore(tmp_path / "store")
    assert [record.key for record in reopened.failure_log.records()] == ["f1", "f2"]
    assert len(reopened.failure_log) == 2
    assert reopened.failure_log.keys() == {"f1", "f2"}
    assert reopened.clean() == 1
    assert not reopened.failures_path.exists()


def test_missing_run_error_names_the_run():
    error = MissingRunError("abcdef0123456789", {"kind": "context-run",
                                                "workload": "facesim",
                                                "protocol": "c3d"})
    message = str(error)
    assert "facesim" in message and "c3d" in message
    assert isinstance(error, KeyError)
