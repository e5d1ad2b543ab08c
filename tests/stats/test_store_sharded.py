"""Sharded store layout: sharding, the store CLI, and concurrent
multi-process writers.

docs/serving.md documents the layout these tests pin.
"""

import json
import multiprocessing

import pytest

from repro.stats.counters import SimulationStats
from repro.stats.store import (
    ResultsStore,
    StoredRun,
    content_key,
    shard_of,
)


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


def _hex_key(i: int) -> str:
    return content_key({"point": i})


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------


def test_shard_of_spreads_hex_keys_and_overflows_the_rest():
    assert shard_of("0abc") == "0"
    assert shard_of("f000") == "f"
    assert shard_of("F000") == "f"
    assert shard_of("k1") == "x"          # non-hex test keys
    assert shard_of("") == "x"


def test_new_store_uses_sharded_layout(tmp_path):
    store = ResultsStore(tmp_path / "store")
    keys = [_hex_key(i) for i in range(32)]
    for key in keys:
        store.put(_record(key))
    assert store.meta_path.exists()
    meta = json.loads(store.meta_path.read_text())
    assert meta["layout"] == "sharded/v1" and meta["shards"] == 16
    # Every record sits in the shard file its key prefix names.
    for key in keys:
        assert key in store.shard_path(key).read_text()
    # 32 hashed keys land in several distinct shards.
    assert len(store.shard_paths()) > 4
    reopened = ResultsStore(tmp_path / "store")
    assert set(reopened.keys()) == set(keys)
    assert len(reopened) == 32


def test_get_touches_only_one_shard_index(tmp_path):
    store = ResultsStore(tmp_path / "store")
    keys = [_hex_key(i) for i in range(32)]
    for key in keys:
        store.put(_record(key))
    reopened = ResultsStore(tmp_path / "store")
    assert reopened.get(keys[0]) is not None
    loaded_shards = set(reopened._shard_index)
    assert loaded_shards == {shard_of(keys[0])}


def test_known_keys_scans_without_parsing_bodies(tmp_path):
    store = ResultsStore(tmp_path / "store")
    key = _hex_key(1)
    store.put(_record(key))
    # Corrupt the record body but keep the key field intact: the fast
    # key index still sees the point, a full parse would not.
    path = store.shard_path(key)
    path.write_text(path.read_text().replace('"reads":5', '"raeds":<'))
    fresh = ResultsStore(tmp_path / "store")
    assert fresh.known_keys() == {key}


# ----------------------------------------------------------------------
# The store CLI
# ----------------------------------------------------------------------


def test_store_cli_compact_json(tmp_path, capsys):
    from repro.stats.store import main as store_main

    store = ResultsStore(tmp_path / "store")
    for i in range(4):
        store.put(_record(_hex_key(i)))
    assert store_main(["compact", "--store", str(tmp_path / "store"),
                       "--json"]) == 0
    out = capsys.readouterr().out
    decoder = json.JSONDecoder()
    payload, _ = decoder.raw_decode(out.strip())
    assert payload["kept"] == 4


def test_store_cli_migrate(tmp_path, capsys):
    """`repro store migrate --store P` is an argparse usage error: the
    single-file layout it converted is gone."""
    from repro.cli import main as repro_main

    with pytest.raises(SystemExit) as exc:
        repro_main(["store", "migrate", "--store", str(tmp_path / "store")])
    assert exc.value.code == 2
    assert "invalid choice: 'migrate'" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


# ----------------------------------------------------------------------
# Concurrent writer processes
# ----------------------------------------------------------------------

_SHARED_KEYS = [content_key({"shared": i}) for i in range(5)]


def _writer_process(directory: str, writer_id: int, disjoint: int) -> None:
    store = ResultsStore(directory)
    for i in range(disjoint):
        key = content_key({"writer": writer_id, "point": i})
        store.put(_record(key, reads=writer_id * 1000 + i))
    # Overlapping keys: every writer appends the same records (same key ->
    # same payload by construction, as in real campaigns).
    for i, key in enumerate(_SHARED_KEYS):
        store.put(_record(key, reads=7 + i))


def test_concurrent_writer_processes_interleave_cleanly(tmp_path):
    directory = tmp_path / "store"
    writers, disjoint = 4, 20
    processes = [
        multiprocessing.Process(
            target=_writer_process, args=(str(directory), w, disjoint)
        )
        for w in range(writers)
    ]
    for proc in processes:
        proc.start()
    for proc in processes:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    store = ResultsStore(directory)
    report = store.verify()
    assert report.clean                          # no torn/interleaved bytes
    assert len(store) == writers * disjoint + len(_SHARED_KEYS)
    # Overlapping appends are duplicates of bit-identical records.
    assert all(count == writers for count in report.duplicate_keys.values())
    assert set(report.duplicate_keys) == set(_SHARED_KEYS)
    for i, key in enumerate(_SHARED_KEYS):
        assert store.get(key).stats.reads == 7 + i
    # Compaction collapses the duplicates and stays clean.
    compacted = store.compact()
    assert compacted.collapsed_duplicates == (writers - 1) * len(_SHARED_KEYS)
    assert ResultsStore(directory).verify().duplicate_keys == {}
