"""Store integrity: checksums, corruption accounting, verify/compact.

The property tests use hypothesis to corrupt a healthy JSONL log in
arbitrary ways (truncation, garbage lines, in-place byte damage, duplicate
appends) and assert that ``verify`` finds the damage and ``compact``
round-trips the store to a clean state that still serves every record a
plain load could salvage.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.counters import SimulationStats
from repro.stats.store import (
    ResultsStore,
    StoreCorruptionWarning,
    StoredRun,
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


def _populate(path, n: int = 4) -> ResultsStore:
    store = ResultsStore(path)
    for i in range(n):
        store.put(_record(f"k{i}", reads=i + 1))
    return store


# ----------------------------------------------------------------------
# Checksums
# ----------------------------------------------------------------------


def test_checksum_catches_altered_bytes_that_still_parse(tmp_path):
    store = _populate(tmp_path / "store", n=2)
    # Flip a digit inside a stored float: the line is still valid JSON with
    # a valid schema, so only the checksum can catch it.  (All non-hex test
    # keys land in one overflow shard file.)
    text = store.shard_path("k0").read_text(encoding="utf-8")
    assert '"total_time_ns":321.5' in text
    store.shard_path("k0").write_text(
        text.replace('"total_time_ns":321.5', '"total_time_ns":321.7', 1),
        encoding="utf-8",
    )
    with pytest.warns(StoreCorruptionWarning):
        reopened = ResultsStore(tmp_path / "store")
        assert len(reopened) == 1
    assert reopened.corrupt_records == 1
    report = reopened.verify()
    assert not report.clean
    assert [issue.kind for issue in report.issues] == ["checksum"]


def test_corrupt_records_counted_and_warned_once(tmp_path):
    store = _populate(tmp_path / "store", n=3)
    with store.shard_path("k0").open("a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        handle.write('{"params": {"tr')
    with pytest.warns(StoreCorruptionWarning) as caught:
        reopened = ResultsStore(tmp_path / "store")
        assert set(reopened.keys()) == {"k0", "k1", "k2"}
    assert len(caught) == 1
    assert "2 corrupt/torn record line(s)" in str(caught[0].message)
    assert str(reopened.shard_path("k0")) in str(caught[0].message)
    assert reopened.corrupt_records == 2
    assert [lineno for lineno, _reason in reopened.corrupt_locations] == [4, 5]


# ----------------------------------------------------------------------
# verify / compact
# ----------------------------------------------------------------------


def test_verify_clean_store(tmp_path):
    store = _populate(tmp_path / "store")
    report = store.verify()
    assert report.clean
    assert report.total_lines == report.valid_records == report.unique_keys == 4
    assert "verdict: clean" in report.format()


def test_verify_classifies_torn_vs_unparsable_vs_duplicates(tmp_path):
    store = _populate(tmp_path / "store", n=2)
    store.put(_record("k0", reads=1))        # duplicate (bit-identical)
    with store.shard_path("k0").open("a", encoding="utf-8") as handle:
        handle.write("garbage line\n")
        handle.write('{"key": "torn"')      # no trailing newline: torn
    report = ResultsStore(tmp_path / "store").verify()
    assert sorted(issue.kind for issue in report.issues) == ["torn", "unparsable"]
    assert report.duplicate_keys == {"k0": 2}
    assert report.clean is False


def test_repair_compacts_to_clean_store(tmp_path):
    store = _populate(tmp_path / "store", n=3)
    store.put(_record("k1", reads=2))        # duplicate
    with store.shard_path("k0").open("a", encoding="utf-8") as handle:
        handle.write("garbage\n")
        handle.write('{"key": "torn", "par')
    store = ResultsStore(tmp_path / "store")
    with pytest.warns(StoreCorruptionWarning):
        before = {record.key: record.stats.reads for record in store.records()}
    repair = store.compact()
    assert repair.kept == 3
    assert repair.dropped_corrupt == 2
    assert repair.collapsed_duplicates == 1
    after = ResultsStore(tmp_path / "store")
    assert after.verify().clean
    assert {record.key: record.stats.reads for record in after.records()} == before


def test_record_without_checksum_is_corrupt(tmp_path):
    store = _populate(tmp_path / "store", n=2)
    # A canonical record body with no "check" field.
    body = json.dumps(_record("k9").to_json_dict(), sort_keys=True, separators=(",", ":"))
    with store.shard_path("k9").open("a", encoding="utf-8") as handle:
        handle.write(body + "\n")
    with pytest.warns(StoreCorruptionWarning) as caught:
        reopened = ResultsStore(tmp_path / "store")
        assert set(reopened.keys()) == {"k0", "k1"}
    assert len(caught) == 1
    assert "no checksum" in str(caught[0].message)
    assert reopened.corrupt_records == 1
    report = reopened.verify()
    assert [(issue.lineno, issue.kind) for issue in report.issues] == [(3, "checksum")]
    assert report.valid_records == 2
    # Compaction drops the line like any other corrupt one.
    assert reopened.compact().dropped_corrupt == 1
    assert ResultsStore(tmp_path / "store").verify().clean


def test_store_cli_verify_and_repair(tmp_path, capsys):
    from repro.stats.store import main as store_main

    store = _populate(tmp_path / "store", n=2)
    assert store_main(["verify", "--store", str(tmp_path / "store")]) == 0
    with store.shard_path("k0").open("a", encoding="utf-8") as handle:
        handle.write("broken\n")
    assert store_main(["verify", "--store", str(tmp_path / "store")]) == 1
    assert "CORRUPT" in capsys.readouterr().out
    assert store_main(["compact", "--store", str(tmp_path / "store")]) == 0
    out = capsys.readouterr().out
    assert "repaired" in out and "verdict: clean" in out
    assert store_main(["verify", "--store", str(tmp_path / "store")]) == 0


# ----------------------------------------------------------------------
# Property tests: arbitrary corruption round-trips through compact
# ----------------------------------------------------------------------


@st.composite
def _corruptions(draw):
    """A list of edit operations applied to a healthy JSONL log."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("truncate-tail"), st.integers(1, 40)),
                st.tuples(
                    st.just("garbage-line"),
                    st.text(
                        alphabet=st.characters(
                            blacklist_categories=("Cs",), blacklist_characters="\n"
                        ),
                        max_size=30,
                    ),
                ),
                st.tuples(st.just("flip-byte"), st.integers(0, 10_000)),
                st.tuples(st.just("duplicate-line"), st.integers(0, 10_000)),
            ),
            max_size=6,
        )
    )


def _apply_corruptions(path, operations) -> None:
    for op, arg in operations:
        raw = path.read_bytes()
        if op == "truncate-tail" and len(raw) > arg:
            path.write_bytes(raw[:-arg])
        elif op == "garbage-line":
            with path.open("a", encoding="utf-8") as handle:
                handle.write(arg + "\n")
        elif op == "flip-byte" and raw:
            at = arg % len(raw)
            if raw[at : at + 1] != b"\n":
                path.write_bytes(raw[:at] + b"?" + raw[at + 1 :])
        elif op == "duplicate-line":
            lines = raw.split(b"\n")
            if lines and lines[-1] == b"":
                lines.pop()
            if lines:
                with path.open("ab") as handle:
                    handle.write(lines[arg % len(lines)] + b"\n")


@settings(max_examples=40, deadline=None)
@given(operations=_corruptions())
def test_repair_round_trips_arbitrary_corruption(tmp_path_factory, operations):
    path = tmp_path_factory.mktemp("chaos") / "store"
    store = _populate(path, n=3)
    _apply_corruptions(store.shard_path("k0"), operations)

    # Whatever a plain (lenient) load can salvage before compacting...
    import warnings as warnings_module

    with warnings_module.catch_warnings():
        warnings_module.simplefilter("ignore", StoreCorruptionWarning)
        damaged = ResultsStore(path)
        salvageable = {
            record.key: record.stats.to_json_dict() for record in damaged.records()
        }
        damaged.compact()

    # ...survives compaction exactly, and the repaired store is clean.
    repaired = ResultsStore(path)
    report = repaired.verify()
    assert report.clean
    assert report.duplicate_keys == {}
    assert {
        record.key: record.stats.to_json_dict() for record in repaired.records()
    } == salvageable
    # Compacting a clean store is idempotent.
    assert repaired.compact().dropped_corrupt == 0
    assert ResultsStore(path).verify().clean
