"""Property tests for the external-trace importers (docs/ingestion.md).

Each importer is hammered with randomly generated *valid* source text and
held to the same wall of properties:

* importing the gzipped variant of a source produces a byte-identical
  trace directory to importing the plain text;
* importing is deterministic (same source twice -> identical bytes);
* the emitted directory round-trips: re-recording the imported
  ``TraceDirWorkload`` with ``record_workload`` reproduces the per-core
  trace files byte for byte;
* and (acceptance criterion) an imported lackey trace replays
  bit-identically on the ``object`` and ``compiled`` engines.
"""

import gzip
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.importers import (
    IMPORTERS,
    import_lackey,
    import_pin_csv,
    import_synchrotrace,
    import_trace,
    importer_names,
)
from repro.workloads.trace_io import (
    TraceDirWorkload,
    TraceFormatError,
    record_workload,
)

# ----------------------------------------------------------------------
# Source-text strategies (valid external traces)
# ----------------------------------------------------------------------

_addr = st.integers(min_value=0, max_value=2**47)
_size = st.integers(min_value=1, max_value=64)


def _render_lackey(ops):
    lines = ["==123== fake valgrind banner"]
    for op, addr, size in ops:
        prefix = "I  " if op == "I" else f" {op} "
        lines.append(f"{prefix}{addr:08x},{size}")
    return "\n".join(lines) + "\n"


lackey_sources = st.lists(
    st.tuples(st.sampled_from("ILSM"), _addr, _size), min_size=1, max_size=60
).filter(lambda ops: any(op != "I" for op, _, _ in ops)).map(_render_lackey)


def _render_pin(rows):
    lines = ["tid,op,addr,size,gap"]
    for tid, op, addr, size, gap in rows:
        fields = [str(tid), op, hex(addr)]
        if size is not None:
            fields.append(str(size))
            if gap is not None:
                fields.append(str(gap))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


pin_sources = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["R", "W", "r", "w", "0", "1"]),
        _addr,
        st.one_of(st.none(), _size),
        st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
    ),
    min_size=1,
    max_size=60,
).map(_render_pin)


def _render_synchrotrace(events):
    lines = ["# synthetic event trace"]
    for event_id, (tid, kind, a, b) in enumerate(events, start=1):
        lines.append(f"{event_id},{tid},{kind},{a},{b}")
    return "\n".join(lines) + "\n"


synchrotrace_sources = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.just("comp"),
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=500),
        ),
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["read", "write"]),
            _addr,
            _size,
        ),
    ),
    min_size=1,
    max_size=60,
).filter(lambda evs: any(kind != "comp" for _, kind, _, _ in evs)).map(
    _render_synchrotrace
)

FORMAT_SOURCES = [
    ("lackey", lackey_sources),
    ("pin", pin_sources),
    ("synchrotrace", synchrotrace_sources),
]


def _trace_files(directory):
    return sorted(p.name for p in Path(directory).iterdir())


def _dir_bytes(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def _streams(workload):
    return [list(workload.stream(tid)) for tid in range(workload.num_threads)]


# ----------------------------------------------------------------------
# The property wall, run per importer
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "fmt,sources", FORMAT_SOURCES, ids=[fmt for fmt, _ in FORMAT_SOURCES]
)
class TestImporterProperties:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_gzip_variant_imports_byte_identically(
        self, tmp_path_factory, fmt, sources, data
    ):
        text = data.draw(sources)
        base = tmp_path_factory.mktemp("gz")
        plain = base / "trace.txt"
        plain.write_text(text)
        gzipped = base / "trace.txt.gz"
        with gzip.open(gzipped, "wt") as handle:
            handle.write(text)
        import_trace(fmt, plain, base / "out_plain", name="same")
        import_trace(fmt, gzipped, base / "out_gz", name="same")
        plain_bytes = _dir_bytes(base / "out_plain")
        gz_bytes = _dir_bytes(base / "out_gz")
        # The manifests differ only in the recorded source path.
        assert _trace_files(base / "out_plain") == _trace_files(base / "out_gz")
        for name in plain_bytes:
            if name != "manifest.json":
                assert plain_bytes[name] == gz_bytes[name], name

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_import_is_deterministic(self, tmp_path_factory, fmt, sources, data):
        text = data.draw(sources)
        base = tmp_path_factory.mktemp("det")
        source = base / "trace.txt"
        source.write_text(text)
        import_trace(fmt, source, base / "a")
        import_trace(fmt, source, base / "b")
        assert _dir_bytes(base / "a") == _dir_bytes(base / "b")

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), trace_format=st.sampled_from(["csv", "bin"]))
    def test_emitted_directory_round_trips(
        self, tmp_path_factory, fmt, sources, data, trace_format
    ):
        """record_workload(imported) reproduces the trace files byte for byte."""
        text = data.draw(sources)
        base = tmp_path_factory.mktemp("rt")
        source = base / "trace.txt"
        source.write_text(text)
        import_trace(fmt, source, base / "first", trace_format=trace_format)
        first = TraceDirWorkload(base / "first")
        record_workload(first, base / "second", trace_format=trace_format)
        first_bytes = _dir_bytes(base / "first")
        second_bytes = _dir_bytes(base / "second")
        for name in first_bytes:
            if name != "manifest.json":
                assert name in second_bytes
                assert first_bytes[name] == second_bytes[name], name
        assert _streams(first) == _streams(TraceDirWorkload(base / "second"))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_gzipped_emission_replays_identically(
        self, tmp_path_factory, fmt, sources, data
    ):
        """csv vs bin.gz on-disk formats carry the identical access stream."""
        text = data.draw(sources)
        base = tmp_path_factory.mktemp("fmt")
        source = base / "trace.txt"
        source.write_text(text)
        import_trace(fmt, source, base / "csv", trace_format="csv")
        import_trace(fmt, source, base / "bingz", trace_format="bin.gz")
        assert _streams(TraceDirWorkload(base / "csv")) == _streams(
            TraceDirWorkload(base / "bingz")
        )


# ----------------------------------------------------------------------
# Registry and summary plumbing
# ----------------------------------------------------------------------


def test_registry_names_and_dispatch():
    assert importer_names() == ["lackey", "pin", "synchrotrace"]
    assert IMPORTERS["lackey"] is import_lackey
    assert IMPORTERS["pin"] is import_pin_csv
    assert IMPORTERS["synchrotrace"] is import_synchrotrace
    with pytest.raises(TraceFormatError, match="unknown import format"):
        import_trace("dinero", "x", "y")


def test_import_summary_counts(tmp_path):
    source = tmp_path / "t.csv"
    source.write_text("0,R,0x0\n1,W,0x1000\n0,R,0x40\n")
    summary = import_trace("pin", source, tmp_path / "out")
    assert summary.num_threads == 2
    assert summary.records_per_thread == [2, 1]
    assert summary.total_records == 3
    assert "3 accesses" in summary.format_line()


def test_thread_gaps_get_empty_trace_files(tmp_path):
    """A source mentioning only threads 0 and 3 still yields 4 trace files."""
    source = tmp_path / "t.csv"
    source.write_text("0,R,0x0\n3,W,0x1000\n")
    summary = import_trace("pin", source, tmp_path / "out")
    assert summary.num_threads == 4
    assert summary.records_per_thread == [1, 0, 0, 1]
    workload = TraceDirWorkload(tmp_path / "out")
    assert list(workload.stream(1)) == []
    assert len(list(workload.stream(3))) == 1


def test_region_synthesis_private_and_shared(tmp_path):
    """Pages touched by one thread become private regions, by two -> shared."""
    source = tmp_path / "t.csv"
    source.write_text(
        "0,R,0x0\n"        # page 0: only thread 0 -> private
        "1,W,0x2000\n"     # page 2: only thread 1 -> private
        "0,R,0x4000\n"     # page 4: both threads  -> shared 'warm'
        "1,R,0x4040\n"
    )
    import_trace("pin", source, tmp_path / "out")
    regions = TraceDirWorkload(tmp_path / "out").memory_regions()
    kinds = {(r["kind"], r["owner_thread"]) for r in regions}
    assert kinds == {("private", 0), ("private", 1), ("warm", None)}


def test_no_regions_flag_suppresses_synthesis(tmp_path):
    source = tmp_path / "t.csv"
    source.write_text("0,R,0x0\n")
    import_trace("pin", source, tmp_path / "out", synthesize_regions=False)
    assert TraceDirWorkload(tmp_path / "out").memory_regions() == []


def test_lackey_modify_expands_to_load_then_store(tmp_path):
    source = tmp_path / "t.lackey"
    source.write_text("I  400000,2\nI  400002,3\n M 1000,4\n")
    import_lackey(source, tmp_path / "out")
    accesses = list(TraceDirWorkload(tmp_path / "out").stream(0))
    assert [(a.addr, a.is_write, a.gap) for a in accesses] == [
        (0x1000, False, 2),
        (0x1000, True, 0),
    ]


def test_synchrotrace_comp_events_accumulate_gap(tmp_path):
    source = tmp_path / "t.st"
    source.write_text("1,0,comp,5,2\n2,0,comp,3,0\n3,0,read,0x40,8\n4,0,write,0x40,8\n")
    import_synchrotrace(source, tmp_path / "out")
    accesses = list(TraceDirWorkload(tmp_path / "out").stream(0))
    assert [(a.addr, a.is_write, a.gap) for a in accesses] == [
        (0x40, False, 10),
        (0x40, True, 0),
    ]


# ----------------------------------------------------------------------
# Acceptance: imported traces replay bit-identically on every engine
# ----------------------------------------------------------------------


def _run(workload, engine):
    config = SystemConfig.quad_socket(
        protocol="c3d", allocation_policy="first_touch"
    ).scaled(1024)
    simulator = Simulator(NumaSystem(config), workload, engine=engine)
    return simulator.run(prewarm=True, warmup_accesses_per_core=0)


def test_imported_lackey_replays_identically_on_all_engines(tmp_path):
    lines = ["==99== banner"]
    for i in range(300):
        lines.append(f"I  {0x400000 + 2 * i:x},2")
        op = "LSM"[i % 3]
        lines.append(f" {op} {0x10000 + 64 * (i % 37):x},8")
    source = tmp_path / "t.lackey"
    source.write_text("\n".join(lines) + "\n")
    import_lackey(source, tmp_path / "out")

    baseline = _run(TraceDirWorkload(tmp_path / "out"), "object")
    assert baseline.accesses_executed > 0
    result = _run(TraceDirWorkload(tmp_path / "out"), "compiled")
    assert result.stats.as_dict() == baseline.stats.as_dict()
    assert result.total_time_ns == baseline.total_time_ns
    assert result.inter_socket_bytes == baseline.inter_socket_bytes
    assert result.accesses_executed == baseline.accesses_executed
