"""Analyzer drift guard and the `repro analyze` CLI contract.

``tests/golden/ingest_tiny/`` is a committed trace directory (imported from
the lackey specimen in ``tests/golden/regen_ingest.py``) and
``ingest_tiny_profile.json`` its pinned profile.  Any analyzer change that
shifts a single count or rounds differently fails here; regenerate the
goldens with ``PYTHONPATH=src python tests/golden/regen_ingest.py`` only
when the change is deliberate.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.stats.histograms import Log2Histogram, bucket_bounds, bucket_of
from repro.workloads.analyzer import (
    analyze_trace_dir,
    analyze_workload,
    main,
    profile_to_markdown,
)
from repro.workloads.trace_io import TraceFormatError

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
TINY_DIR = GOLDEN / "ingest_tiny"
TINY_PROFILE = GOLDEN / "ingest_tiny_profile.json"


# ----------------------------------------------------------------------
# Golden drift guard
# ----------------------------------------------------------------------


def test_tiny_profile_matches_golden_byte_for_byte():
    profile = analyze_trace_dir(TINY_DIR)
    profile["source"] = "tests/golden/ingest_tiny"  # pinned relative in the golden
    produced = json.dumps(profile, indent=2) + "\n"
    assert produced == TINY_PROFILE.read_text()


def test_markdown_report_renders_golden_profile():
    report = profile_to_markdown(json.loads(TINY_PROFILE.read_text()))
    assert "# Workload profile: ingest-tiny" in report
    assert "## Reuse distance" in report
    assert "## Sharing degree" in report
    assert "| write fraction | 0.500 |" in report


# ----------------------------------------------------------------------
# Analyzer unit behaviour
# ----------------------------------------------------------------------


def test_reuse_distance_is_exact_lru_stack_distance(tmp_path):
    """A,B,C,A per thread: A's reuse sees 2 distinct blocks in between."""
    from repro.workloads.importers import import_pin_csv

    source = tmp_path / "t.csv"
    source.write_text("0,R,0x0\n0,R,0x40\n0,R,0x80\n0,R,0x0\n")
    import_pin_csv(source, tmp_path / "dir")
    profile = analyze_trace_dir(tmp_path / "dir")
    reuse = profile["reuse_distance"]
    assert reuse["cold_accesses"] == 3
    assert reuse["histogram"] == {str(bucket_of(2)): 1}


def test_empty_workload_is_rejected():
    class Empty:
        num_threads = 1

        def stream(self, tid):
            return iter(())

    with pytest.raises(TraceFormatError, match="no memory accesses"):
        analyze_workload(Empty(), source="empty")


def test_log2_histogram_buckets_and_bounds():
    assert bucket_of(0) == -1
    assert bucket_of(1) == 0
    assert bucket_of(7) == 2
    assert bucket_of(8) == 3
    assert bucket_bounds(-1) == (0, 0)
    assert bucket_bounds(3) == (8, 15)
    hist = Log2Histogram()
    for value in (0, 1, 7, 8):
        hist.add(value)
    assert hist.to_json_dict() == {"-1": 1, "0": 1, "2": 1, "3": 1}
    assert Log2Histogram.from_json_dict(hist.to_json_dict()) == hist


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------


def test_cli_analyze_writes_json_and_report(tmp_path, capsys):
    out = tmp_path / "profile.json"
    assert main([str(TINY_DIR), "--json", str(out)]) == 0
    captured = capsys.readouterr()
    assert "# Workload profile: ingest-tiny" in captured.out
    assert json.loads(out.read_text())["total_accesses"] == 6


def test_cli_analyze_quiet_json_to_stdout(capsys):
    assert main([str(TINY_DIR), "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["name"] == "ingest-tiny"


def test_cli_analyze_clone_out(tmp_path, capsys):
    clone = tmp_path / "clone.json"
    assert main([str(TINY_DIR), "--quiet", "--clone-out", str(clone)]) == 0
    payload = json.loads(clone.read_text())
    assert payload["schema"] == "workload-clone/v1"
    assert payload["spec"]["name"] == "ingest-tiny-clone"
    assert payload["fitted_from"]["name"] == "ingest-tiny"


def test_cli_analyze_missing_dir_exits_nonzero(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 1
    assert "error:" in capsys.readouterr().err


def test_repro_cli_dispatches_import_and_analyze(tmp_path, capsys):
    """`repro import` / `repro analyze` work through the top-level CLI."""
    source = tmp_path / "t.lackey"
    source.write_text("I  400000,2\n L 1000,8\n S 1040,4\n")
    out_dir = tmp_path / "imported"
    assert repro_main(["import", "lackey", str(source), str(out_dir)]) == 0
    assert "imported 2 accesses" in capsys.readouterr().out
    assert repro_main(["analyze", str(out_dir), "--quiet", "--json", "-"]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert profile["total_accesses"] == 2
    assert repro_main(["import", "lackey", str(tmp_path / "missing"), "x"]) == 1
