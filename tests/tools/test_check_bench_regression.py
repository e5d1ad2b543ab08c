"""Unit tests for tools/check_bench_regression.py (the CI bench gate).

The tool is CI-critical but lives outside the package, so it is loaded
here the same way the workflows invoke it -- by file path.  The tests pin
the two gates (throughput measurements with a noise tolerance, speedup
ratios with hard floors), the ``--speedups-prefix`` filter, and the
``main()`` exit codes the CI jobs key off.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", REPO_ROOT / "tools" / "check_bench_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _baseline(tolerance=0.7, speedups=None):
    base = {
        "tolerance": tolerance,
        "measurements": {
            "baseline/compiled": {"accesses_per_sec": 100_000.0},
            "c3d/compiled": {"accesses_per_sec": 50_000.0},
        },
    }
    if speedups is not None:
        base["speedups"] = speedups
    return base


def _record(**measurements):
    return {
        "timestamp": "2026-08-08T00:00:00Z",
        "git_sha": "deadbeef",
        "measurements": {
            key: {"accesses_per_sec": rate} for key, rate in measurements.items()
        },
    }


# ----------------------------------------------------------------------
# Throughput gate: floor = tolerance * baseline
# ----------------------------------------------------------------------


def test_check_passes_at_exactly_the_floor():
    record = _record(**{"baseline/compiled": 70_000.0, "c3d/compiled": 35_000.0})
    assert gate.check(record, _baseline()) == []


def test_check_fails_just_below_the_floor():
    record = _record(**{"baseline/compiled": 69_999.0, "c3d/compiled": 35_000.0})
    failures = gate.check(record, _baseline())
    assert len(failures) == 1
    assert failures[0].startswith("baseline/compiled:")


def test_check_reads_tolerance_from_the_baseline_file():
    record = _record(**{"baseline/compiled": 90_000.0, "c3d/compiled": 45_000.0})
    assert gate.check(record, _baseline(tolerance=0.9)) == []
    assert gate.check(record, _baseline(tolerance=0.95)) != []


def test_check_tolerance_argument_overrides_the_baseline_file():
    record = _record(**{"baseline/compiled": 50_000.0, "c3d/compiled": 25_000.0})
    assert gate.check(record, _baseline(tolerance=0.7), tolerance=0.5) == []


def test_check_flags_measurements_missing_from_the_record():
    record = _record(**{"baseline/compiled": 100_000.0})
    failures = gate.check(record, _baseline())
    assert failures == ["c3d/compiled: missing from the bench record"]


def test_check_ignores_record_keys_absent_from_the_baseline():
    """New measurement keys must not fail CI until a floor is committed."""
    record = _record(
        **{
            "baseline/compiled": 100_000.0,
            "c3d/compiled": 50_000.0,
            "baseline/sampled": 1.0,  # no baseline entry -> ungated
        }
    )
    assert gate.check(record, _baseline()) == []


# ----------------------------------------------------------------------
# Speedup gate: hard floors, optional key-prefix filter
# ----------------------------------------------------------------------

_FLOORS = {
    "sampled_speedup_baseline": 1.15,
    "sampled_speedup_c3d": 1.15,
    "parallel_speedup_baseline": 5.0,
    "parallel_speedup_c3d": 5.0,
}


def _speedup_record(**ratios):
    return {"git_sha": "deadbeef", **ratios}


def test_speedups_pass_at_and_above_the_floor():
    record = _speedup_record(
        sampled_speedup_baseline=1.15,
        sampled_speedup_c3d=2.0,
        parallel_speedup_baseline=5.0,
        parallel_speedup_c3d=6.1,
    )
    assert gate.check_speedups(record, _baseline(speedups=_FLOORS)) == []


def test_speedups_fail_below_the_floor():
    record = _speedup_record(
        sampled_speedup_baseline=1.14,
        sampled_speedup_c3d=1.2,
        parallel_speedup_baseline=4.99,
        parallel_speedup_c3d=6.0,
    )
    failures = gate.check_speedups(record, _baseline(speedups=_FLOORS))
    assert len(failures) == 2
    assert any(f.startswith("sampled_speedup_baseline:") for f in failures)
    assert any(f.startswith("parallel_speedup_baseline:") for f in failures)


def test_speedups_prefix_gates_only_one_engine_family():
    """A prefixed gate ignores floors with other prefixes: a parallel_ gate
    passes although the record has no sampled_* ratios."""
    record = _speedup_record(parallel_speedup_baseline=7.1, parallel_speedup_c3d=6.1)
    baseline = _baseline(speedups=_FLOORS)
    assert gate.check_speedups(record, baseline, prefix="parallel_") == []
    # Without the filter, the missing sampled_* ratios fail the gate.
    failures = gate.check_speedups(record, baseline)
    assert len(failures) == 2
    assert all("missing from the bench record" in f for f in failures)


def test_speedups_prefix_matching_nothing_is_a_failure():
    """A typo'd prefix must fail loudly, not gate an empty set."""
    record = _speedup_record(parallel_speedup_baseline=7.1)
    failures = gate.check_speedups(
        record, _baseline(speedups=_FLOORS), prefix="paralel_"
    )
    assert failures == ["baseline has no 'speedups' entries matching prefix 'paralel_'"]


def test_speedups_without_baseline_section_is_a_failure():
    failures = gate.check_speedups(_speedup_record(), _baseline())
    assert failures == ["baseline has no 'speedups' section to gate against"]


# ----------------------------------------------------------------------
# Record loading
# ----------------------------------------------------------------------


def test_latest_record_takes_the_last_history_entry(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps([{"git_sha": "old"}, {"git_sha": "new"}]))
    assert gate.latest_record(path)["git_sha"] == "new"


def test_latest_record_accepts_a_bare_record(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"git_sha": "solo"}))
    assert gate.latest_record(path)["git_sha"] == "solo"


def test_latest_record_rejects_an_empty_history(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="empty history"):
        gate.latest_record(path)


# ----------------------------------------------------------------------
# Explicit record selection (--record-index / --timestamp)
# ----------------------------------------------------------------------


def _history(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(
        json.dumps(
            [
                {"git_sha": "a", "timestamp": "t0"},
                {"git_sha": "b", "timestamp": "t1"},
                {"git_sha": "c", "timestamp": "t1"},
            ]
        )
    )
    return path


def test_select_record_by_positive_and_negative_index(tmp_path):
    path = _history(tmp_path)
    assert gate.select_record(path, index=0)["git_sha"] == "a"
    assert gate.select_record(path, index=-1)["git_sha"] == "c"
    assert gate.select_record(path, index=-2)["git_sha"] == "b"


def test_select_record_index_out_of_range(tmp_path):
    with pytest.raises(ValueError, match="out of range"):
        gate.select_record(_history(tmp_path), index=7)


def test_select_record_by_timestamp_takes_the_last_match(tmp_path):
    """A shared history may hold several records from one CI run; the last
    one with the requested stamp is the record that run finished with."""
    record = gate.select_record(_history(tmp_path), timestamp="t1")
    assert record["git_sha"] == "c"


def test_select_record_unknown_timestamp_lists_available(tmp_path):
    with pytest.raises(ValueError, match=r"no record with timestamp 't9'"):
        gate.select_record(_history(tmp_path), timestamp="t9")


def test_select_record_rejects_both_selectors(tmp_path):
    with pytest.raises(ValueError, match="not both"):
        gate.select_record(_history(tmp_path), index=0, timestamp="t0")


def test_select_record_bare_record_ignores_selectors(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"git_sha": "solo"}))
    assert gate.select_record(path, index=5)["git_sha"] == "solo"
    assert gate.select_record(path, timestamp="t9")["git_sha"] == "solo"


# ----------------------------------------------------------------------
# main(): the exit codes the CI jobs key off
# ----------------------------------------------------------------------


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_main_exits_zero_on_a_clean_record(tmp_path, capsys):
    record = _write(
        tmp_path, "bench.json",
        [_record(**{"baseline/compiled": 100_000.0, "c3d/compiled": 50_000.0})],
    )
    baseline = _write(tmp_path, "baseline.json", _baseline())
    assert gate.main([record, "--baseline", baseline]) == 0
    assert "gate passed" in capsys.readouterr().out


def test_main_exits_one_on_a_regression(tmp_path, capsys):
    record = _write(
        tmp_path, "bench.json",
        [_record(**{"baseline/compiled": 1.0, "c3d/compiled": 50_000.0})],
    )
    baseline = _write(tmp_path, "baseline.json", _baseline())
    assert gate.main([record, "--baseline", baseline]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_main_speedups_prefix_implies_the_speedups_gate(tmp_path):
    """--speedups-prefix alone must select the speedup gate (as CI relies on)."""
    record = _write(
        tmp_path, "bench.json", [_speedup_record(parallel_speedup_baseline=7.1)]
    )
    baseline = _write(
        tmp_path, "baseline.json",
        _baseline(speedups={"parallel_speedup_baseline": 5.0}),
    )
    assert (
        gate.main([record, "--baseline", baseline, "--speedups-prefix", "parallel_"])
        == 0
    )
    # Same invocation without the prefix flag gates the measurements
    # instead, which this record lacks entirely.
    assert gate.main([record, "--baseline", baseline]) == 1


def test_main_speedup_regression_exits_one(tmp_path):
    record = _write(
        tmp_path, "bench.json", [_speedup_record(parallel_speedup_baseline=4.2)]
    )
    baseline = _write(
        tmp_path, "baseline.json",
        _baseline(speedups={"parallel_speedup_baseline": 5.0}),
    )
    assert (
        gate.main([record, "--baseline", baseline, "--speedups", "--speedups-prefix",
                   "parallel_"])
        == 1
    )


def test_main_record_index_gates_the_pinned_record(tmp_path):
    """The parallel-bench CI job pins its own appended record with
    --record-index rather than trusting 'latest' in a shared history."""
    good = _record(**{"baseline/compiled": 100_000.0, "c3d/compiled": 50_000.0})
    bad = _record(**{"baseline/compiled": 1.0, "c3d/compiled": 1.0})
    record = _write(tmp_path, "bench.json", [good, bad])
    baseline = _write(tmp_path, "baseline.json", _baseline())
    assert gate.main([record, "--baseline", baseline, "--record-index", "0"]) == 0
    assert gate.main([record, "--baseline", baseline, "--record-index", "-1"]) == 1


def test_main_bad_selector_exits_two(tmp_path, capsys):
    record = _write(tmp_path, "bench.json", [_record()])
    baseline = _write(tmp_path, "baseline.json", _baseline())
    assert gate.main([record, "--baseline", baseline, "--record-index", "9"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_main_timestamp_selects_the_matching_record(tmp_path):
    good = _record(**{"baseline/compiled": 100_000.0, "c3d/compiled": 50_000.0})
    bad = dict(_record(**{"baseline/compiled": 1.0}), timestamp="later")
    record = _write(tmp_path, "bench.json", [good, bad])
    baseline = _write(tmp_path, "baseline.json", _baseline())
    args = [record, "--baseline", baseline, "--timestamp", "2026-08-08T00:00:00Z"]
    assert gate.main(args) == 0
    assert gate.main([record, "--baseline", baseline, "--timestamp", "nope"]) == 2


def test_main_rejects_both_selectors_at_the_parser(tmp_path, capsys):
    record = _write(tmp_path, "bench.json", [_record()])
    with pytest.raises(SystemExit):
        gate.main([record, "--record-index", "0", "--timestamp", "t0"])
    assert "not allowed with" in capsys.readouterr().err
