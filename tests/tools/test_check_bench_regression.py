"""Unit tests for tools/check_bench_regression.py (the CI bench gate).

The tool is CI-critical but lives outside the package, so it is loaded
here the same way the workflows invoke it -- by file path.  The tests pin
the two gates (throughput measurements with a noise tolerance, speedup
ratios with hard floors) and the ``main()`` exit codes the CI jobs key off.
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
# Speedup gate: hard floors
# ----------------------------------------------------------------------

_FLOORS = {
    "sampled_speedup_baseline": 1.15,
    "sampled_speedup_c3d": 1.15,
}


def _speedup_record(**ratios):
    return {"git_sha": "deadbeef", **ratios}


def test_speedups_pass_at_and_above_the_floor():
    record = _speedup_record(sampled_speedup_baseline=1.15, sampled_speedup_c3d=2.0)
    assert gate.check_speedups(record, _baseline(speedups=_FLOORS)) == []


def test_speedups_fail_below_the_floor():
    record = _speedup_record(sampled_speedup_baseline=1.14, sampled_speedup_c3d=1.2)
    failures = gate.check_speedups(record, _baseline(speedups=_FLOORS))
    assert len(failures) == 1
    assert failures[0].startswith("sampled_speedup_baseline:")


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


def test_main_speedups_selects_the_speedups_gate(tmp_path):
    """--speedups gates the ratios (as CI relies on)."""
    record = _write(
        tmp_path, "bench.json", [_speedup_record(sampled_speedup_baseline=1.2)]
    )
    baseline = _write(
        tmp_path, "baseline.json",
        _baseline(speedups={"sampled_speedup_baseline": 1.15}),
    )
    assert gate.main([record, "--baseline", baseline, "--speedups"]) == 0
    # Same invocation without the flag gates the measurements instead,
    # which this record lacks entirely.
    assert gate.main([record, "--baseline", baseline]) == 1


def test_main_speedup_regression_exits_one(tmp_path):
    record = _write(
        tmp_path, "bench.json", [_speedup_record(sampled_speedup_baseline=1.1)]
    )
    baseline = _write(
        tmp_path, "baseline.json",
        _baseline(speedups={"sampled_speedup_baseline": 1.15}),
    )
    assert gate.main([record, "--baseline", baseline, "--speedups"]) == 1


def test_main_unreadable_history_exits_two(tmp_path, capsys):
    record = _write(tmp_path, "bench.json", [])
    baseline = _write(tmp_path, "baseline.json", _baseline())
    assert gate.main([record, "--baseline", baseline]) == 2
    assert "empty history" in capsys.readouterr().err
