"""Unit tests for tools/check_sampling.py's speed floor.

The harness simulates for about a minute, so these tests replace its
timed pairs and check only how it judges the times: per protocol, the
exact runs' total seconds over the sampled runs' total seconds must reach
``MIN_SPEEDUP``.  Containment itself is tested against real runs in
``tests/system/test_sampling.py``.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_sampling", REPO_ROOT / "tools" / "check_sampling.py"
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def fake_pairs(monkeypatch, timings):
    """Make each (workload, protocol) pair take ``timings[pair]`` seconds,
    exact then sampled, with every metric contained."""
    result = SimpleNamespace(stats=SimpleNamespace(sampling=SimpleNamespace(metrics={})))

    def run_pair(workload, protocol, **_):
        exact_s, sampled_s = timings[workload, protocol]
        return result, result, exact_s, sampled_s, []

    monkeypatch.setattr(tool, "run_pair", run_pair)
    monkeypatch.setattr(tool, "check_containment", lambda exact, sampled: [])


def test_a_protocol_under_the_floor_fails_the_run(monkeypatch, capsys):
    """By default every design is gated, each on its own totals."""
    assert tool.DEFAULT_PROTOCOLS == (
        "baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir",
    )
    timings = {
        (workload, protocol): (2.0, 1.0)
        for workload in tool.DEFAULT_WORKLOADS
        for protocol in tool.DEFAULT_PROTOCOLS
    }
    timings["streamcluster", "baseline"] = (3.0, 1.0)
    timings["facesim", "baseline"] = (1.0, 1.0)
    timings["streamcluster", "full-dir"] = (1.2, 1.0)
    timings["facesim", "full-dir"] = (1.0, 1.0)
    fake_pairs(monkeypatch, timings)
    assert tool.main([]) == 1
    out = capsys.readouterr().out
    assert "baseline: ok  exact 4.00s / sampled 2.00s = 2.00x" in out
    assert "full-dir: FAIL  exact 2.20s / sampled 2.00s = 1.10x" in out
    assert "c3d-full-dir: ok  exact 4.00s / sampled 2.00s = 2.00x" in out
    assert "1 protocol(s) below the 1.15x speed floor" in out
    timings["facesim", "full-dir"] = (1.2, 1.0)
    assert tool.main([]) == 0


def test_the_ratio_is_of_totals_not_a_mean_of_pairs():
    """One pair far ahead cannot carry a protocol whose total is slow."""
    assert tool.check_speedups({"c3d": (2.3, 2.0)}) == []
    assert tool.check_speedups({"c3d": (1.0 + 1.2, 0.1 + 2.0)}) == ["c3d"]
    assert tool.MIN_SPEEDUP == 1.15
