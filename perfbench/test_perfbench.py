"""Tests of the benchmark itself, at a tiny length.

Run from the repository root::

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from spans import Tracer, instrumented  # noqa: E402
from workloads import TINY_WORKLOADS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _run_cli(capsys, monkeypatch, tmp_path, workload: str, trace: int) -> tuple:
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv, workloads=TINY_WORKLOADS) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_prints_every_metric_with_its_unit(capsys, monkeypatch, tmp_path,
                                                        workload, trace):
    report, result = _run_cli(capsys, monkeypatch, tmp_path, workload, trace)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in report), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(TINY_WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
def test_tracing_leaves_every_stats_digest_unchanged(tmp_path, workload):
    from repro.system.simulator import Simulator

    original_run = Simulator.run
    passes = {}
    for layers in (False, True):
        tracer = Tracer(layers=layers)
        with instrumented(tracer):
            passes[layers] = TINY_WORKLOADS[workload].run_pass(tracer, None, tmp_path,
                                                               lambda: None)
        assert Simulator.run is original_run
        assert ("cpu.execute_fast" in tracer.by_name()) == layers
    plain, traced = passes[False], passes[True]
    assert plain.digests and not plain.failures and not traced.failures
    assert traced.digests == plain.digests


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig6-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
