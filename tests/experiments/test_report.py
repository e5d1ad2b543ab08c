"""Tests for ``repro report``: offline rendering against a golden table."""

import io
import json
from pathlib import Path

import pytest

from repro.experiments import table1
from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.experiments.report import generate_report, main as report_main
from repro.stats.store import ResultsStore

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "report_table1.md"

TINY = ExperimentSettings(
    scale=4096, accesses_per_thread=200, warmup_accesses_per_thread=50,
    num_sockets=2, cores_per_socket=2,
)
WORKLOADS = ["streamcluster", "facesim"]


@pytest.fixture()
def two_workloads(monkeypatch):
    """Every experiment context runs only the two tiny workloads."""
    monkeypatch.setattr(ExperimentContext, "workloads", lambda self: list(WORKLOADS))


@pytest.fixture()
def populated_store(tmp_path, two_workloads):
    """A store holding the table1 runs for the two tiny workloads."""
    store = ResultsStore(tmp_path / "store")
    table1.run_table1(ExperimentContext(TINY, store=store))
    return ResultsStore(tmp_path / "store")


def test_report_matches_golden_table(populated_store, tmp_path):
    out_dir = tmp_path / "report"
    entries = generate_report(
        populated_store, TINY, names=["table1"], out_dir=out_dir, stream=io.StringIO(),
    )
    entry = entries["table1"]
    assert entry.complete
    # Rendering is a pure store read: zero simulations happened.
    assert populated_store.misses == 0 and populated_store.hits == len(WORKLOADS)

    assert (out_dir / "table1.md").read_text() == GOLDEN.read_text()
    csv_lines = (out_dir / "table1.csv").read_text().splitlines()
    assert csv_lines[0] == "name,value"
    assert [line.split(",")[0] for line in csv_lines[1:]] == WORKLOADS
    # Full-precision CSV values, human-rounded Markdown.
    assert all(len(line.split(",")[1]) > 6 for line in csv_lines[1:])
    assert "Table I" in (out_dir / "table1.txt").read_text()
    assert "[table1](table1.md)" in (out_dir / "index.md").read_text()


def test_report_marks_missing_runs_incomplete(tmp_path, two_workloads):
    empty = ResultsStore(tmp_path / "empty")
    out_dir = tmp_path / "report"
    entries = generate_report(
        empty, TINY, names=["table1", "directory_cost"], out_dir=out_dir,
        stream=io.StringIO(),
    )
    assert not entries["table1"].complete
    assert "streamcluster" in entries["table1"].missing
    # directory_cost needs no simulation at all, so it renders regardless.
    assert entries["directory_cost"].complete
    assert "incomplete" in (out_dir / "index.md").read_text()


def test_report_rejects_unknown_experiment(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        generate_report(
            ResultsStore(tmp_path / "s"), TINY, names=["fig99"],
            stream=io.StringIO(),
        )


def test_report_cli_with_campaign_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "report-cli",
        "settings": {
            "scale": 4096, "accesses_per_thread": 200,
            "warmup_accesses_per_thread": 50,
            "num_sockets": 2, "cores_per_socket": 2,
        },
        "figures": ["directory_cost"],
        "store": str(tmp_path / "store"),
    }))
    # directory_cost simulates nothing, so the report completes on an
    # empty store -- this exercises the CLI path end to end.
    exit_code = report_main([
        "--campaign", str(spec_path),
        "--experiments", "directory_cost",
        "--out", str(tmp_path / "out"),
    ])
    assert exit_code == 0
    assert (tmp_path / "out" / "directory_cost.md").exists()
    assert "1/1 experiments rendered" in capsys.readouterr().out


def test_report_cli_requires_store(capsys):
    assert report_main([]) == 1
    assert "--store" in capsys.readouterr().err
