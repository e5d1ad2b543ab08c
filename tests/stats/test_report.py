"""Tests for the report-formatting helpers."""


import pytest

from repro.stats.report import format_series, format_table, geometric_mean


def test_format_table_alignment_and_title():
    text = format_table(
        ["name", "value"],
        [["streamcluster", 1.507], ["facesim", 1.1]],
        title="Speedups",
    )
    lines = text.splitlines()
    assert lines[0] == "Speedups"
    assert "streamcluster" in text
    assert "1.507" in text
    # All data rows have the same width.
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1


def test_format_series_fills_missing_cells_with_nan():
    series = {"a": {"x": 1.0}, "b": {"x": 2.0, "y": 3.0}}
    text = format_series(series)
    assert "nan" in text
    assert "workload" in text


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([0.0, -1.0]) == 0.0
    assert geometric_mean([2.0, 0.0]) == pytest.approx(2.0)  # non-positive ignored


def test_format_table_non_float_cells():
    text = format_table(["a", "b"], [[1, "x"]])
    assert "1" in text and "x" in text
