"""Tests for the CSV export helpers."""

import csv

from repro.stats.export import export_series_csv, flatten_series


SERIES = {
    "streamcluster": {"c3d": 1.5, "snoopy": 0.9},
    "facesim": {"c3d": 1.1, "snoopy": 0.85},
}


def test_flatten_series():
    rows = flatten_series(SERIES)
    assert rows[0]["row"] == "streamcluster"
    assert rows[0]["c3d"] == 1.5
    assert len(rows) == 2


def test_export_series_csv(tmp_path):
    path = export_series_csv(SERIES, tmp_path / "fig6.csv")
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["row"] == "streamcluster"
    assert float(rows[1]["snoopy"]) == 0.85
    assert set(rows[0]) == {"row", "c3d", "snoopy"}
