"""Export helpers: persist experiment results as CSV.

The experiment modules return plain nested dictionaries
(``{row: {column: value}}`` series or ``{name: value}`` tables).  These
helpers write them to disk in a format that plotting scripts and
spreadsheets can consume.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Union

__all__ = [
    "export_series_csv",
    "export_table_csv",
    "flatten_series",
]

PathLike = Union[str, Path]


def flatten_series(series: Mapping[str, Mapping[str, float]]) -> list:
    """Flatten a ``{row: {column: value}}`` series into a list of dict rows."""
    flattened = []
    for row_name, columns in series.items():
        record = {"row": row_name}
        record.update(columns)
        flattened.append(record)
    return flattened


def export_table_csv(
    table: Mapping[str, float], path: PathLike, *, value_header: str = "value"
) -> Path:
    """Write a flat ``{name: value}`` table to a two-column CSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", value_header])
        for name, value in table.items():
            writer.writerow([name, value])
    return path


def export_series_csv(series: Mapping[str, Mapping[str, float]], path: PathLike) -> Path:
    """Write a ``{row: {column: value}}`` series to a CSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = flatten_series(series)
    fieldnames = ["row"]
    for record in rows:
        for key in record:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return path
