"""Report formatting used by the experiments, ``repro report`` and examples.

The experiment harness prints the same rows/series the paper reports; these
helpers keep that formatting in one place (simple fixed-width text tables
plus GitHub-flavoured Markdown equivalents, no external dependencies).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_series",
    "format_markdown_table",
    "series_to_markdown",
    "geometric_mean",
]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a fixed-width text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_line([str(h) for h in headers]))
    lines.append(render_line(["-" * w for w in widths]))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series(series: Mapping[str, Mapping[str, float]], *, title: Optional[str] = None,
                  float_format: str = "{:.3f}") -> str:
    """Render a {row -> {column -> value}} mapping as a table."""
    columns: List[str] = []
    for values in series.values():
        for column in values:
            if column not in columns:
                columns.append(column)
    headers = ["workload"] + columns
    rows = []
    for row_name, values in series.items():
        rows.append([row_name] + [values.get(column, float("nan")) for column in columns])
    return format_table(headers, rows, title=title, float_format=float_format)


def format_markdown_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Render a GitHub-flavoured Markdown table (used by ``repro report``)."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell).replace("|", "\\|")

    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(render(cell) for cell in row) + " |")
    return "\n".join(lines)


def series_to_markdown(
    series: Mapping[str, Mapping[str, float]],
    *,
    row_header: str = "workload",
    float_format: str = "{:.3f}",
) -> str:
    """Render a {row -> {column -> value}} mapping as a Markdown table."""
    columns: List[str] = []
    for values in series.values():
        for column in values:
            if column not in columns:
                columns.append(column)
    rows = [
        [row_name] + [values.get(column, float("nan")) for column in columns]
        for row_name, values in series.items()
    ]
    return format_markdown_table(
        [row_header] + columns, rows, float_format=float_format
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (ignores non-positive values, returns 0.0 if none valid)."""
    import math

    usable = [value for value in values if value > 0]
    if not usable:
        return 0.0
    return math.exp(sum(math.log(value) for value in usable) / len(usable))
