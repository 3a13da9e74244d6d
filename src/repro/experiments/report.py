"""Plain-text rendering of experiment results.

The benchmarks print the same rows/series the paper's figures plot; these
helpers format them as aligned ASCII tables so the console output of
``pytest benchmarks/ --benchmark-only`` doubles as the data behind
``docs/reproducing.md``.
"""

from __future__ import annotations

from typing import Sequence


def _format_cell(value: float, *, precision: int = 3) -> str:
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.{precision}f}"


def render_table(
    rows: Sequence[dict[str, float]],
    *,
    title: str = "",
    precision: int = 3,
) -> str:
    """Render a list of homogeneous dict rows as an aligned ASCII table."""
    if not rows:
        return title
    columns = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != columns:
            raise ValueError("all rows must share the same columns, in the same order")
    rendered_rows = [
        [_format_cell(float(row[column]), precision=precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(column), *(len(rendered[i]) for rendered in rendered_rows))
        for i, column in enumerate(columns)
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    header = "  ".join(column.rjust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(rendered)))
    return "\n".join(lines)


def render_series_table(
    x_label: str,
    x_values: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    title: str = "",
    precision: int = 3,
) -> str:
    """Render named series sharing one x-axis (the shape of Figures 1–3, 5, 6)."""
    lengths = {name: len(values) for name, values in series.items()}
    if any(length != len(x_values) for length in lengths.values()):
        raise ValueError(
            f"series lengths {lengths} do not all match the x-axis length {len(x_values)}"
        )
    rows = []
    for index, x in enumerate(x_values):
        row: dict[str, float] = {x_label: float(x)}
        for name, values in series.items():
            row[name] = float(values[index])
        rows.append(row)
    return render_table(rows, title=title, precision=precision)


def render_hit_rate_table(
    cluster_counts: Sequence[int],
    hit_counts: dict[str, Sequence[int]],
    *,
    iterations: int,
    title: str = "Hit rate",
) -> str:
    """Render hit counts in the style of Figure 4 (counts out of N iterations)."""
    rows = []
    for index, count in enumerate(cluster_counts):
        row: dict[str, float] = {"clusters": float(count)}
        for name, counts in hit_counts.items():
            row[name] = float(counts[index])
        rows.append(row)
    return render_table(
        rows, title=f"{title} (out of {iterations} iterations)", precision=0
    )
