"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows / series the paper's tables and
figures report, so a reader can compare shapes (who wins, by how much,
where the crossovers fall) without a plotting stack.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

import numpy as np


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as a fixed-width text table."""
    headers = [str(h) for h in headers]
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series_table(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[float],
    x_label: str = "exploration_time",
    value_format: str = "{:.3f}",
) -> str:
    """Render {name: values} series sampled at shared x points."""
    headers = [x_label] + list(series.keys())
    rows: List[List] = []
    for i, x in enumerate(x_values):
        row: List = [value_format.format(float(x))]
        for name in series:
            values = series[name]
            row.append(value_format.format(float(values[i])) if i < len(values) else "")
        rows.append(row)
    return format_table(headers, rows)


def _fmt(cell) -> str:
    if isinstance(cell, float) or isinstance(cell, np.floating):
        if abs(cell) >= 1000 or (cell != 0 and abs(cell) < 0.01):
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)
