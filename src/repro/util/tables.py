"""Plain-text table rendering for benchmark reports.

The benchmark harness regenerates the paper's figures and tables as aligned
ASCII tables (one per table/figure).  This renderer is deliberately small:
left-aligned first column, right-aligned numeric columns, a rule under the
header — enough to diff two runs by eye.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table"]


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[_cell(v) for v in row] for row in rows]
    ncols = len(headers)
    for row in cells:
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} cells, expected {ncols}")
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells else len(headers[c])
        for c in range(ncols)
    ]

    def fmt_row(row: Sequence[str]) -> str:
        parts = [row[0].ljust(widths[0])]
        parts += [row[c].rjust(widths[c]) for c in range(1, ncols)]
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in cells)
    return "\n".join(lines)
