"""Plain-text table formatting for experiment output."""

from __future__ import annotations

from typing import Dict, Sequence


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render dict rows as an aligned plain-text table.

    All rows should share the first row's keys; missing values render
    empty.  Floats are shown with four significant digits.
    """
    if not rows:
        return title or "(empty table)"
    columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    rendered = [[fmt(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines)
