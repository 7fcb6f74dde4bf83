"""ASCII line charts.

The offline environment has no plotting library, so the figures
render their series as compact ASCII charts (plus CSV-ready tables via
:mod:`repro.reporting.tables`).  Charts are deliberately simple: one
character per series, last-writer-wins on collisions, linear axes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

_MARKERS = "ox+*#@%&"


def ascii_chart(
    series: Dict[str, Sequence[float]],
    width: int = 64,
    height: int = 14,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render named series as a multi-line ASCII chart.

    Parameters
    ----------
    series:
        Mapping of label -> y-values (x is the index).  Series may have
        different lengths.
    width, height:
        Plot-area size in characters.
    title, y_label:
        Optional annotations.

    Returns
    -------
    str
        The rendered chart, ending with a legend line.
    """
    if not series:
        raise ValueError("no series to plot")
    all_values = [v for ys in series.values() for v in ys if v is not None]
    if not all_values:
        raise ValueError("all series are empty")
    y_min = min(all_values)
    y_max = max(all_values)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_max = max(len(ys) for ys in series.values())

    grid = [[" "] * width for _ in range(height)]
    for (label, ys), marker in zip(series.items(), _MARKERS):
        for x_idx, value in enumerate(ys):
            if value is None:
                continue
            col = int((x_idx / max(x_max - 1, 1)) * (width - 1))
            row = int((1.0 - (value - y_min) / (y_max - y_min)) * (height - 1))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_max:.4g}"
    bottom_label = f"{y_min:.4g}"
    pad = max(len(top_label), len(bottom_label))
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            prefix = top_label.rjust(pad)
        elif row_idx == height - 1:
            prefix = bottom_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}|")
    lines.append(" " * pad + " +" + "-" * width + "+")
    lines.append(
        " " * pad
        + f"  rounds 0..{x_max - 1}"
        + (f"   ({y_label})" if y_label else "")
    )
    legend = "   ".join(
        f"{marker}={label}" for (label, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(" " * pad + "  " + legend)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """One-line unicode sparkline of a series (downsampled to ``width``)."""
    blocks = "▁▂▃▄▅▆▇█"
    values = [v for v in values if v is not None]
    if not values:
        return ""
    if width is not None and len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(
        blocks[min(int((v - lo) / span * (len(blocks) - 1)), len(blocks) - 1)]
        for v in values
    )
