"""Plain-text reporting: ASCII charts and tables."""

from .ascii_plot import ascii_chart, sparkline
from .tables import format_table

__all__ = [
    "ascii_chart",
    "sparkline",
    "format_table",
]
