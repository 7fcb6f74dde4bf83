"""Plain-text reporting: ASCII charts, tables, markdown."""

from .ascii_plot import ascii_chart, sparkline
from .markdown import figure_result_markdown, markdown_table
from .tables import format_table

__all__ = [
    "ascii_chart",
    "figure_result_markdown",
    "markdown_table",
    "sparkline",
    "format_table",
]
