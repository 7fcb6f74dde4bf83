"""Plain-text reporting: ASCII charts and tables."""

from .. import _lazy

_lazy.attach(globals(), {
    ".ascii_plot": ("ascii_chart", "sparkline"),
    ".tables": ("format_table",),
})
