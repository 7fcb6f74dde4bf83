"""Process memory probe backing the RSS gauges.

Dependency-free (the stdlib ``resource`` module); returns ``None`` where
the underlying source is unavailable, so callers can gate their gauges
instead of crashing on exotic platforms.
"""

from __future__ import annotations

import sys
from typing import Optional

try:  # pragma: no cover - always present on the supported platforms
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None


def peak_rss_bytes() -> Optional[int]:
    """The process's lifetime peak resident set size, in bytes.

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux and in bytes on
    macOS; both are normalized to bytes here.  Monotonic over the process
    lifetime — useful as a per-run bound, not a per-phase delta.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024
