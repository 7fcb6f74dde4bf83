"""Pluggable telemetry sinks: where emitted events go.

All sinks consume the flat event dicts of :mod:`repro.telemetry.events`:

* :class:`InMemorySink` — append to a list; the test/reporting backend.
* :class:`JSONLSink` — one JSON object per line; the run-artifact backend
  (the manifest event is the file's header line).
* :class:`ConsoleSink` — throttled human-readable progress lines.

Sinks are deliberately tiny: ``emit`` one event, ``flush`` buffers,
``close`` exactly once (``close`` is idempotent for every built-in sink,
which is what makes :meth:`repro.core.server.FederatedTrainer.close`
idempotent in turn).
"""

from __future__ import annotations

import abc
import json
import os
import sys
import time
import warnings
from typing import Any, Callable, Dict, List, Optional

#: Event types whose arrival marks a round (or run) boundary — the
#: crash-safety flush points for durable sinks.
_ROUND_BOUNDARY_TYPES = ("round_record", "run_footer")


class Sink(abc.ABC):
    """Consumer of telemetry events."""

    @abc.abstractmethod
    def emit(self, event: Dict[str, Any]) -> None:
        """Consume one event dict (must not mutate it)."""

    def flush(self) -> None:
        """Push any buffered events to the backing store."""

    def close(self) -> None:
        """Flush and release resources; must be idempotent."""


class InMemorySink(Sink):
    """Collect events in a list — the testing and reporting backend."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.flush_count = 0
        self.close_count = 0

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def flush(self) -> None:
        self.flush_count += 1

    def close(self) -> None:
        if self.close_count == 0:
            self.flush()
        self.close_count += 1

    # Query helpers (used by tests and the bench harness) ----------------- #
    def of_type(self, event_type: str) -> List[Dict[str, Any]]:
        """All events of one ``type`` (``manifest``/``span``/``metric``)."""
        return [e for e in self.events if e.get("type") == event_type]

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All span events, optionally filtered by span name."""
        spans = self.of_type("span")
        if name is None:
            return spans
        return [e for e in spans if e.get("name") == name]

    def metrics(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All metric events, optionally filtered by metric name."""
        metrics = self.of_type("metric")
        if name is None:
            return metrics
        return [e for e in metrics if e.get("name") == name]

    def rounds(self) -> List[int]:
        """Sorted distinct round indices that produced a ``round`` span."""
        return sorted(
            {e["round"] for e in self.spans("round") if e["round"] is not None}
        )


def _json_default(obj: Any) -> Any:
    """Serialize NumPy scalars/arrays that leak into event attributes."""
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


#: What ``json.dumps(event, default=_json_default)`` builds anew on every
#: call; one encoder writes the same bytes for every event of every sink.
_ENCODER = json.JSONEncoder(default=_json_default)


class JSONLSink(Sink):
    """Write one run's events, one JSON object per line — the run ledger.

    The sink writes to ``<path>.part`` and renames it onto ``path`` at
    close, so ``path`` either holds a finished ledger or does not exist.
    Every round-boundary event (``round_record``, ``run_footer``, and the
    ``round`` span) forces an OS-level flush, so a crashed run's ``.part``
    file holds every event up to its last finished round — and the record
    of every round before that one, since records are written one round
    behind (:class:`~repro.telemetry.ledger.RunLedger`) — with at most one
    partial trailing line (which :func:`read_jsonl` tolerates and
    reports).

    Parameters
    ----------
    path:
        The ledger's path.  The ``.part`` file is opened lazily on the
        first emit, so a sink that never sees events leaves no file.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.write_path = self.path + ".part"
        self._fh = None
        self._closed = False

    def emit(self, event: Dict[str, Any]) -> None:
        if self._closed:
            raise ValueError(f"JSONLSink({self.path!r}) is closed")
        if self._fh is None:
            self._fh = open(self.write_path, "w")
        self._fh.write(_ENCODER.encode(event))
        self._fh.write("\n")
        if event.get("type") in _ROUND_BOUNDARY_TYPES or (
            event.get("type") == "span" and event.get("name") == "round"
        ):
            self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            os.replace(self.write_path, self.path)


def read_jsonl(path: str, strict: bool = False) -> List[Dict[str, Any]]:
    """Load a JSONL artifact back into event dicts (blank lines skipped).

    A malformed *final* line is the signature of a crashed writer (the
    process died mid-``write``); by default it is dropped with a
    :class:`RuntimeWarning` naming the line number, so post-mortem
    analysis of a crashed run still sees every complete event.  Malformed
    lines anywhere else — or any malformed line under ``strict=True`` —
    raise ``ValueError`` with the offending line number.
    """
    events = []
    bad: Optional[tuple] = None  # (line_number, message) of a parse failure
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if bad is not None:
                # The earlier failure was mid-file: real corruption.
                raise ValueError(
                    f"{path}:{bad[0]}: malformed JSONL line ({bad[1]})"
                )
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                bad = (lineno, str(exc))
    if bad is not None:
        if strict:
            raise ValueError(
                f"{path}:{bad[0]}: malformed JSONL line ({bad[1]})"
            )
        warnings.warn(
            f"{path}:{bad[0]}: dropping truncated final line "
            f"(crashed writer?): {bad[1]}",
            RuntimeWarning,
            stacklevel=2,
        )
    return events


class ConsoleSink(Sink):
    """Throttled one-line-per-event console progress.

    Span/metric events are rate-limited to one line per ``min_interval``
    seconds, so a 1000-round run does not flood the terminal while short
    runs still show every round.  Manifests and run footers bypass the
    throttle, and the last suppressed event is held back and printed at
    the footer / on ``flush`` / on ``close`` — so the *final* round of a
    short run is never silently swallowed by the rate limit.
    """

    def __init__(
        self,
        min_interval: float = 0.5,
        stream=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if min_interval < 0:
            raise ValueError("min_interval must be non-negative")
        self.min_interval = float(min_interval)
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._last_print = -float("inf")
        self._pending: Optional[Dict[str, Any]] = None
        self.lines_printed = 0
        self.events_seen = 0

    def _format(self, event: Dict[str, Any]) -> str:
        etype = event.get("type")
        if etype == "manifest":
            return (
                f"[telemetry] run {event.get('run_id')} "
                f"{event.get('label')!r} executor={event.get('executor')}"
            )
        if etype == "run_footer":
            digest = event.get("digest") or ""
            loss = event.get("final_train_loss")
            acc = event.get("final_test_accuracy")
            parts = [
                f"[telemetry] run {event.get('run_id')} finished:",
                f"{event.get('rounds')} rounds",
                f"in {event.get('wall_seconds'):.4g}s",
            ]
            if loss is not None:
                parts.append(f"loss={loss:.6g}")
            if acc is not None:
                parts.append(f"acc={acc:.4g}")
            if digest:
                parts.append(f"digest={digest[:12]}…")
            return " ".join(parts)
        round_part = (
            f" r{event['round']}" if event.get("round") is not None else ""
        )
        if etype == "round_record":
            record = event.get("record") or {}
            loss = record.get("train_loss")
            acc = record.get("test_accuracy")
            loss_part = "-" if loss is None else f"{loss:.6g}"
            acc_part = "-" if acc is None else f"{acc:.4g}"
            return (
                f"[telemetry]{round_part} record loss={loss_part} "
                f"acc={acc_part} clients={len(record.get('selected') or [])}"
            )
        if etype == "span":
            return (
                f"[telemetry]{round_part} span {event.get('name')} "
                f"{event.get('duration'):.6g}{event.get('unit')}"
            )
        value = event.get("value", event.get("mean"))
        return (
            f"[telemetry]{round_part} {event.get('kind')} "
            f"{event.get('name')} = {value}"
        )

    def _print(self, event: Dict[str, Any]) -> None:
        print(self._format(event), file=self.stream)
        self.lines_printed += 1

    def _flush_pending(self) -> None:
        if self._pending is not None:
            self._print(self._pending)
            self._pending = None

    def emit(self, event: Dict[str, Any]) -> None:
        self.events_seen += 1
        etype = event.get("type")
        now = self._clock()
        if etype not in ("manifest", "run_footer"):
            if now - self._last_print < self.min_interval:
                self._pending = event  # newest suppressed event wins
                return
            self._pending = None  # this newer event supersedes it
            self._last_print = now
            self._print(event)
            return
        if etype == "run_footer":
            self._flush_pending()  # the final round, throttled until now
        self._last_print = now
        self._print(event)

    def flush(self) -> None:
        self._flush_pending()

    def close(self) -> None:
        self._flush_pending()
