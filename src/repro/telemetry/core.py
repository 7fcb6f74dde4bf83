"""The telemetry façade: spans, metrics, and the null default.

:class:`Telemetry` is the object threaded through the trainer, the round
executors, and the evaluator.  It owns a set of sinks and offers three
emission primitives:

* :meth:`Telemetry.span` — a reusable context manager timing a region on
  the monotonic clock and emitting a ``span`` event on exit.
* :meth:`Telemetry.record_span` — emit a span whose duration was measured
  elsewhere (worker-side payloads that crossed the process boundary, or
  simulated-clock conversions).
* :meth:`Telemetry.metric` / :meth:`Telemetry.histogram` — point
  measurements and distribution summaries.

:class:`NullTelemetry` is the default everywhere.  Every method is a
no-op returning shared singletons, so instrumented code pays a few
attribute lookups per round and nothing else — the
``telemetry.null_span_ns`` probe of ``bench/run.py`` measures the cost of
one disabled span, and the integration tests assert histories are
bit-identical with telemetry on, off, or absent.
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Dict, Iterable, Optional, Sequence

from .events import (
    CLOCK_WALL,
    UNIT_SECONDS,
    manifest_event,
    metric_event,
    round_record_event,
    run_footer_event,
    span_event,
    summarize,
)
from .sinks import Sink


class Span:
    """A timed region: enters at ``perf_counter``, emits on exit.

    Spans are handed out by :meth:`Telemetry.span`; they are cheap
    throwaway objects (one per region) so nesting and exceptions behave
    like any context manager — the event is emitted even when the body
    raises, with the exception propagating.
    """

    __slots__ = ("_telemetry", "name", "round_idx", "attrs", "_t0")

    def __init__(
        self,
        telemetry: "Telemetry",
        name: str,
        round_idx: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self._telemetry = telemetry
        self.name = name
        self.round_idx = round_idx
        self.attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        self._telemetry.record_span(
            self.name, duration, round_idx=self.round_idx, **self.attrs
        )
        return False


class _NullSpan:
    """Shared no-op span; one instance serves every disabled call site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Active instrumentation: fan events out to the configured sinks.

    Parameters
    ----------
    sinks:
        Event consumers (see :mod:`repro.telemetry.sinks`).  The telemetry
        object owns them: :meth:`close` closes every sink exactly once.
    run_id:
        Identifier stamped on the manifest; a fresh UUID fragment when
        omitted.
    """

    enabled = True

    def __init__(
        self, sinks: Iterable[Sink], run_id: Optional[str] = None
    ) -> None:
        self.sinks = list(sinks)
        if not self.sinks:
            raise ValueError("Telemetry requires at least one sink")
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self._origin = time.perf_counter()
        self._closed = False

    # Emission ------------------------------------------------------------ #
    def _now(self) -> float:
        """Seconds since this telemetry object was created (monotonic)."""
        return time.perf_counter() - self._origin

    def emit(self, event: Dict[str, Any]) -> None:
        """Send one already-built event to every sink."""
        for sink in self.sinks:
            sink.emit(event)

    def manifest(
        self,
        label: str,
        seed: int,
        executor: str,
        eval_mode: str,
        config: Dict[str, Any],
        **extra: Any,
    ) -> None:
        """Emit the run-header event (config + seed + executor mode).

        ``extra`` carries the schema-2 ledger sections when the emitter
        provides them (``trainer_config``, ``recipe``, ``environment``).
        """
        self.emit(
            manifest_event(
                run_id=self.run_id,
                label=label,
                seed=seed,
                executor=executor,
                eval_mode=eval_mode,
                config=config,
                ts=self._now(),
                **extra,
            )
        )

    def round_record(self, round_idx: int, record: Dict[str, Any]) -> None:
        """Emit one completed round's canonical history record."""
        self.emit(round_record_event(round_idx, record, ts=self._now()))

    def run_footer(
        self,
        rounds: int,
        wall_seconds: float,
        digest: str,
        algorithm: str,
        **fields: Any,
    ) -> None:
        """Emit the run's final event (totals + streaming history digest)."""
        self.emit(
            run_footer_event(
                run_id=self.run_id,
                rounds=rounds,
                wall_seconds=wall_seconds,
                digest=digest,
                algorithm=algorithm,
                ts=self._now(),
                **fields,
            )
        )

    def span(
        self, name: str, round_idx: Optional[int] = None, **attrs: Any
    ) -> Span:
        """A context manager timing a region on the monotonic clock."""
        return Span(self, name, round_idx, attrs)

    def record_span(
        self,
        name: str,
        duration: float,
        round_idx: Optional[int] = None,
        clock: str = CLOCK_WALL,
        unit: str = UNIT_SECONDS,
        **attrs: Any,
    ) -> None:
        """Emit a span whose duration was measured elsewhere.

        Used for worker-side timing payloads piggybacked on
        :class:`~repro.core.client.ClientUpdate` (so parallel-executor
        spans survive the process boundary) and for simulated-clock
        timeline conversions (``clock="simulated"``, ``unit="cycles"``).
        """
        self.emit(
            span_event(
                name,
                duration,
                round_idx=round_idx,
                clock=clock,
                unit=unit,
                ts=self._now(),
                **attrs,
            )
        )

    def metric(
        self,
        name: str,
        value: float,
        round_idx: Optional[int] = None,
        kind: str = "gauge",
        **attrs: Any,
    ) -> None:
        """Emit one counter/gauge measurement."""
        self.emit(
            metric_event(
                name,
                kind,
                round_idx=round_idx,
                ts=self._now(),
                value=float(value),
                **attrs,
            )
        )

    def histogram(
        self,
        name: str,
        values: Sequence[float],
        round_idx: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Emit a distribution summary (count/min/max/mean/p50/p90)."""
        self.emit(
            metric_event(
                name,
                "histogram",
                round_idx=round_idx,
                ts=self._now(),
                **summarize(values),
                **attrs,
            )
        )

    # Lifecycle ------------------------------------------------------------ #
    def flush(self) -> None:
        """Flush every sink's buffers."""
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Flush and close every sink exactly once; idempotent."""
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class NullTelemetry:
    """The disabled default: every operation is a no-op.

    Not a :class:`Telemetry` subclass on purpose — there is no sink list
    to mis-handle and nothing to close.  All call sites use the same
    shared :data:`NULL_TELEMETRY` instance and the same shared null span,
    so the per-call overhead is one attribute lookup plus an empty method.
    """

    enabled = False
    run_id = "null"
    sinks: tuple = ()

    def emit(self, event: Dict[str, Any]) -> None:
        pass

    def manifest(self, *args: Any, **kwargs: Any) -> None:
        pass

    def round_record(self, *args: Any, **kwargs: Any) -> None:
        pass

    def run_footer(self, *args: Any, **kwargs: Any) -> None:
        pass

    def span(self, name: str, round_idx: Optional[int] = None, **attrs: Any):
        return _NULL_SPAN

    def record_span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def metric(self, *args: Any, **kwargs: Any) -> None:
        pass

    def histogram(self, *args: Any, **kwargs: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared disabled-telemetry instance; use this instead of constructing.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(telemetry) -> "Telemetry":
    """Normalize an optional telemetry argument to a usable object.

    ``None`` resolves to the shared :data:`NULL_TELEMETRY`; anything else
    must quack like :class:`Telemetry` (``span``/``metric``/``enabled``).
    """
    if telemetry is None:
        return NULL_TELEMETRY
    if not hasattr(telemetry, "span") or not hasattr(telemetry, "enabled"):
        raise TypeError(
            f"telemetry must be a Telemetry/NullTelemetry instance or None, "
            f"got {type(telemetry).__name__}"
        )
    return telemetry
