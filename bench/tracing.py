"""Span tracing for the traced pass, recorded from the benchmark's side.

Nothing under ``src/`` knows about this file.  A :class:`Tracer` wraps the
public method at each layer boundary — on the collaborator *instance* the
trainer is handed (sampling, systems, executor, store, sink) or, where the
trainer builds the object itself, on the *class* for the duration of the
traced pass — and records one span per call: name, start, end, parent span
and round id.  Spans stay in memory; :func:`layer_metrics` reduces them
once the run has ended.  Self time is a span's duration minus its direct
children, so per-layer self times tile the round span exactly.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROUND = "core.round"

#: span name -> reported per-layer metric (mean self time per round, ms).
LAYER_MS = {
    "core.select": "core.select_ms",
    "core.aggregate": "core.aggregate_ms",
    ROUND: "core.glue_ms",
    "systems.assign": "systems.assign_ms",
    "runtime.solve": "runtime.solve_ms",
    "runtime.eval": "runtime.eval_ms",
    "datasets.store_get": "datasets.store_get_ms",
    "comms.encode": "comms.encode_ms",
    "comms.decode": "comms.decode_ms",
    "comms.finalize": "comms.finalize_ms",
    "faults.execute": "faults.execute_self_ms",
    "telemetry.emit": "telemetry.emit_ms",
}


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, round id or None]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.round_id: Optional[int] = None
        self._open: List[int] = []
        self._restore: List[tuple] = []

    def traced(self, name: str, fn: Callable, count: Optional[Callable] = None):
        """``fn`` wrapped in a span; ``count(tracer, args, result)`` books counts."""
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(
                [name, perf_counter(), 0.0, open_[-1] if open_ else -1, self.round_id]
            )
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = perf_counter()
            if count is not None and self.round_id is not None:
                count(self, args, result)
            return result

        return wrapper

    def wrap(self, owner, method: str, name: str, count=None) -> None:
        """Trace ``owner.method``; a class owner is restored by :meth:`unwrap`."""
        if isinstance(owner, type):
            original = owner.__dict__[method]
            self._restore.append((owner, method, original))
        else:
            original = getattr(owner, method)
        setattr(owner, method, self.traced(name, original, count))

    def unwrap(self) -> None:
        """Undo every class-level wrap."""
        while self._restore:
            owner, method, original = self._restore.pop()
            setattr(owner, method, original)


def _count_solve(tracer, args, result):
    tracer.counts["tasks_dispatched"] += len(args[-1])
    tracer.counts["updates_returned"] += len(result)


def _count_store_get(tracer, args, result):
    tracer.counts["store_get_calls"] += 1


def _count_emit(tracer, args, result):
    tracer.counts["telemetry_events"] += 1


def instrument(tracer: Tracer, trainer) -> None:
    """Wrap every layer boundary of a built trainer.

    The collaborators the trainer exposes (``sampling``, ``systems``,
    ``executor``, the dataset's store, the telemetry sinks) are wrapped on
    the instance, so the traced trainer runs the very objects an untraced
    one does; the objects it keeps private (codec, comms manager, sampled
    evaluator, fault manager) are wrapped on their class until
    :meth:`Tracer.unwrap`.
    """
    from repro.comms.codecs import Codec
    from repro.comms.manager import CommsManager
    from repro.faults.manager import FaultManager
    from repro.runtime.sampled import SampledEvaluator

    tracer.wrap(trainer.sampling, "select", "core.select")
    tracer.wrap(trainer.sampling, "aggregate", "core.aggregate")
    tracer.wrap(trainer.systems, "assign", "systems.assign")
    tracer.wrap(trainer.executor, "run_local_solves", "runtime.solve", _count_solve)
    for method in ("train_loss", "test_accuracy"):
        tracer.wrap(trainer.executor, method, "runtime.eval")
        tracer.wrap(SampledEvaluator, method, "runtime.eval")
    tracer.wrap(trainer.dataset.store, "get", "datasets.store_get", _count_store_get)
    for codec in Codec.__subclasses__():
        if "encode_delta" in codec.__dict__:
            tracer.wrap(codec, "encode_delta", "comms.encode")
            tracer.wrap(codec, "decode_delta", "comms.decode")
    tracer.wrap(CommsManager, "finalize_round", "comms.finalize")
    tracer.wrap(FaultManager, "execute_round", "faults.execute")
    for sink in getattr(trainer.telemetry, "sinks", ()):
        tracer.wrap(sink, "emit", "telemetry.emit", _count_emit)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, rounds: int, scale: float) -> Dict[str, float]:
    """Per-layer self time per round (ms) plus the round-time percentiles.

    Layer times are means over the timed rounds — totals divided by the
    round count — so they tile ``mean round time`` exactly and a layer
    that only runs every n-th round (evaluation) is not reported as 0.
    ``scale`` converts the spans' wall time to the run's calibrated clock.
    """
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span[4] is not None:
            totals[span[0]] += own
    out = {
        metric: 1e3 * scale * totals[name] / rounds
        for name, metric in LAYER_MS.items()
    }
    round_ms = [
        1e3 * scale * (end - start)
        for name, start, end, _, rid in tracer.spans
        if name == ROUND and rid is not None
    ]
    out["core.round_ms_p50"] = statistics.median(round_ms)
    out["core.round_ms_p90"] = statistics.quantiles(round_ms, n=10)[-1]
    return out


def tiling_report(tracer: Tracer) -> Dict[str, float]:
    """How well the spans of each round nest under, and tile, its round span.

    ``orphans`` counts spans that carry a round id but do not sit inside a
    span with the same id; ``max_error`` is the largest relative gap, over
    rounds, between the round span and the self times recorded under its id
    (zero when every span of the round descends from the round span).
    """
    spans = tracer.spans
    orphans = 0
    for name, start, end, parent, rid in spans:
        if rid is None or name == ROUND:
            continue
        inside = parent >= 0 and spans[parent][4] == rid
        if not (inside and spans[parent][1] <= start and end <= spans[parent][2]):
            orphans += 1
    covered: Dict[int, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span[4] is not None:
            covered[span[4]] += own
    errors = [
        abs(covered[rid] - (end - start)) / (end - start)
        for name, start, end, _, rid in spans
        if name == ROUND and rid is not None
    ]
    return {"rounds": len(errors), "orphans": orphans, "max_error": max(errors)}
