"""Telemetry event schema: the one wire format every sink receives.

Every event is a flat JSON-serializable ``dict`` with a ``type`` field
(``"manifest"``, ``"span"``, ``"metric"``, ``"round_record"``, or
``"run_footer"``) plus the type's fields below.  The schema is shared by
*all* emitters — the trainer's wall-clock spans, worker-side timing
payloads reconstructed after the process boundary, the cohort executor's
stacked-kernel phase splits, and simulated-time conversions of
:class:`repro.systems.trace.RoundTimeline` — so one sink (or one JSONL
file) can hold a whole run regardless of which executor produced it.

Schema versions
---------------
Version 2 (current) adds the run-ledger events: the manifest gains
``trainer_config`` (the serialized frozen
:class:`~repro.core.config.TrainerConfig`), ``recipe`` (reconstructible
dataset/model/solver descriptors), and ``environment`` (package version,
git SHA, platform/CPU info); every round additionally emits a
``round_record`` event, and the run ends with a ``run_footer`` carrying a
streaming SHA-256 digest over the canonicalized round history (see
:mod:`repro.telemetry.ledger`).  It is the only version the readers
accept: :func:`repro.telemetry.ledger.verify_artifact` reports any other
as an "unsupported schema version" issue.

Field reference
---------------
``manifest`` (exactly one per run, always the first event)
    ``schema`` (int), ``run_id`` (str), ``label``, ``seed``, ``executor``,
    ``eval_mode``, ``clock``, ``unit``, ``config`` (nested dict of the
    run's configuration: µ, E, K, solver tags, model, dataset).  Schema 2
    ledger manifests additionally carry ``trainer_config``, ``recipe``,
    and ``environment``.
``span`` (one timed region)
    ``name`` (taxonomy below), ``round`` (int or ``None``), ``duration``
    (float), ``unit`` (``"s"`` wall / ``"cycles"`` simulated), ``clock``
    (``"wall"`` / ``"simulated"``), ``ts`` (emission offset from run
    start, wall seconds), plus free-form scalar attributes.
``metric`` (one measurement)
    ``name``, ``round``, ``kind`` (``"counter"`` | ``"gauge"`` |
    ``"histogram"``), ``ts``; counters/gauges carry ``value``; histograms
    carry ``count``/``min``/``max``/``mean``/``p50``/``p90``/``p95``/
    ``p99``.
``round_record`` (schema 2; one per completed round)
    ``round`` (int), ``record`` (the round's canonicalized
    :class:`~repro.core.history.RoundRecord` — selections, stragglers,
    losses; see :func:`repro.telemetry.ledger.canonical_record`), ``ts``.
``run_footer`` (schema 2; the run's final event)
    ``run_id``, ``rounds`` (int), ``wall_seconds`` (total in-round wall
    time), ``final_train_loss``, ``final_test_accuracy``, ``digest``
    (streaming SHA-256 over the canonical round history), ``algorithm``
    (digest algorithm tag), ``ts``.  A JSONL artifact without its footer
    is, by construction, evidence of truncation or a crash.

Span taxonomy
-------------
``round``
    One full communication round (selection through evaluation).
``phase:select`` / ``phase:local_solve`` / ``phase:aggregate`` /
``phase:evaluate``
    The round lifecycle phases; their durations tile the ``round`` span.
``phase:final_evaluate``
    The trainer's fill-in evaluation after early stopping.
``solve:client``
    One device's local solve (serial in-process, or reconstructed from a
    worker's piggybacked timing payload; carries ``client_id``).
``cohort:plan`` / ``cohort:pack`` / ``cohort:kernel`` / ``cohort:finalize``
    The stacked cohort solve's internal phase splits.
``eval:train_loss`` / ``eval:test_accuracy``
    Individual evaluator oracle calls.
``sim:round`` / ``sim:download`` / ``sim:compute`` / ``sim:upload``
    Simulated global-clock timeline spans (``clock="simulated"``,
    ``unit="cycles"``), converted via :mod:`repro.telemetry.simtime`.

Fault event taxonomy
--------------------
The fault layer (:mod:`repro.faults`) emits its decisions as ``counter``
metrics with value 1 the moment they happen, so fault timelines
interleave with the spans above in the same artifact:

``fault:injected``
    The schedule struck one solve; attrs ``client_id``, ``fault``
    (``crash``/``dropout``/``corrupt``/``stale``), ``attempt`` (0 =
    first dispatch, ``n`` = n-th retry).
``fault:retry``
    The policy re-dispatched a crashed solve; attrs ``client_id``,
    ``attempt`` (1-based), ``backoff`` (simulated seconds, never slept).
``fault:quarantine``
    A non-finite update was rejected; attrs ``client_id``, ``suspicion``
    (the client's cumulative offense count).
``round:degraded``
    The minimum-quorum guard skipped aggregation; attrs ``survivors``,
    ``quorum``.

When injection is enabled the manifest ``config`` additionally carries
``faults`` (the schedule's description) and ``fault_policy``;
cumulative ``faults.*`` gauges summarize the run's counters each round.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Version stamp written into every manifest; bump on breaking changes.
SCHEMA_VERSION = 2

#: Clock domains events may come from.
CLOCK_WALL = "wall"
CLOCK_SIMULATED = "simulated"

#: Duration units matching the clock domains.
UNIT_SECONDS = "s"
UNIT_CYCLES = "cycles"

EVENT_TYPES = ("manifest", "span", "metric", "round_record", "run_footer")
METRIC_KINDS = ("counter", "gauge", "histogram")


def manifest_event(
    run_id: str,
    label: str,
    seed: int,
    executor: str,
    eval_mode: str,
    config: Dict[str, Any],
    ts: float = 0.0,
    **extra: Any,
) -> Dict[str, Any]:
    """The run-header event (config + seed + executor mode).

    ``extra`` carries the schema-2 ledger fields when the emitter provides
    them — ``trainer_config`` (serialized frozen TrainerConfig), ``recipe``
    (dataset/model/solver reconstruction descriptors), ``environment``
    (package/platform provenance).
    """
    event = {
        "type": "manifest",
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "label": label,
        "seed": int(seed),
        "executor": executor,
        "eval_mode": eval_mode,
        "clock": CLOCK_WALL,
        "unit": UNIT_SECONDS,
        "ts": float(ts),
        "config": config,
    }
    event.update(extra)
    return event


def round_record_event(
    round_idx: int, record: Dict[str, Any], ts: float = 0.0
) -> Dict[str, Any]:
    """One completed round's canonical history record (schema 2).

    ``record`` must already be canonical (see
    :func:`repro.telemetry.ledger.canonical_record`): plain ints/floats/
    lists with a stable field set, so the event's JSON round-trips
    bit-exactly and the streaming history digest is well defined.
    """
    return {
        "type": "round_record",
        "round": int(round_idx),
        "record": record,
        "ts": float(ts),
    }


def run_footer_event(
    run_id: str,
    rounds: int,
    wall_seconds: float,
    digest: str,
    algorithm: str,
    final_train_loss: Optional[float] = None,
    final_test_accuracy: Optional[float] = None,
    ts: float = 0.0,
    **extra: Any,
) -> Dict[str, Any]:
    """The run's final event: totals + tamper/truncation-evident digest."""
    event: Dict[str, Any] = {
        "type": "run_footer",
        "run_id": run_id,
        "rounds": int(rounds),
        "wall_seconds": float(wall_seconds),
        "final_train_loss": (
            None if final_train_loss is None else float(final_train_loss)
        ),
        "final_test_accuracy": (
            None if final_test_accuracy is None else float(final_test_accuracy)
        ),
        "digest": digest,
        "algorithm": algorithm,
        "ts": float(ts),
    }
    event.update(extra)
    return event


def span_event(
    name: str,
    duration: float,
    round_idx: Optional[int] = None,
    clock: str = CLOCK_WALL,
    unit: str = UNIT_SECONDS,
    ts: float = 0.0,
    **attrs: Any,
) -> Dict[str, Any]:
    """One timed region; ``attrs`` become top-level scalar fields."""
    event: Dict[str, Any] = {
        "type": "span",
        "name": name,
        "round": None if round_idx is None else int(round_idx),
        "duration": float(duration),
        "unit": unit,
        "clock": clock,
        "ts": float(ts),
    }
    event.update(attrs)
    return event


def metric_event(
    name: str,
    kind: str,
    round_idx: Optional[int] = None,
    ts: float = 0.0,
    **fields: Any,
) -> Dict[str, Any]:
    """One measurement; ``fields`` carry ``value`` or histogram stats."""
    if kind not in METRIC_KINDS:
        raise ValueError(f"kind must be one of {METRIC_KINDS}, got {kind!r}")
    event: Dict[str, Any] = {
        "type": "metric",
        "name": name,
        "kind": kind,
        "round": None if round_idx is None else int(round_idx),
        "ts": float(ts),
    }
    event.update(fields)
    return event


def _percentiles(ordered: List[float], qs: Sequence[float]) -> List[float]:
    """``np.percentile(ordered, qs)`` (method ``"linear"``) of a sorted list.

    NumPy's definition, operation for operation — virtual index
    ``(n - 1) * q / 100``, the neighbours ``a <= b`` around it, and
    ``a + (b - a) * g`` switched to ``b - (b - a) * (1 - g)`` from
    ``g = 0.5`` on — so a summary is bit-equal to the ``np.percentile``
    call it replaces (62 µs for the few values of a round's histogram,
    against 8 µs here); ``tests/test_telemetry.py`` holds it to that.
    """
    top = len(ordered) - 1
    out = []
    for q in qs:
        virtual = top * (q / 100)
        below = int(virtual)
        if below >= top:
            out.append(ordered[top])
            continue
        a, b, g = ordered[below], ordered[below + 1], virtual - below
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return out


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Histogram summary statistics (count/min/max/mean/p50/p90/p95/p99).

    The single percentile computation shared by every histogram consumer —
    :meth:`~repro.telemetry.metrics.MetricsRegistry` round flushes,
    ``repro.trace summarize``, and the bench scripts — so tail percentiles
    are defined one way everywhere.  Empty inputs summarize to a zero
    count with no other stats, so sinks never receive NaNs.
    """
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {"count": 0}
    p50, p90, p95, p99 = _percentiles(sorted(arr.tolist()), (50, 90, 95, 99))
    return {
        "count": int(arr.size),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "p50": p50,
        "p90": p90,
        "p95": p95,
        "p99": p99,
    }
