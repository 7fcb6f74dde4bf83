"""Low-overhead, pluggable instrumentation for the federated runtime.

The telemetry subsystem gives every layer of the training loop — the
server, the three round executors, the stacked evaluator, and the local
solvers — one shared way to report what happened and how long it took:

* **Spans** (:class:`Telemetry.span`): monotonic-clock timings over the
  round lifecycle (``round``, ``phase:select``, ``phase:local_solve``,
  ``phase:aggregate``, ``phase:evaluate``) plus executor-internal detail
  (per-client solves, cohort kernel phase splits, evaluator oracle
  calls).  Worker-side timings cross the process boundary as plain
  floats piggybacked on :class:`~repro.core.client.ClientUpdate` and are
  re-emitted server-side, so the span stream is executor-agnostic.
* **Metrics** (:meth:`Telemetry.metric` / :meth:`Telemetry.histogram`):
  what a round's record does not already say — per-round FedProx
  diagnostics (achieved γ-inexactness distribution, proximal-term
  magnitude, client drift ``‖w_k − w_t‖``, straggler budget utilization,
  the B-dissimilarity of Definition 3), wire bytes, queue state, and one
  event per fault decision.  No metric repeats a record field or restates
  a running total; each fact is written once.
* **Sinks** (:mod:`repro.telemetry.sinks`): :class:`InMemorySink` for
  tests/reporting, :class:`JSONLSink` for run artifacts (manifest header
  + one event per line), and a throttled :class:`ConsoleSink`.

The default everywhere is :data:`NULL_TELEMETRY` — a shared
:class:`NullTelemetry` whose operations are no-ops, keeping the
instrumented hot paths at their uninstrumented cost (measured by the
``telemetry.null_span_ns`` probe of ``bench/run.py``) and training
histories bit-identical to pre-telemetry behavior.

Quickstart::

    from repro.telemetry import JSONLSink, Telemetry

    telemetry = Telemetry([JSONLSink("run.jsonl")])
    with FederatedTrainer(..., telemetry=telemetry) as trainer:
        history = trainer.run(num_rounds=5)
    # run.jsonl now holds the manifest + every span/metric event.

Simulated global-clock timelines (:mod:`repro.systems.trace`) convert to
the same event schema via :func:`emit_timeline` (``clock="simulated"``,
``unit="cycles"``).

Schema-2 artifacts are full run *ledgers*: the manifest carries the
serialized :class:`~repro.core.config.TrainerConfig` plus reconstruction
recipes, every round appends a canonical ``round_record``, and the file
ends with a digest-bearing ``run_footer`` (:mod:`repro.telemetry.ledger`).
Records are written one round behind, so a ledger cut off mid-run holds
every round but the newest.
:mod:`repro.telemetry.replay` re-executes a run from its artifact and
asserts bit-identical history; :mod:`repro.telemetry.analysis` and the
``python -m repro.trace`` CLI summarize, diff, and verify artifacts.
"""

from .core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Span,
    Telemetry,
    resolve_telemetry,
)
from .events import (
    CLOCK_SIMULATED,
    CLOCK_WALL,
    SCHEMA_VERSION,
    UNIT_CYCLES,
    UNIT_SECONDS,
    manifest_event,
    metric_event,
    round_record_event,
    run_footer_event,
    span_event,
    summarize,
)
from .ledger import (
    DIGEST_ALGORITHM,
    NUMERICS_EPOCH,
    HistoryDigest,
    RunArtifact,
    RunLedger,
    canonical_json,
    canonical_record,
    environment_info,
    history_digest,
    load_run,
    load_runs,
    split_runs,
    verify_artifact,
)
from .analysis import check_runs, diff_runs, summarize_run, timeline
from .replay import ReplayError, ReplayReport, rebuild_trainer, replay_run
from .resources import current_rss_bytes, peak_rss_bytes
from .simtime import device_trace_events, emit_timeline, timeline_events
from .sinks import ConsoleSink, InMemorySink, JSONLSink, Sink, read_jsonl

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "resolve_telemetry",
    "Span",
    "Sink",
    "InMemorySink",
    "JSONLSink",
    "ConsoleSink",
    "read_jsonl",
    "manifest_event",
    "span_event",
    "metric_event",
    "round_record_event",
    "run_footer_event",
    "summarize",
    "SCHEMA_VERSION",
    "DIGEST_ALGORITHM",
    "NUMERICS_EPOCH",
    "HistoryDigest",
    "history_digest",
    "canonical_record",
    "canonical_json",
    "environment_info",
    "RunArtifact",
    "RunLedger",
    "load_run",
    "load_runs",
    "split_runs",
    "verify_artifact",
    "ReplayError",
    "ReplayReport",
    "rebuild_trainer",
    "replay_run",
    "check_runs",
    "diff_runs",
    "summarize_run",
    "timeline",
    "CLOCK_WALL",
    "CLOCK_SIMULATED",
    "UNIT_SECONDS",
    "UNIT_CYCLES",
    "emit_timeline",
    "timeline_events",
    "device_trace_events",
    "current_rss_bytes",
    "peak_rss_bytes",
]
